"""Estimand-aware network meta-analysis of aggregate clinical-trial data.

The package restricts an evidence base to a declared target meta-analytical
estimand, checks cross-trial alignment and network connectivity, and pools
mean differences with a fixed-effects GLS that accounts for correlated
contrasts within multi-arm trials.
"""

from importlib import resources
from pathlib import Path

from .engine import (
    ComparisonResult,
    GlsSystem,
    NmaResult,
    assemble_gls,
    comparison,
    league_table,
    solve_fixed_effects,
    trial_covariance,
)
from .estimands import (
    AttributeDiff,
    EndpointSpec,
    Estimand,
    IntercurrentEventHandling,
    IntercurrentEventStrategy,
    MatchingMode,
    MatchVerdict,
    MetaEstimand,
    SummaryMeasure,
    compare_estimands,
    heterogeneity_matrix,
    matches_meta,
)
from .ingest import (
    ArmSummary,
    ContrastEstimate,
    EvidenceBase,
    EvidenceFormatError,
    parse_evidence,
    se_from_ci,
    serialize_evidence,
    validate_evidence,
)
from .network import EvidenceNetwork, build_network, connected_components, is_connected
from .pipeline import (
    FeasibilityVerdict,
    InfeasibleAnalysisError,
    compare_strategies,
    feasibility_report,
    restrict_evidence,
    run_analysis,
    synthesize_meta,
)
from .plan import AnalysisConfig

__version__ = "0.1.0"


def case_study_path() -> Path:
    """Path to the bundled semaglutide-vs-dulaglutide evidence file."""
    return Path(resources.files("estimeta").joinpath("data/case_study.csv"))
