"""Shared fixtures, random evidence generators, and independent oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

import estimeta as em
from estimeta.estimands import (
    EndpointSpec,
    Estimand,
    IntercurrentEventHandling,
    IntercurrentEventStrategy,
    SummaryMeasure,
)
from estimeta.ingest import (
    ArmSummary,
    ContrastEstimate,
    EvidenceBase,
    TrialRecord,
    UncertaintySource,
)
from estimeta.network import build_network, connected_components
from estimeta.normal import z_for_level

HBA1C = "change from baseline in hba1c"
WEIGHT = "change from baseline in body weight"
SEMA_2 = "semaglutide 2.0 mg QW"
SEMA_1 = "semaglutide 1.0 mg QW"
DULA_15 = "dulaglutide 1.5 mg QW"
DULA_30 = "dulaglutide 3.0 mg QW"
DULA_45 = "dulaglutide 4.5 mg QW"


# T1 reports B-A under two admissible estimands of one endpoint; T2 connects C
TWO_ESTIMANDS_CSV = """\
#trials
trial_id,arms
T1,A;B
T2,A;C
#estimands
trial_id,label,population,endpoint_name,units,timepoint_weeks,summary_measure,ie_handlings
T1,primary,adults,outcome,u,12,mean_difference,discontinuation:hypothetical
T1,secondary,adults,outcome,u,12,mean_difference,discontinuation:hypothetical
T2,primary,adults,outcome,u,12,mean_difference,discontinuation:hypothetical
#contrasts
trial_id,estimand_label,endpoint_name,treatment,comparator,md,se,ci_lower,ci_upper,ci_level
T1,primary,outcome,B,A,1.0,0.2,,,
T1,secondary,outcome,B,A,1.2,0.25,,,
T2,primary,outcome,C,A,0.5,0.3,,,
"""

# T1 reports B-A, C-A and C-B with every arm row: its contrasts close a cycle over its arms
CYCLIC_TRIAL_CSV = """\
#trials
trial_id,arms
T1,A;B;C
T2,A;B
#estimands
trial_id,label,population,endpoint_name,units,timepoint_weeks,summary_measure,ie_handlings
T1,primary,adults,outcome,u,12,mean_difference,dropout:hypothetical
T2,primary,adults,outcome,u,12,mean_difference,dropout:hypothetical
#contrasts
trial_id,estimand_label,endpoint_name,treatment,comparator,md,se,ci_lower,ci_upper,ci_level
T1,primary,outcome,B,A,1.0,,,,
T1,primary,outcome,C,A,0.5,,,,
T1,primary,outcome,C,B,-0.5,,,,
T2,primary,outcome,B,A,0.8,0.3,,,
#arms
trial_id,estimand_label,endpoint_name,treatment,n,mean_change,ci_lower,ci_upper,ci_level
T1,primary,outcome,A,100,0,-1,1,0.95
T1,primary,outcome,B,100,0,-1.2,1.2,0.95
T1,primary,outcome,C,100,0,-1.5,1.5,0.95
"""

# T1's B-A and C-A are independent, but A's variance swamps B's and C's: in floating point
# the block is singular, and its Cholesky factorization fails
REFUSED_FACTOR_CSV = """\
#trials
trial_id,arms
T1,A;B;C
#estimands
trial_id,label,population,endpoint_name,units,timepoint_weeks,summary_measure,ie_handlings
T1,primary,adults,outcome,u,12,mean_difference,dropout:hypothetical
#contrasts
trial_id,estimand_label,endpoint_name,treatment,comparator,md,se,ci_lower,ci_upper,ci_level
T1,primary,outcome,B,A,1.0,,,,
T1,primary,outcome,C,A,0.5,,,,
#arms
trial_id,estimand_label,endpoint_name,treatment,n,mean_change,ci_lower,ci_upper,ci_level
T1,primary,outcome,A,100,0,-9.444132097830589e+67,9.444132097830589e+67,0.95
T1,primary,outcome,B,100,0,-1.2585817278477383e+60,1.2585817278477383e+60,0.95
T1,primary,outcome,C,100,0,-7.961424252503772e-05,7.961424252503772e-05,0.95
"""


@pytest.fixture(scope="session")
def case_base() -> EvidenceBase:
    return em.parse_evidence(em.case_study_path())


# --- synthetic evidence -------------------------------------------------------

_ENDPOINT = EndpointSpec(name="outcome", units="u", timepoint_weeks=12)
_HANDLING = (
    IntercurrentEventHandling("premature treatment discontinuation", IntercurrentEventStrategy.HYPOTHETICAL),
)


def make_estimand(endpoint: EndpointSpec = _ENDPOINT, treatments=("A", "B"), label="primary") -> Estimand:
    return Estimand(
        label=label,
        population="adults",
        treatments=frozenset(treatments),
        endpoint=endpoint,
        summary_measure=SummaryMeasure.MEAN_DIFFERENCE,
        ie_handlings=_HANDLING,
    )


def synthetic_base(trials: list[tuple[str, list[str], list[float], list[float]]]) -> EvidenceBase:
    """Build an evidence base from (trial_id, arms, arm_variances, contrast_mds).

    Contrasts run each non-first arm against the first; contrast SEs come
    from the arm variances, and arm summaries carry matching intervals so
    multi-arm covariance blocks are constructible.
    """
    z = z_for_level(0.95)
    records: dict[str, TrialRecord] = {}
    contrasts: list[ContrastEstimate] = []
    arm_rows: list[ArmSummary] = []
    for trial_id, arms, variances, mds in trials:
        estimand = make_estimand(treatments=tuple(arms))
        records[trial_id] = TrialRecord(
            trial_id=trial_id,
            arms=tuple(arms),
            estimands={("primary", "outcome"): estimand},
        )
        for arm, variance in zip(arms, variances):
            half = z * math.sqrt(variance)
            arm_rows.append(
                ArmSummary(
                    trial_id=trial_id,
                    treatment=arm,
                    n_randomized=100,
                    endpoint="outcome",
                    estimand_label="primary",
                    mean_change=0.0,
                    ci_lower=-half,
                    ci_upper=half,
                )
            )
        for i, (arm, md) in enumerate(zip(arms[1:], mds), start=1):
            contrasts.append(
                ContrastEstimate(
                    trial_id=trial_id,
                    treatment=arm,
                    comparator=arms[0],
                    endpoint="outcome",
                    estimand_label="primary",
                    md=md,
                    se=math.sqrt(variances[i] + variances[0]),
                    source=UncertaintySource.FROM_ARMS,
                )
            )
    return EvidenceBase(trials=records, contrasts=tuple(contrasts), arm_summaries=tuple(arm_rows))


def random_connected_base(rng: np.random.Generator, max_nodes: int = 6, max_trials: int = 8) -> EvidenceBase:
    """Random connected network of mixed 2/3-arm trials."""
    pool = [f"T{i}" for i in range(1, max_nodes + 1)]
    while True:
        n_nodes = int(rng.integers(2, max_nodes + 1))
        nodes = pool[:n_nodes]
        n_trials = int(rng.integers(1, max_trials + 1))
        trials = []
        for j in range(n_trials):
            arity = int(rng.integers(2, 4)) if n_nodes >= 3 else 2
            arms = list(rng.choice(nodes, size=arity, replace=False))
            variances = list(rng.uniform(0.05, 1.0, size=arity))
            mds = list(rng.normal(0.0, 2.0, size=arity - 1))
            trials.append((f"trial-{j}", arms, variances, mds))
        base = synthetic_base(trials)
        net = build_network(base.contrasts)
        if len(connected_components(net)) == 1:
            return base


def large_connected_base(rng: np.random.Generator, n_nodes: int = 100, n_trials: int = 1000) -> EvidenceBase:
    """Connected network of a fixed size: a spanning chain of two-arm trials, then
    random trials of which about 30% have three arms."""
    nodes = [f"T{i}" for i in range(n_nodes)]
    trials = []
    for j in range(n_trials):
        if j < n_nodes - 1:
            arms = nodes[j : j + 2]
        else:
            arms = list(rng.choice(nodes, size=3 if rng.random() < 0.3 else 2, replace=False))
        variances = list(rng.uniform(0.05, 1.0, size=len(arms)))
        trials.append((f"trial-{j}", arms, variances, list(rng.normal(0.0, 2.0, size=len(arms) - 1))))
    return synthetic_base(trials)


# --- independent oracles ------------------------------------------------------


def gls_brute(y: np.ndarray, design: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense GLS with explicit matrix inversion."""
    sigma_inv = np.linalg.inv(sigma)
    cov = np.linalg.inv(design.T @ sigma_inv @ design)
    return cov @ design.T @ sigma_inv @ y, cov


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def connected_oracle(nodes, edge_pairs) -> bool:
    """Union-find connectivity, independent of the package's traversal."""
    if not nodes:
        raise ValueError("no nodes")
    uf = UnionFind(nodes)
    for a, b in edge_pairs:
        uf.union(a, b)
    roots = {uf.find(n) for n in nodes}
    return len(roots) == 1


def quantile_bisect(p: float) -> float:
    """Standard-normal quantile by bisection on the erf-based CDF."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# --- acceptance summary -------------------------------------------------------

_CRITERIA: dict[tuple[int, str], str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker and report.when == "call":
        key = (marker.args[0], marker.args[1])
        _CRITERIA[key] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for (num, description), status in sorted(_CRITERIA.items()):
        terminalreporter.write_line(f"criterion {num} ({description}): {status}")
