"""Orchestration: restrict the evidence by a target meta-estimand, assess
feasibility, run per-slice analyses, and compare strategies side by side.

A slice is one (meta-estimand, endpoint) pair, recorded once, as its
`Restriction`.  Restriction gives each trial estimand of the endpoint one
verdict, shared by the estimands that declare the same thing, and keeps
exactly the contrasts whose estimand is admissible under the target; every
input contrast lands in it exactly once, either used or excluded with
reasons.  Feasibility reads the same verdicts and builds the slice's
covariance blocks from the caller's evidence base; the analysis solves over
those blocks and returns the same `Restriction` as its provenance.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import permutations
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .engine import (
    ComparisonResult,
    CovarianceError,
    NmaResult,
    assemble_gls,
    solve_fixed_effects,
    trial_blocks,
)
from .estimands import (
    EndpointSpec,
    Estimand,
    IntercurrentEventHandling,
    IntercurrentEventStrategy,
    MatchingMode,
    MatchVerdict,
    MetaEstimand,
    _verdict_key,
    canonical,
    matches_meta,
)
from .ingest import ContrastEstimate, EvidenceBase
from .ingest import _estimand, _field, _integer, _json_object, _located, _names, _number, _objects, _text
from .network import EvidenceNetwork, build_network, connected_components
from .normal import z_for_level

_WARNING_CODES = {
    "population": "population_differs",
    "treatments": "treatment_scope",
    "intercurrent_events": "extra_event",
}


class InfeasibleAnalysisError(RuntimeError):
    """Raised when a slice fails feasibility and force mode cannot help."""

    def __init__(self, report: "FeasibilityReport"):
        self.report = report
        blockers = "; ".join(r.message for r in report.reasons if r.severity == "error")
        super().__init__(f"analysis infeasible: {blockers or report.verdict.value}")


@dataclass(frozen=True)
class Reason:
    code: str
    severity: str  # "error" or "warning"
    message: str


@dataclass(frozen=True)
class ExcludedContrast:
    contrast: ContrastEstimate
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class Restriction:
    """One slice: the target, its canonical endpoint key, and how each contrast fared."""

    meta: MetaEstimand
    endpoint: str
    used: tuple[ContrastEstimate, ...]
    excluded: tuple[ExcludedContrast, ...]
    warnings: tuple[Reason, ...]
    # (trial id, estimand label key) -> (estimand, its verdict), for every estimand
    # the input declares for the endpoint, in trial and declaration order
    verdicts: Mapping[tuple[str, str], tuple[Estimand, MatchVerdict]]


class FeasibilityVerdict(enum.Enum):
    FEASIBLE = "feasible"
    FEASIBLE_WITH_WARNINGS = "feasible_with_warnings"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class FeasibilityReport:
    verdict: FeasibilityVerdict
    reasons: tuple[Reason, ...]
    restriction: Restriction  # its verdicts are the alignment table
    network: Optional[EvidenceNetwork]
    # per-trial covariance blocks of the network's contrasts, in row order; None
    # unless the network is connected and every block could be built
    blocks: Optional[tuple[np.ndarray, ...]] = field(default=None, compare=False)


def restrict_evidence(base: EvidenceBase, meta: MetaEstimand, endpoint: str) -> Restriction:
    """Keep the contrasts admissible under the meta-estimand for one endpoint.

    Each trial estimand of the endpoint gets a verdict (`Restriction.verdicts`), one
    per distinct `_verdict_key`; contrasts, exclusion reasons and warnings read them.
    """
    key = canonical(endpoint)
    judged: dict[tuple, MatchVerdict] = {}
    verdicts = {}
    for trial_id, ests in base.estimands_by_trial(key).items():
        for est in ests:
            if (signature := _verdict_key(est, meta)) not in judged:
                judged[signature] = matches_meta(est, meta)
            verdicts[trial_id, est.label_key] = (est, judged[signature])
    used: list[ContrastEstimate] = []
    excluded: list[ExcludedContrast] = []
    warnings: dict[tuple[str, str], None] = {}
    for contrast in base.contrasts:
        if contrast.endpoint != key:
            excluded.append(
                ExcludedContrast(contrast, (f"endpoint mismatch: {contrast.endpoint} vs {key}",))
            )
            continue
        _, verdict = verdicts.get((contrast.trial_id, contrast.label_key), (None, None))
        if verdict is None:
            excluded.append(
                ExcludedContrast(
                    contrast,
                    (f"no estimand {contrast.estimand_label!r} declared for {contrast.trial_id!r}",),
                )
            )
            continue
        if not verdict.compatible:
            excluded.append(ExcludedContrast(contrast, verdict.blockers))
            continue
        used.append(contrast)
        for attr, check in verdict.attributes.items():
            if check.status == "warn":
                code = _WARNING_CODES.get(attr, "estimand_warning")
                warnings.setdefault((code, f"{contrast.trial_id}: {check.detail}"))

    return Restriction(
        meta=meta,
        endpoint=key,
        used=tuple(used),
        excluded=tuple(excluded),
        warnings=tuple(Reason(code, "warning", message) for code, message in warnings),
        verdicts=verdicts,
    )


def feasibility_report(base: EvidenceBase, meta: MetaEstimand, endpoint: str) -> FeasibilityReport:
    """Compose restriction, connectivity, and covariance checks.

    Connectivity is decided by traversal, so no edge weights make the report
    raise.  The alignment table is the restriction's verdicts, one per trial
    estimand (`feasibility_to_dict` renders them); the covariance blocks built
    for the identifiability check are kept.
    """
    restriction = restrict_evidence(base, meta, endpoint)
    reasons: list[Reason] = list(restriction.warnings)
    net: Optional[EvidenceNetwork] = None
    blocks: Optional[tuple[np.ndarray, ...]] = None

    if not restriction.used:
        message = f"no contrasts match {meta.label!r} for endpoint {restriction.endpoint!r}"
        reasons.append(Reason("no_evidence", "error", message))
    else:
        net = build_network(restriction.used)
        if len(parts := connected_components(net)) > 1:
            listed = "; ".join("{" + ", ".join(p) + "}" for p in parts)
            reasons.append(
                Reason("disconnected", "error", f"evidence network is disconnected: {listed}")
            )
        else:
            try:
                blocks = tuple(trial_blocks(net.edges, base))
            except CovarianceError as exc:
                reasons.append(Reason("covariance_unidentifiable", "error", str(exc)))

        estimands = (restriction.verdicts[c.trial_id, c.label_key][0] for c in restriction.used)
        timepoints = sorted({est.endpoint.timepoint_weeks for est in estimands})
        if len(timepoints) > 1:
            listed = ", ".join(str(t) for t in timepoints)
            reasons.append(
                Reason("timepoint_spread", "warning", f"endpoint timepoints differ: {listed}")
            )

    if any(r.severity == "error" for r in reasons):
        verdict = FeasibilityVerdict.INFEASIBLE
    elif reasons:
        verdict = FeasibilityVerdict.FEASIBLE_WITH_WARNINGS
    else:
        verdict = FeasibilityVerdict.FEASIBLE
    return FeasibilityReport(
        verdict=verdict,
        reasons=tuple(reasons),
        restriction=restriction,
        network=net,
        blocks=blocks,
    )


def default_reference(net: EvidenceNetwork) -> str:
    return min(net.nodes, key=canonical)


def run_analysis(
    base: EvidenceBase,
    meta: MetaEstimand,
    endpoint: str,
    reference: str | None = None,
    ci_level: float = 0.95,
    *,
    force: bool = False,
) -> NmaResult:
    """Restrict, build, assemble and solve one slice; its `Restriction` is the provenance.

    The GLS system is assembled once, by `assemble_gls`, over the blocks the
    feasibility report kept.  Force mode downgrades a missing multi-arm
    covariance to an independence approximation; it cannot rescue an empty
    or disconnected slice, nor a trial whose block the fallback cannot build
    either, and such a slice is infeasible whatever the reference.
    """
    report = feasibility_report(base, meta, endpoint)
    if report.verdict is FeasibilityVerdict.INFEASIBLE:
        hard = [
            r
            for r in report.reasons
            if r.severity == "error" and r.code != "covariance_unidentifiable"
        ]
        if hard or not force:
            raise InfeasibleAnalysisError(report)

    net = report.network
    assert net is not None
    blocks = report.blocks
    if blocks is None:  # forced past an unidentifiable covariance, which the fallback may not cure
        try:
            blocks = trial_blocks(net.edges, base, independence_fallback=True)
        except CovarianceError as exc:  # feasibility may have given this very reason already
            reasons = dict.fromkeys((*report.reasons, Reason("covariance_unidentifiable", "error", str(exc))))
            raise InfeasibleAnalysisError(replace(report, reasons=tuple(reasons))) from None
    ref = reference if reference is not None else default_reference(net)
    result = solve_fixed_effects(assemble_gls(net, ref, blocks), ci_level)

    notes = list(result.notes)
    for reason in report.reasons:
        notes.append(f"{reason.code}: {reason.message}")
    if force and any(r.code == "covariance_unidentifiable" for r in report.reasons):
        notes.append("forced: multi-arm correlation ignored (independence fallback)")
    return replace(result, notes=tuple(notes), provenance=report.restriction)


@dataclass(frozen=True)
class StrategyRow:
    treatment: str
    comparator: str
    by_label: Mapping[str, ComparisonResult]
    attenuation: bool


@dataclass(frozen=True)
class StrategyComparison:
    endpoint: str
    labels: tuple[str, ...]
    baseline_label: str
    attenuated_label: str
    rows: tuple[StrategyRow, ...]


def compare_strategies(
    results: Mapping[str, NmaResult], endpoint: str
) -> StrategyComparison:
    """Side-by-side comparison table across meta-estimand labels.

    The attenuation flag asks whether the treatment-policy-style estimate
    sits closer to the null than its counterpart: with exactly two labels,
    the one mentioning "policy" is tested against the other; otherwise the
    second label is tested against the first.
    """
    labels = list(results)
    if len(labels) < 2:
        raise ValueError("compare_strategies needs at least two results")
    # each result's spelling of every treatment, by canonical key
    spelled = {label: {canonical(t): t for t in res.treatments} for label, res in results.items()}
    if len({frozenset(names) for names in spelled.values()}) != 1:
        raise ValueError("results cover different treatment sets")

    baseline, attenuated = labels[0], labels[1]
    if len(labels) == 2:
        policy = [lab for lab in labels if "policy" in canonical(lab)]
        if len(policy) == 1:
            attenuated = policy[0]
            baseline = labels[0] if labels[1] == attenuated else labels[1]

    keys = {t: canonical(t) for t in results[labels[0]].treatments}
    rows = []
    for a, b in permutations(keys, 2):
        by_label = {}
        for label, res in results.items():
            c = res.comparisons[spelled[label][keys[a]], spelled[label][keys[b]]]
            if (c.treatment, c.comparator) != (a, b):  # the result spells them otherwise
                c = replace(c, treatment=a, comparator=b)
            by_label[label] = c
        rows.append(
            StrategyRow(
                treatment=a,
                comparator=b,
                by_label=by_label,
                attenuation=abs(by_label[attenuated].md) < abs(by_label[baseline].md),
            )
        )
    return StrategyComparison(
        endpoint=canonical(endpoint),
        labels=tuple(labels),
        baseline_label=baseline,
        attenuated_label=attenuated,
        rows=tuple(rows),
    )


def feasibility_to_dict(report: FeasibilityReport) -> dict:
    """Machine-readable feasibility report: verdict, reasons, alignment, provenance.

    The alignment rows, "<trial>: <label>", are the restriction's verdicts.
    """
    verdicts = report.restriction.verdicts
    return {
        "verdict": report.verdict.value,
        "reasons": [
            {"code": r.code, "severity": r.severity, "message": r.message}
            for r in report.reasons
        ],
        "alignment": {
            "meta_label": report.restriction.meta.label,
            "feasible": all(v.compatible for _, v in verdicts.values()),
            "rows": [
                {
                    "label": f"{tid}: {est.label}",
                    "compatible": v.compatible,
                    "attributes": {
                        name: {"status": check.status, "detail": check.detail}
                        for name, check in v.attributes.items()
                    },
                }
                for (tid, _), (est, v) in verdicts.items()
            ],
        },
        "used": [
            {"trial_id": c.trial_id, "treatment": c.treatment, "comparator": c.comparator}
            for c in report.restriction.used
        ],
        "excluded": [
            {
                "trial_id": e.contrast.trial_id,
                "treatment": e.contrast.treatment,
                "comparator": e.contrast.comparator,
                "estimand_label": e.contrast.estimand_label,
                "reasons": list(e.reasons),
            }
            for e in report.restriction.excluded
        ],
    }


def strategy_comparison_to_dict(table: StrategyComparison) -> dict:
    """Machine-readable side-by-side strategy table."""
    return {
        "endpoint": table.endpoint,
        "labels": list(table.labels),
        "baseline_label": table.baseline_label,
        "attenuated_label": table.attenuated_label,
        "rows": [
            {
                "treatment": row.treatment,
                "comparator": row.comparator,
                "attenuation": row.attenuation,
                **{
                    label: {
                        "md": c.md,
                        "se": c.se,
                        "ci_lower": c.ci_lower,
                        "ci_upper": c.ci_upper,
                        "ci_level": c.ci_level,
                    }
                    for label, c in row.by_label.items()
                },
            }
            for row in table.rows
        ],
    }


# --- meta-estimand construction ----------------------------------------------


def synthesize_meta(
    base: EvidenceBase,
    endpoint: str,
    strategy: IntercurrentEventStrategy,
    *,
    label: str | None = None,
    tolerance_weeks: int = 4,
    mode: MatchingMode = MatchingMode.LENIENT,
) -> MetaEstimand:
    """Build the pure-strategy target estimand implied by the evidence base.

    Its events are those declared, with the requested strategy, in every
    trial reporting the endpoint; population, timepoint and summary measure
    are the modal values across those trials.
    """
    per_trial = base.estimands_by_trial(canonical(endpoint))
    if not per_trial:
        raise ValueError(f"no estimands are declared for endpoint {endpoint!r}")

    common = set.intersection(
        *({ev for e in ests for ev, s in e.events.items() if s is strategy} for ests in per_trial.values())
    )
    if not common:
        raise ValueError(
            f"no intercurrent event is handled by {strategy.value} in every trial "
            f"reporting {endpoint!r}"
        )

    all_estimands = [e for ests in per_trial.values() for e in ests]
    population = _modal(canonical(e.population) for e in all_estimands)
    display_population = next(
        e.population for e in all_estimands if canonical(e.population) == population
    )
    timepoints = Counter(e.endpoint.timepoint_weeks for e in all_estimands)
    top = max(timepoints.values())
    timepoint = max(t for t, n in timepoints.items() if n == top)
    units = _modal(e.endpoint.units for e in all_estimands)
    name = all_estimands[0].endpoint.name
    summary = _modal((e.summary_measure for e in all_estimands), key=lambda v: v.value)
    treatments = frozenset(arm for tid in per_trial for arm in base.trials[tid].arms)

    return MetaEstimand(
        label=label if label is not None else strategy.value,
        population=display_population,
        treatments=treatments,
        endpoint=EndpointSpec(name=name, units=units, timepoint_weeks=timepoint),
        summary_measure=summary,
        ie_handlings=tuple(
            IntercurrentEventHandling(ev, strategy) for ev in sorted(common)
        ),
        timepoint_tolerance_weeks=tolerance_weeks,
        matching_mode=mode,
    )


def _modal(values, key=None):
    """The most frequent value; ties go to the least (by `key`)."""
    counts = Counter(values)
    top = max(counts.values())
    return min((v for v, n in counts.items() if n == top), key=key)


def resolve_meta(
    base: EvidenceBase,
    endpoint: str,
    label: str,
    *,
    config: Optional["AnalysisConfig"] = None,
    tolerance_weeks: Optional[int] = None,
    mode: Optional[MatchingMode] = None,
) -> MetaEstimand:
    """Find a configured meta-estimand by label, or synthesize a pure-strategy one.

    A tolerance or mode given overrides the configured record's; one left as
    None keeps the record's, or the default (4 weeks, lenient) when synthesizing.
    """
    policy = {"timepoint_tolerance_weeks": tolerance_weeks, "matching_mode": mode}
    policy = {name: value for name, value in policy.items() if value is not None}
    if config is not None:
        meta = config.meta_for(label, endpoint)
        if meta is not None:
            return replace(meta, **policy) if policy else meta
    try:
        strategy = IntercurrentEventStrategy.parse(label)
    except ValueError:
        known = sorted({m.label for m in config.meta_estimands}) if config else []
        hint = f" (configured: {', '.join(known)})" if known else ""
        raise ValueError(
            f"unknown meta-estimand {label!r}: not configured and not a strategy token{hint}"
        ) from None
    tolerance = 4 if tolerance_weeks is None else tolerance_weeks
    mode = MatchingMode.LENIENT if mode is None else mode
    return synthesize_meta(base, endpoint, strategy, label=label, tolerance_weeks=tolerance, mode=mode)


@dataclass(frozen=True)
class AnalysisConfig:
    """Declarative plan: which meta-estimands over which endpoints."""

    meta_estimands: tuple[MetaEstimand, ...]
    endpoints: tuple[str, ...]
    reference: Optional[str] = None
    ci_level: float = 0.95

    def __post_init__(self) -> None:
        if not self.meta_estimands:
            raise ValueError("config declares no meta-estimands")
        if not self.endpoints:
            raise ValueError("config declares no endpoints")
        z_for_level(self.ci_level)  # refuses a level outside (0, 1), or one whose z is 0

    def meta_for(self, label: str, endpoint: str) -> Optional[MetaEstimand]:
        key, lab = canonical(endpoint), canonical(label)
        for meta in self.meta_estimands:
            if canonical(meta.label) == lab and meta.endpoint.key == key:
                return meta
        return None


def load_config(source: str | Path | dict, base: EvidenceBase) -> AnalysisConfig:
    """Load an analysis plan from a JSON file or its parsed document.

    A `meta_estimands` record that gives `strategy` is a shorthand, synthesized against
    the evidence base for every configured endpoint; any other record is a full
    definition, read as an evidence file's estimand record is, plus `treatments`.
    Every fault in the plan is an EvidenceFormatError at `meta_estimands[i]` or `config`.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            doc = _json_object(handle, "config")
    else:
        doc = source
    with _located("config"):
        endpoints = tuple(map(canonical, _names(doc, "endpoints", base.endpoint_keys())))
    metas: list[MetaEstimand] = []
    for record, locator in _objects(doc, "meta_estimands", "config"):
        with _located(locator):
            tolerance = _integer(_field(record, "timepoint_tolerance_weeks", 4), "timepoint_tolerance_weeks")
            mode = MatchingMode(_text(record, "matching_mode", "lenient"))
            if _field(record, "strategy", None) is None:
                policy = dict(timepoint_tolerance_weeks=tolerance, matching_mode=mode)
                metas.append(_estimand(record, _names(record, "treatments"), MetaEstimand, **policy))
                continue
            if _field(record, "ie_handlings", None) is not None:
                raise ValueError("a record gives both 'strategy' (shorthand) and 'ie_handlings' (full definition)")
            if tolerance < 0:
                raise ValueError("timepoint tolerance must be nonnegative")
            strategy = IntercurrentEventStrategy.parse(_text(record, "strategy"))
            label = _text(record, "label", None) or strategy.value
        metas.extend(  # outside _located: evidence that cannot satisfy a shorthand is no fault of the plan
            synthesize_meta(base, endpoint, strategy, label=label, tolerance_weeks=tolerance, mode=mode)
            for endpoint in endpoints
        )
    with _located("config"):
        return AnalysisConfig(
            meta_estimands=tuple(metas),
            endpoints=endpoints,
            reference=_text(doc, "reference", None),
            ci_level=_number(_field(doc, "ci_level", 0.95), "ci_level"),
        )
