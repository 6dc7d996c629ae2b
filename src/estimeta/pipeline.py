"""Orchestration: restrict the evidence by a target meta-estimand, assess
feasibility, run per-slice analyses, and compare strategies side by side.

A slice is one (meta-estimand, endpoint) pair, recorded once, as its
`Restriction`.  Restriction gives each trial estimand of the endpoint one
verdict, shared by the estimands that declare the same thing and judged once
per class of the base whose treatments the target covers, which decides its
slot of the base once: every input contrast lands in the restriction exactly
once, used if its estimand is admissible under the target, or excluded with
reasons.  Feasibility reads the same verdicts, takes the slice's timepoints
off its used classes and builds the slice's covariance blocks from the
caller's evidence base; the analysis solves over those blocks and returns the
same `Restriction` as its provenance.  The plan that names the targets is
read in `plan`.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import NamedTuple, Optional

import numpy as np

from .engine import (
    ComparisonResult,
    CovarianceError,
    LeagueView,
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
    MatchVerdict,
    MetaEstimand,
    canonical,
    matches_meta,
)
from .ingest import ContrastEstimate, EvidenceBase
from .network import EvidenceNetwork, build_network, connected_components

_WARNING_CODES = {  # every attribute whose cell can warn (`matches_meta`)
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


class IncomparableSlicesError(ValueError):
    """Raised when the evidence leaves the compared slices with different treatments."""


class Reason(NamedTuple):
    code: str
    severity: str  # "error" or "warning"
    message: str


class ExcludedContrast(NamedTuple):
    contrast: ContrastEstimate
    reasons: tuple[str, ...]


class Restriction(NamedTuple):
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

    Each trial estimand of the endpoint gets a verdict (`Restriction.verdicts`), one per distinct
    `MetaEstimand.verdict_key`, which decides its slot (`EvidenceBase.slots`) once: its contrasts
    are used, or excluded with the reasons they share, and a used slot adds its verdict's warnings.
    A class of the endpoint's estimands (`EvidenceBase.estimand_classes`) whose treatments the target
    covers has one verdict key, its `class_key` with no treatment outside the target, so it is keyed
    and judged once, on its first estimand; only a member of another class is keyed on its own.
    """
    key = endpoint if endpoint in base.endpoint_keys() else canonical(endpoint)  # a key is canonical
    judged, verdicts, warned = {}, {}, []  # judged: verdict key -> its verdict

    def judge(est: Estimand) -> MatchVerdict:
        if (verdict := judged.get(signature := meta.verdict_key(est))) is None:
            verdict = judged[signature] = matches_meta(est, meta)
        return verdict

    classes, members = base.estimand_classes.get(key, ({}, ()))
    for _, first, _, union, _ in classes.values():
        if union <= meta.treatment_keys:  # so each member's verdict key is (*its class key, frozenset())
            judge(first)
    by_class = [judged.get((*shared_reads, frozenset())) for shared_reads in classes]
    fates: list = [()] * len(base.slots)  # per slot: None if used, else its reasons (() if no verdict)
    for trial_id, est, kind, slot in members:
        verdicts[trial_id, est.label_key] = (est, verdict := by_class[kind] or judge(est))
        if slot >= 0:
            fates[slot] = None if verdict.compatible else verdict.blockers
            if verdict.compatible and verdict.warnings:
                warned.append((slot, trial_id, verdict))
    per_contrast = list(map(fates.__getitem__, base.slot_ids))
    out = [fate is not None for fate in per_contrast]  # each contrast: is it excluded?
    mismatch: dict[str, tuple[str]] = {}  # another endpoint -> the one reason its contrasts share
    reasons = [mismatch.setdefault(c.endpoint, (f"endpoint mismatch: {c.endpoint} vs {key}",)) if c.endpoint != key
               else r or (f"no estimand {c.estimand_label!r} declared for {c.trial_id!r}",)
               for c, r in zip(compress(base.contrasts, out), compress(per_contrast, out))]
    warnings = dict.fromkeys((_WARNING_CODES[attr], f"{trial_id}: {check.detail}") for _, trial_id, verdict
                             in sorted(warned) for attr, check in verdict.attributes.items() if check.status == "warn")
    return Restriction(meta=meta, endpoint=key, used=tuple(compress(base.contrasts, [not e for e in out])),
                       excluded=tuple(map(ExcludedContrast, compress(base.contrasts, out), reasons)),
                       warnings=tuple(Reason(code, "warning", message) for code, message in warnings),
                       verdicts=verdicts)


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

        # each used class's: a contrast lies under a member, and the members agree on compatibility
        classes = base.estimand_classes[restriction.endpoint][0].values()  # (treatments only warn)
        timepoints = sorted({first.endpoint.timepoint_weeks for _, first, trial_id, _, lies_under in classes
                             if lies_under and restriction.verdicts[trial_id, first.label_key][1].compatible})
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


class _StrategyRows(Sequence):
    """The rows of a strategy table over per-label league views in one node order;
    each `StrategyRow` is built when it is read."""

    def __init__(self, views: Mapping[str, LeagueView], attenuation: np.ndarray) -> None:
        self.views, self.attenuation = views, attenuation
        self.treatments = next(iter(views.values())).treatments

    def __len__(self) -> int:
        return self.attenuation.size - len(self.attenuation)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        i, j = divmod(range(len(self))[k], len(self.treatments) - 1)
        j += j >= i  # the diagonal is skipped
        by_label = {label: view.at(i, j) for label, view in self.views.items()}
        return StrategyRow(self.treatments[i], self.treatments[j], by_label, self.attenuation.item(i, j))


class StrategyComparison(NamedTuple):
    endpoint: str
    labels: tuple[str, ...]
    baseline_label: str
    attenuated_label: str
    rows: Sequence[StrategyRow]


def compare_strategies(
    results: Mapping[str, NmaResult], endpoint: str
) -> StrategyComparison:
    """Side-by-side comparison table across meta-estimand labels.

    The attenuation flag asks whether the treatment-policy-style estimate
    sits closer to the null than its counterpart: with exactly two labels,
    the one mentioning "policy" is tested against the other; otherwise the
    second label is tested against the first.  Each result's league arrays are
    aligned once to the first result's node order and spelling; `rows` is a
    read-only sequence that builds each row when it is read.
    """
    labels = list(results)
    if len(labels) < 2:
        raise ValueError("compare_strategies needs at least two results")
    covered = [set(res.comparisons.columns) for res in results.values()]
    if partial := set.union(*covered) - set.intersection(*covered):
        raise IncomparableSlicesError(f"results cover different treatment sets: some slices lack {sorted(partial)}")

    baseline, attenuated = labels[0], labels[1]
    if len(labels) == 2:
        policy = [lab for lab in labels if "policy" in canonical(lab)]
        if len(policy) == 1:
            attenuated = policy[0]
            baseline = labels[0] if labels[1] == attenuated else labels[1]

    first = results[labels[0]].comparisons
    views = {
        label: res.comparisons.reindexed([res.comparisons.columns[k] for k in first.columns], first.treatments)
        for label, res in results.items()
    }
    attenuation = np.abs(views[attenuated].md) < np.abs(views[baseline].md)
    return StrategyComparison(
        endpoint=canonical(endpoint),
        labels=tuple(labels),
        baseline_label=baseline,
        attenuated_label=attenuated,
        rows=_StrategyRows(views, attenuation),
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
        "used": [{"trial_id": c.trial_id, "treatment": c.treatment, "comparator": c.comparator}
                 for c in report.restriction.used],
        "excluded": [{"trial_id": c.trial_id, "treatment": c.treatment, "comparator": c.comparator,
                      "estimand_label": c.estimand_label, "reasons": list(reasons)}
                     for c, reasons in report.restriction.excluded],
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
                **{label: {"md": c.md, "se": c.se, "ci_lower": c.ci_lower, "ci_upper": c.ci_upper,
                           "ci_level": c.ci_level} for label, c in row.by_label.items()},
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
    **policy,
) -> MetaEstimand:
    """Build the pure-strategy target estimand implied by the evidence base.

    Its events are those declared, with the requested strategy, in every
    trial reporting the endpoint; population, timepoint and summary measure
    are the modal values across those trials.  `policy` may give
    `timepoint_tolerance_weeks` and `matching_mode`; each left out takes
    `MetaEstimand`'s default.
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
    population = _modal(e.population_key for e in all_estimands)
    display_population = next(e.population for e in all_estimands if e.population_key == population)
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
        **policy,
    )


def _modal(values, key=None):
    """The most frequent value; ties go to the least (by `key`)."""
    counts = Counter(values)
    top = max(counts.values())
    return min((v for v, n in counts.items() if n == top), key=key)
