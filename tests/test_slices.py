"""One pass per slice: restriction by slot, stacked multi-arm blocks and whitening over the
network's ends, each checked against the earlier per-contrast code kept below as an oracle.

The oracles are the earlier `restrict_evidence`, `trial_blocks` (with its per-trial block
function) and the solve's whitening of a dense design, verbatim but for their names.  They
share `engine._block_factors`, the one covariance judge, which both versions call alike.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import synthetic_base
from estimeta import engine, estimands, ingest, network, pipeline
from estimeta.engine import CovarianceError, assemble_gls, trial_blocks
from estimeta.estimands import (
    EndpointSpec,
    IntercurrentEventHandling,
    IntercurrentEventStrategy,
    MetaEstimand,
    SummaryMeasure,
    canonical,
    matches_meta,
)
from estimeta.ingest import ArmSummary, ContrastEstimate, EvidenceBase, TrialRecord, UncertaintySource
from estimeta.network import build_network, connected_components, incidence
from estimeta.pipeline import (
    ExcludedContrast,
    FeasibilityVerdict,
    Reason,
    Restriction,
    feasibility_report,
    restrict_evidence,
    synthesize_meta,
)

HYP, TP = IntercurrentEventStrategy.HYPOTHETICAL, IntercurrentEventStrategy.TREATMENT_POLICY
EVENT = "premature treatment discontinuation"


# --- the oracles: the earlier per-contrast code ------------------------------------------------


def oracle_restrict(base, meta, endpoint):
    key = canonical(endpoint)
    judged = {}
    verdicts = {}
    for trial_id, ests in base.estimands_by_trial(key).items():
        for est in ests:
            signature = meta.verdict_key(est)
            if (verdict := judged.get(signature)) is None:
                verdict = judged[signature] = matches_meta(est, meta)
            verdicts[trial_id, est.label_key] = (est, verdict)
    used = []
    excluded = []
    mismatch = {}
    warnings = {}
    warned = set()
    for contrast in base.contrasts:
        if contrast.endpoint != key:
            if (reasons := mismatch.get(contrast.endpoint)) is None:
                reasons = mismatch[contrast.endpoint] = (f"endpoint mismatch: {contrast.endpoint} vs {key}",)
            excluded.append(ExcludedContrast(contrast, reasons))
            continue
        if (entry := verdicts.get(slot := (contrast.trial_id, contrast.label_key))) is None:
            excluded.append(
                ExcludedContrast(
                    contrast,
                    (f"no estimand {contrast.estimand_label!r} declared for {contrast.trial_id!r}",),
                )
            )
            continue
        if not (verdict := entry[1]).compatible:
            excluded.append(ExcludedContrast(contrast, verdict.blockers))
            continue
        used.append(contrast)
        if slot not in warned:
            warned.add(slot)
            for attr, check in verdict.attributes.items():
                if check.status == "warn":
                    warnings.setdefault((pipeline._WARNING_CODES[attr], f"{contrast.trial_id}: {check.detail}"))

    return Restriction(
        meta=meta,
        endpoint=key,
        used=tuple(used),
        excluded=tuple(excluded),
        warnings=tuple(Reason(code, "warning", message) for code, message in warnings),
        verdicts=verdicts,
    )


def oracle_arm_block(contrasts, arm_variances):
    if arm_variances is None:
        raise CovarianceError(
            "shared-arm variance unidentifiable: multi-arm trial needs arm-level variances"
        )
    column = {arm: j for j, arm in enumerate(arm_variances)}
    signs = np.zeros((len(contrasts), len(column)))
    component = list(range(len(column)))
    for i, c in enumerate(contrasts):
        for arm, sign in ((c.treatment_key, 1.0), (c.comparator_key, -1.0)):
            if arm not in column:
                raise CovarianceError(
                    f"shared-arm variance unidentifiable: no arm variance for {arm!r} "
                    f"in trial {c.trial_id!r}"
                )
            signs[i, column[arm]] = sign
        a, b = component[column[c.treatment_key]], component[column[c.comparator_key]]
        if a == b:
            raise CovarianceError(
                f"covariance of trial {c.trial_id!r} is not positive definite: its contrasts "
                "are linearly dependent (they close a cycle over its arms)"
            )
        component = [a if k == b else k for k in component]
    with np.errstate(over="ignore"):
        return (signs * np.array(list(arm_variances.values()), dtype=float)) @ signs.T


def oracle_trial_blocks(contrasts, base, *, independence_fallback=False):
    groups = [list(group) for _, group in groupby(contrasts, key=lambda c: c.trial_id)]
    singles = iter(np.array([g[0].se ** 2 for g in groups if len(g) == 1]).reshape(-1, 1, 1))
    blocks = []
    try:
        for group in groups:
            blocks.append(next(singles) if len(group) == 1 else oracle_block_for_trial(group, base, independence_fallback))
    finally:
        multi = [i for i, block in enumerate(blocks) if len(block) > 1]
        engine._block_factors([blocks[i] for i in multi], [c for i in multi for c in groups[i]])
    return blocks


def oracle_block_for_trial(group, base, independence_fallback):
    sample = group[0]
    if len(labels := {c.label_key for c in group}) > 1:
        raise CovarianceError(
            f"trial {sample.trial_id!r} contributes contrasts under several estimands: {sorted(labels)}"
        )
    summaries = {
        arm: base.arm_summary(sample.trial_id, sample.estimand_label, sample.endpoint, arm)
        for arm in dict.fromkeys(arm for c in group for arm in (c.treatment_key, c.comparator_key))
    }
    if missing := [repr(arm) for arm, summary in summaries.items() if summary is None]:
        if independence_fallback:
            oracle_arm_block(group, dict.fromkeys(summaries, 1.0))
            return np.diag([c.se**2 for c in group])
        raise CovarianceError(
            f"shared-arm variance unidentifiable: trial {sample.trial_id!r} lacks an arm "
            f"summary for {', '.join(missing)} ({sample.estimand_label} / {sample.endpoint})"
        )
    return oracle_arm_block(group, {arm: s.variance for arm, s in summaries.items()})


def oracle_whitened(design, y, blocks, contrasts):
    starts = np.cumsum([0, *map(len, blocks)])[:-1]
    design_w, y_w = design.copy(), y.copy()
    for k, (index, factors) in engine._block_factors(blocks, contrasts).items():
        rows = starts[index, None] + np.arange(k)
        if k == 1:
            design_w[rows], y_w[rows] = design[rows] / factors, y[rows] / factors[..., 0]
        else:
            design_w[rows] = np.linalg.solve(factors, design[rows])
            y_w[rows] = np.linalg.solve(factors, y[rows, None])[..., 0]
    return np.column_stack([design_w, y_w])


# --- random bases that exercise every outcome of a slot and of a block -------------------------


def _outcome(name="outcome"):
    return EndpointSpec(name=name, units="u", timepoint_weeks=12)


def _estimand(label, arms, strategy=HYP, endpoint=None, population="adults"):
    return estimands.Estimand(label=label, population=population, treatments=frozenset(arms),
                              endpoint=endpoint or _outcome(), summary_measure=SummaryMeasure.MEAN_DIFFERENCE,
                              ie_handlings=(IntercurrentEventHandling(EVENT, strategy),))


def random_base(rng: np.random.Generator) -> EvidenceBase:
    """Trials of two to four arms over six treatments, with estimands under the target's strategy
    or another, contrasts under other endpoints and under undeclared labels in mixed spellings,
    arm rows left out, contrasts that close a cycle, a trial split over two estimands and arm
    variances so far apart that a block fails to factor."""
    pool = ["A", "B", "C", "D", "E", "F"]
    trials, contrasts, arms_rows = {}, [], []
    for t in range(int(rng.integers(2, 9))):
        trial_id = f"T{t}"
        arms = [str(a) for a in rng.choice(pool, size=int(rng.integers(2, 5)), replace=False)]
        strategy = HYP if rng.random() < 0.8 else TP
        population = "adults" if rng.random() < 0.8 else "older adults"
        declared = {("primary", "outcome"): _estimand("Primary", arms, strategy, population=population)}
        if rng.random() < 0.2:
            declared["alt", "outcome"] = _estimand("alt", arms)
        if rng.random() < 0.3:
            declared["primary", "other outcome"] = _estimand("primary", arms, endpoint=_outcome("Other  Outcome"))
        trials[trial_id] = TrialRecord(trial_id, tuple(arms), declared)
        extreme = len(arms) == 3 and rng.random() < 0.1  # a block that fails to factor
        halves = [9.4e67, 1.3e60, 8.0e-5] if extreme else list(rng.uniform(0.2, 2.0, len(arms)))
        for label in ("primary", "alt"):
            for arm, half in zip(arms, halves):
                if rng.random() < 0.9:
                    arms_rows.append(ArmSummary(trial_id=trial_id, treatment=arm, n_randomized=50, endpoint="outcome",
                                                estimand_label=label, mean_change=0.0, ci_lower=-half, ci_upper=half))
        pairs = [(arm, arms[0]) for arm in arms[1:]]
        if len(arms) > 2 and rng.random() < 0.15:
            pairs.append((arms[2], arms[1]))  # closes a cycle
        for treatment, comparator in pairs:
            label = str(rng.choice(["primary", "Primary", " PRIMARY", "alt", "secondary", "Secondary "],
                                   p=[0.45, 0.15, 0.1, 0.1, 0.1, 0.1]))
            endpoint = "outcome" if rng.random() < 0.85 else str(rng.choice(["Other Outcome", "third"]))
            contrasts.append(ContrastEstimate(trial_id=trial_id, treatment=treatment, comparator=comparator,
                                              endpoint=endpoint, estimand_label=label, md=float(rng.normal()),
                                              se=float(rng.uniform(0.2, 1.0)), source=UncertaintySource.REPORTED_SE))
    order = rng.permutation(len(contrasts))
    return EvidenceBase(trials=trials, contrasts=tuple(contrasts[i] for i in order), arm_summaries=tuple(arms_rows))


def random_meta(rng: np.random.Generator) -> MetaEstimand:
    scope = ["A", "B", "C", "D", "E", "F"][: int(rng.integers(3, 7))]
    return MetaEstimand(label="target", population="adults", treatments=frozenset(scope), endpoint=_outcome(),
                        summary_measure=SummaryMeasure.MEAN_DIFFERENCE,
                        ie_handlings=(IntercurrentEventHandling(EVENT, HYP),))


def _outcome_of(call):
    """The call's result, or the message of the `CovarianceError` it raised."""
    try:
        return call()
    except CovarianceError as exc:
        return str(exc)


def _bits(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


SLICES = settings(derandomize=True, deadline=None, database=None, max_examples=100)


@SLICES
@given(st.integers(0, 2**32 - 1))
def test_a_slice_equals_the_per_contrast_oracles(seed):
    rng = np.random.default_rng(seed)
    base, meta = random_base(rng), random_meta(rng)
    endpoint = str(rng.choice(["outcome", " Outcome ", "other outcome"]))

    restriction, expected = restrict_evidence(base, meta, endpoint), oracle_restrict(base, meta, endpoint)
    assert restriction.meta is expected.meta and restriction.endpoint == expected.endpoint
    assert len(restriction.used) == len(expected.used)
    assert all(a is b for a, b in zip(restriction.used, expected.used))
    assert [(e.contrast, e.reasons) for e in restriction.excluded] == [(e.contrast, e.reasons) for e in expected.excluded]
    assert all(a.contrast is b.contrast for a, b in zip(restriction.excluded, expected.excluded))
    assert isinstance(restriction.excluded, tuple) and all(type(e) is ExcludedContrast for e in restriction.excluded)
    assert restriction.warnings == expected.warnings
    assert list(restriction.verdicts.items()) == list(expected.verdicts.items())
    if not restriction.used or len(connected_components(net := build_network(restriction.used))) > 1:
        return

    for fallback in (False, True):
        blocks = _outcome_of(lambda: trial_blocks(net.edges, base, independence_fallback=fallback))
        want = _outcome_of(lambda: oracle_trial_blocks(net.edges, base, independence_fallback=fallback))
        assert (blocks if isinstance(blocks, str) else _bits(blocks)) == (want if isinstance(want, str) else _bits(want))
        if isinstance(blocks, str):
            continue
        reference = net.nodes[int(rng.integers(len(net.nodes)))]
        system = assemble_gls(net, reference, blocks)
        design = np.delete(incidence(net), net.node_index(reference), axis=1)
        assert _bits([system.design]) == _bits([design])
        whitened = _outcome_of(lambda: engine._whitened(system))
        want = _outcome_of(lambda: oracle_whitened(design, system.y, blocks, net.edges))
        assert (whitened if isinstance(whitened, str) else _bits([whitened])) == (
            want if isinstance(want, str) else _bits([want]))

    def oracle_validation_warnings():
        groups = {}
        for c in base.contrasts:
            groups.setdefault((c.trial_id, c.label_key, c.endpoint), []).append(c)
        return [message for group in groups.values() if len(group) > 1 and isinstance(message := _outcome_of(
            lambda: oracle_trial_blocks(sorted(group, key=lambda c: (c.treatment_key, c.comparator_key)), base)), str)]

    covariance = [i.message for i in ingest.validate_evidence(base)
                  if i.message.startswith(("shared-arm variance", "covariance of trial"))]
    assert covariance == oracle_validation_warnings()


def test_the_generator_reaches_every_outcome():
    """The property above sees each kind of slot and each kind of block refusal."""
    reasons, refusals = set(), set()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        base, meta = random_base(rng), random_meta(rng)
        restriction = restrict_evidence(base, meta, "outcome")
        reasons |= {r.split(" ")[0] for e in restriction.excluded for r in e.reasons}
        net = build_network(restriction.used) if restriction.used else None
        if net and len(connected_components(net)) == 1:
            if isinstance(refusal := _outcome_of(lambda: trial_blocks(net.edges, base)), str):
                refusals.add(refusal)
    assert {"endpoint", "no", "strategy"} <= reasons
    assert any(r.startswith("shared-arm") for r in refusals)
    assert any(r.startswith("covariance of trial") for r in refusals)
    assert any(r.startswith("trial") for r in refusals)


# --- counts that a slice must not regrow -------------------------------------------------------


MULTI_ARM = [(f"T{j}", arms, [0.3 + 0.01 * j] * len(arms), [0.1 * j] * (len(arms) - 1)) for j, arms in enumerate(
    [["A", "B"], ["B", "C"], ["C", "D"], ["A", "B", "C"], ["B", "C", "D"], ["A", "C", "D"], ["A", "B", "C", "D"],
     ["A", "B", "D", "C"], ["D", "A"]])]


def test_a_slice_canonicalizes_no_text_and_builds_one_stack_per_block_shape(monkeypatch):
    base = ingest.parse_evidence_text(ingest.serialize_evidence(synthetic_base(MULTI_ARM)))
    meta = synthesize_meta(base, "outcome", HYP)
    depth, canonicalized, stacks = [0], [], []

    def scoped(fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def counted(text):
        if depth[0]:
            canonicalized.append(text)
        return canonical(text)

    for module in (estimands, ingest, network, engine, pipeline):
        if "canonical" in vars(module):
            monkeypatch.setattr(module, "canonical", counted)
    monkeypatch.setattr(pipeline, "restrict_evidence", scoped(pipeline.restrict_evidence))
    monkeypatch.setattr(pipeline, "trial_blocks", scoped(pipeline.trial_blocks))
    build = engine._arm_blocks
    monkeypatch.setattr(engine, "_arm_blocks", lambda ends, variances: stacks.append(ends.shape) or build(ends, variances))

    report = feasibility_report(base, meta, "outcome")
    assert report.verdict is FeasibilityVerdict.FEASIBLE
    assert canonicalized == []
    assert sorted(len(block) for block in report.blocks) == [1, 1, 1, 1, 2, 2, 2, 3, 3]
    assert sorted(stacks) == [(2, 3, 2), (3, 2, 2)]  # two shapes: three trials of three arms, two of four


def test_validation_judges_every_multi_arm_slot_in_one_pass(monkeypatch):
    base = synthetic_base(MULTI_ARM)
    calls, judge = [], engine.group_blocks
    monkeypatch.setattr(engine, "group_blocks", lambda groups, base: calls.append(len(groups)) or judge(groups, base))
    assert ingest.validate_evidence(base) == []
    assert calls == [5]
