"""Restriction, feasibility, analysis orchestration, and strategy comparison."""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DULA_30,
    DULA_45,
    HBA1C,
    SEMA_2,
    TWO_ESTIMANDS_CSV,
    WEIGHT,
    large_connected_base,
    random_connected_base,
    synthetic_base,
)
from estimeta import engine, estimands, network, pipeline
from estimeta.engine import comparison
from estimeta.estimands import (
    EndpointSpec,
    IntercurrentEventStrategy,
    MatchingMode,
    MetaEstimand,
    SummaryMeasure,
    matches_meta,
)
from estimeta.ingest import (
    ContrastEstimate,
    EvidenceBase,
    EvidenceFormatError,
    UncertaintySource,
    evidence_to_dict,
    parse_evidence_text,
)
from estimeta.pipeline import (
    AnalysisConfig,
    FeasibilityVerdict,
    InfeasibleAnalysisError,
    compare_strategies,
    feasibility_report,
    load_config,
    resolve_meta,
    restrict_evidence,
    run_analysis,
    synthesize_meta,
)

HYP = IntercurrentEventStrategy.HYPOTHETICAL
TP = IntercurrentEventStrategy.TREATMENT_POLICY


@pytest.fixture(scope="module")
def hyp_meta(case_base):
    return synthesize_meta(case_base, HBA1C, HYP)


@pytest.fixture(scope="module")
def no_sustain7(case_base) -> EvidenceBase:
    return EvidenceBase(
        trials={t: r for t, r in case_base.trials.items() if t != "SUSTAIN 7"},
        contrasts=tuple(c for c in case_base.contrasts if c.trial_id != "SUSTAIN 7"),
        arm_summaries=tuple(a for a in case_base.arm_summaries if a.trial_id != "SUSTAIN 7"),
    )


class TestSynthesizeMeta:
    def test_case_study_hypothetical(self, hyp_meta):
        assert hyp_meta.label == "hypothetical"
        assert hyp_meta.endpoint.timepoint_weeks == 40
        assert hyp_meta.timepoint_tolerance_weeks == 4
        assert hyp_meta.matching_mode is MatchingMode.LENIENT
        events = {h.event_name: h.strategy for h in hyp_meta.ie_handlings}
        assert events == {
            "initiation of anti-diabetic rescue medication": HYP,
            "premature treatment discontinuation": HYP,
        }

    def test_no_common_events_rejected(self, case_base):
        with pytest.raises(ValueError, match="no intercurrent event"):
            synthesize_meta(case_base, HBA1C, IntercurrentEventStrategy.COMPOSITE)

    def test_unknown_endpoint_rejected(self, case_base):
        with pytest.raises(ValueError, match="no estimands"):
            synthesize_meta(case_base, "nonexistent endpoint", HYP)


class TestRestrictEvidence:
    def test_hypothetical_hba1c_slice(self, case_base, hyp_meta):
        restriction = restrict_evidence(case_base, hyp_meta, HBA1C)
        assert len(restriction.used) == 4
        assert {c.trial_id for c in restriction.used} == {"AWARD-11", "SUSTAIN 7", "SUSTAIN FORTE"}
        policy_labels = {"de-facto", "treatment policy", "treatment regimen"}
        excluded_hba1c = [e for e in restriction.excluded if e.contrast.endpoint == HBA1C]
        assert {e.contrast.estimand_label for e in excluded_hba1c} == policy_labels
        assert all(
            any("strategy mismatch" in r for r in e.reasons) for e in excluded_hba1c
        )

    def test_treatment_policy_weight_slice(self, case_base):
        meta = synthesize_meta(case_base, WEIGHT, TP)
        restriction = restrict_evidence(case_base, meta, WEIGHT)
        assert len(restriction.used) == 4
        assert {c.estimand_label for c in restriction.used} == {
            "de-facto",
            "treatment policy",
            "treatment regimen",
        }

    def test_unmatched_endpoint_gives_empty_slice(self, case_base, hyp_meta):
        other = MetaEstimand(
            label="hypothetical",
            population=hyp_meta.population,
            treatments=hyp_meta.treatments,
            endpoint=EndpointSpec(name="some other endpoint", units="u", timepoint_weeks=40),
            summary_measure=SummaryMeasure.MEAN_DIFFERENCE,
            ie_handlings=hyp_meta.ie_handlings,
        )
        assert restrict_evidence(case_base, other, HBA1C).used == ()

    def test_provenance_partitions_input(self, case_base, hyp_meta):
        restriction = restrict_evidence(case_base, hyp_meta, HBA1C)
        seen = [c.key for c in restriction.used] + [e.contrast.key for e in restriction.excluded]
        assert sorted(seen) == sorted(c.key for c in case_base.contrasts)

    def test_idempotent(self, case_base, hyp_meta):
        once = restrict_evidence(case_base, hyp_meta, HBA1C)
        once_base = slice_base(case_base, once.used)
        twice = restrict_evidence(once_base, hyp_meta, HBA1C)
        assert twice.used == once.used
        assert slice_base(once_base, twice.used) == once_base
        assert twice.excluded == ()

    def test_slice_records_its_target_and_endpoint_key(self, case_base, hyp_meta):
        restriction = restrict_evidence(case_base, hyp_meta, "  Change from Baseline in  HbA1c ")
        assert restriction.meta is hyp_meta
        assert restriction.endpoint == HBA1C

    def test_output_is_subset(self, case_base, hyp_meta):
        restriction = restrict_evidence(case_base, hyp_meta, HBA1C)
        assert set(restriction.used) <= set(case_base.contrasts)


class TestFeasibility:
    def test_case_study_feasible_with_warnings(self, case_base, hyp_meta):
        report = feasibility_report(case_base, hyp_meta, HBA1C)
        assert report.verdict is FeasibilityVerdict.FEASIBLE_WITH_WARNINGS
        codes = {r.code for r in report.reasons}
        assert "timepoint_spread" in codes
        assert "extra_event" in codes
        assert report.network is not None and len(report.network.nodes) == 5

    def test_missing_anchor_trial_infeasible(self, no_sustain7):
        for strategy in (HYP, TP):
            meta = synthesize_meta(no_sustain7, HBA1C, strategy)
            report = feasibility_report(no_sustain7, meta, HBA1C)
            assert report.verdict is FeasibilityVerdict.INFEASIBLE
            assert any(r.code == "disconnected" for r in report.reasons)

    def test_empty_restriction_infeasible(self, case_base, hyp_meta):
        report = feasibility_report(case_base, hyp_meta, "some other endpoint")
        assert report.verdict is FeasibilityVerdict.INFEASIBLE
        assert any(r.code == "no_evidence" for r in report.reasons)

    def test_alignment_rows_cover_both_labels(self, case_base, hyp_meta):
        report = feasibility_report(case_base, hyp_meta, HBA1C)
        assert len(report.restriction.verdicts) == 6
        compatible = [f"{tid}: {est.label}" for (tid, _), (est, v) in report.restriction.verdicts.items()
                      if v.compatible]
        assert sorted(compatible) == [
            "AWARD-11: efficacy",
            "SUSTAIN 7: de-jure",
            "SUSTAIN FORTE: hypothetical",
        ]

    def test_each_trial_estimand_judged_once(self, case_base, hyp_meta, monkeypatch):
        calls = []
        original = estimands.matches_meta

        def counted(estimand, meta):
            calls.append(estimand)
            return original(estimand, meta)

        for module in (estimands, pipeline):
            monkeypatch.setattr(module, "matches_meta", counted)
        report = feasibility_report(case_base, hyp_meta, HBA1C)
        assert len(calls) == len({id(e) for e in calls}) == 6
        assert len(report.restriction.verdicts) == 6


@pytest.fixture(scope="module")
def varied_base() -> EvidenceBase:
    """conftest.large_connected_base (40 treatments, 300 trials) whose estimands declare
    one of 2 populations x 3 timepoints x (with or without an extra treatment-policy
    event): 12 distinct declarations."""
    base = large_connected_base(np.random.default_rng(9), n_nodes=40, n_trials=300)
    trials = {}
    for i, (trial_id, record) in enumerate(base.trials.items()):
        ((key, est),) = record.estimands.items()
        extra = (estimands.IntercurrentEventHandling("rescue medication", TP),) if i % 5 == 0 else ()
        est = dataclasses.replace(
            est,
            population=("adults", "elderly")[i % 2],
            endpoint=dataclasses.replace(est.endpoint, timepoint_weeks=(12, 14, 16)[i % 3]),
            ie_handlings=est.ie_handlings + extra,
        )
        trials[trial_id] = dataclasses.replace(record, estimands={key: est})
    return dataclasses.replace(base, trials=trials)


def plan_meta(base, template: MetaEstimand, mode: str, tolerance: int, treatments) -> MetaEstimand:
    """A full plan definition read through load_config: the template's attributes
    with the given treatments, tolerance and matching mode."""
    record = {
        "label": "plan",
        "population": template.population,
        "treatments": sorted(treatments),
        "endpoint_name": template.endpoint.name,
        "units": template.endpoint.units,
        "timepoint_weeks": template.endpoint.timepoint_weeks,
        "summary_measure": template.summary_measure.value,
        "ie_handlings": [
            {"event_name": h.event_name, "strategy": h.strategy.value} for h in template.ie_handlings
        ],
        "timepoint_tolerance_weeks": tolerance,
        "matching_mode": mode,
    }
    (meta,) = load_config({"meta_estimands": [record]}, base).meta_estimands
    return meta


def unshare(monkeypatch) -> None:
    """Give every trial estimand a verdict key of its own (undone at teardown), so
    that restriction judges each one with a fresh verdict."""
    monkeypatch.setattr(pipeline, "_verdict_key", lambda est, meta: id(est))


class TestSharedVerdicts:
    """Trial estimands that declare the same thing share one verdict per restriction."""

    def test_matches_meta_called_once_per_distinct_key(self, varied_base, monkeypatch):
        meta = synthesize_meta(varied_base, "outcome", HYP)
        calls = []
        original = estimands.matches_meta

        def counted(estimand, meta):
            calls.append(estimand)
            return original(estimand, meta)

        monkeypatch.setattr(pipeline, "matches_meta", counted)
        restriction = restrict_evidence(varied_base, meta, "outcome")
        declared = [est for est, _ in restriction.verdicts.values()]
        distinct = {(e.population, e.endpoint.timepoint_weeks, len(e.ie_handlings)) for e in declared}
        assert len(declared) == 300
        assert len(calls) == len(distinct) == 12
        assert len({id(v) for _, v in restriction.verdicts.values()}) == 12

    @pytest.mark.parametrize("which", ["case", "large"])
    @pytest.mark.parametrize("mode", ["lenient", "strict"])
    @pytest.mark.parametrize("tolerance", [0, 4])
    @pytest.mark.parametrize("scope", ["all", "fewer"])
    def test_shared_verdicts_equal_fresh_ones(self, request, monkeypatch, which, mode, tolerance, scope):
        base, endpoint = (
            (request.getfixturevalue("case_base"), HBA1C) if which == "case"
            else (request.getfixturevalue("varied_base"), "outcome")
        )
        template = synthesize_meta(base, endpoint, HYP)
        treatments = sorted(template.treatments)
        meta = plan_meta(base, template, mode, tolerance, treatments if scope == "all" else treatments[:3])

        restriction = restrict_evidence(base, meta, endpoint)
        for est, verdict in restriction.verdicts.values():
            assert verdict == matches_meta(est, meta)
        shared = pipeline.feasibility_to_dict(feasibility_report(base, meta, endpoint))

        unshare(monkeypatch)
        fresh = feasibility_report(base, meta, endpoint)
        assert len({id(v) for _, v in fresh.restriction.verdicts.values()}) == len(restriction.verdicts)
        assert pipeline.feasibility_to_dict(fresh) == shared
        if scope == "fewer":  # each trial's out-of-scope warning names its own treatments
            cells = [row["attributes"]["treatments"] for row in shared["alignment"]["rows"]]
            assert len({c["detail"] for c in cells if c["status"] == "warn"}) > 1

    def test_spellings_of_one_endpoint_keep_their_own_verdicts(self, varied_base):
        """Estimands of one endpoint key whose name or units are written differently
        do not share a verdict: its messages quote what each trial declared."""
        trials = {}
        for i, (trial_id, record) in enumerate(varied_base.trials.items()):
            ((key, est),) = record.estimands.items()
            endpoint = dataclasses.replace(
                est.endpoint,
                name=("outcome", "Outcome")[i % 7 == 0],
                units=(est.endpoint.units, "mmol/mol")[i % 11 == 0],
            )
            est = dataclasses.replace(est, endpoint=endpoint)
            trials[trial_id] = dataclasses.replace(record, estimands={key: est})
        base = dataclasses.replace(varied_base, trials=trials)
        meta = synthesize_meta(base, "outcome", HYP)
        restriction = restrict_evidence(base, meta, "outcome")
        for est, verdict in restriction.verdicts.values():
            assert verdict == matches_meta(est, meta)
        quoted = {b for _, v in restriction.verdicts.values() for b in v.blockers}
        target = f"{meta.endpoint.name!r} [{meta.endpoint.units}]"
        assert quoted == {f"endpoint {name!r} [mmol/mol] vs {target}" for name in ("outcome", "Outcome")}

    def test_verdict_attributes_are_read_only(self, varied_base):
        meta = synthesize_meta(varied_base, "outcome", HYP)
        restriction = restrict_evidence(varied_base, meta, "outcome")
        _, verdict = next(iter(restriction.verdicts.values()))
        with pytest.raises(TypeError):
            verdict.attributes["population"] = estimands.AttributeCheck("fail", "edited")
        assert verdict.attributes["population"].status != "fail"


class TestRunAnalysis:
    def test_single_trial_identity(self):
        base = synthetic_base([("T1", ["A", "B"], [0.02, 0.03], [1.5])])
        meta = synthesize_meta(base, "outcome", HYP)
        result = run_analysis(base, meta, "outcome")
        pooled = comparison(result, "B", "A")
        (only,) = base.contrasts
        assert pooled.md == pytest.approx(only.md, abs=1e-12)
        assert pooled.se == pytest.approx(only.se, rel=1e-12)

    def test_restriction_is_noop_when_everything_matches(self, case_base, hyp_meta):
        restriction = restrict_evidence(case_base, hyp_meta, HBA1C)
        full = run_analysis(case_base, hyp_meta, HBA1C)
        sliced = run_analysis(slice_base(case_base, restriction.used), hyp_meta, HBA1C)
        for key, c in full.comparisons.items():
            assert sliced.comparisons[key].md == pytest.approx(c.md, abs=1e-14)
            assert sliced.comparisons[key].se == pytest.approx(c.se, abs=1e-14)

    def test_infeasible_raises_without_force(self, no_sustain7):
        meta = synthesize_meta(no_sustain7, HBA1C, HYP)
        with pytest.raises(InfeasibleAnalysisError, match="disconnected"):
            run_analysis(no_sustain7, meta, HBA1C)

    def test_force_cannot_rescue_disconnection(self, no_sustain7):
        meta = synthesize_meta(no_sustain7, HBA1C, HYP)
        with pytest.raises(InfeasibleAnalysisError):
            run_analysis(no_sustain7, meta, HBA1C, force=True)

    def test_force_downgrades_missing_arm_data(self, case_base, hyp_meta):
        stripped = dataclasses.replace(
            case_base,
            arm_summaries=tuple(a for a in case_base.arm_summaries if a.trial_id != "AWARD-11"),
        )
        with pytest.raises(InfeasibleAnalysisError, match="shared-arm variance"):
            run_analysis(stripped, hyp_meta, HBA1C)
        forced = run_analysis(stripped, hyp_meta, HBA1C, force=True)
        assert any("independence fallback" in note for note in forced.notes)
        strict = run_analysis(case_base, hyp_meta, HBA1C)
        pair = (SEMA_2, DULA_30)
        assert forced.comparisons[pair].md == pytest.approx(strict.comparisons[pair].md, abs=1e-12)

    def test_provenance_attached(self, case_base, hyp_meta):
        result = run_analysis(case_base, hyp_meta, HBA1C)
        assert result.provenance is not None
        assert len(result.provenance.used) == 4
        assert len(result.provenance.excluded) == 12
        assert result.provenance.meta.label == "hypothetical"

    def test_provenance_is_the_feasibility_restriction(self, case_base, hyp_meta):
        result = run_analysis(case_base, hyp_meta, "Change from baseline in HbA1c")
        assert result.provenance == feasibility_report(case_base, hyp_meta, HBA1C).restriction
        assert result.provenance.meta is hyp_meta
        assert result.provenance.endpoint == HBA1C

    def test_no_evidence_base_built_per_slice(self, case_base, hyp_meta, monkeypatch):
        stripped = dataclasses.replace(
            case_base,
            arm_summaries=tuple(a for a in case_base.arm_summaries if a.trial_id != "AWARD-11"),
        )
        calls = []
        original = EvidenceBase.__post_init__

        def counted(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(EvidenceBase, "__post_init__", counted)
        feasibility_report(case_base, hyp_meta, HBA1C)
        run_analysis(case_base, hyp_meta, HBA1C)
        run_analysis(stripped, hyp_meta, HBA1C, force=True)  # the independence fallback's blocks
        assert len(calls) == 0

    def test_no_rank_check_on_the_analysis_path(self, case_base, hyp_meta, monkeypatch):
        calls = []
        original = network.laplacian_connected

        def counted(net):
            calls.append(net)
            return original(net)

        monkeypatch.setattr(network, "laplacian_connected", counted)
        feasibility_report(case_base, hyp_meta, HBA1C)
        run_analysis(case_base, hyp_meta, HBA1C)
        assert len(calls) == 0

    def test_covariance_blocks_built_once_per_slice(self, case_base, hyp_meta, monkeypatch):
        calls = []
        original = engine.trial_covariance

        def counted(contrasts, arm_variances=None):
            calls.append(contrasts[0].trial_id)
            return original(contrasts, arm_variances)

        monkeypatch.setattr(engine, "trial_covariance", counted)
        result = run_analysis(case_base, hyp_meta, HBA1C)
        assert sorted(calls) == sorted({c.trial_id for c in result.provenance.used})
        assert len(calls) == 3

    def test_force_still_refuses_a_built_singular_block(self):
        base = triangle_base([0.25, 0.5, 1.0])
        meta = synthesize_meta(base, "outcome", HYP)
        report = feasibility_report(base, meta, "outcome")
        assert [r.code for r in report.reasons] == ["covariance_unidentifiable"]
        with pytest.raises(InfeasibleAnalysisError, match="linearly dependent"):
            run_analysis(base, meta, "outcome", force=True)

    def test_reference_override(self, case_base, hyp_meta):
        result = run_analysis(case_base, hyp_meta, HBA1C, reference=SEMA_2)
        assert result.reference == SEMA_2


def slice_base(base: EvidenceBase, used) -> EvidenceBase:
    """The evidence base of a slice: its used contrasts, their trials, and the arm
    rows of their (trial, estimand, endpoint) groups."""
    trials = {c.trial_id for c in used}
    groups = {(c.trial_id, c.label_key, c.endpoint) for c in used}
    return EvidenceBase(
        trials={tid: rec for tid, rec in base.trials.items() if tid in trials},
        contrasts=tuple(used),
        arm_summaries=tuple(a for a in base.arm_summaries if (a.trial_id, a.label_key, a.endpoint) in groups),
    )


def triangle_base(variances) -> EvidenceBase:
    """One three-arm trial reporting B-A, C-A and C-B: linearly dependent contrasts,
    so the block built from the arm variances is singular."""
    base = synthetic_base([("T1", ["A", "B", "C"], list(variances), [1.0, 0.5])])
    third = ContrastEstimate(
        trial_id="T1", treatment="C", comparator="B", endpoint="outcome", estimand_label="primary",
        md=-0.5, se=math.sqrt(variances[1] + variances[2]), source=UncertaintySource.FROM_ARMS,
    )
    return dataclasses.replace(base, contrasts=base.contrasts + (third,))


def verdict_of(base: EvidenceBase) -> tuple[FeasibilityVerdict, list[str]]:
    report = feasibility_report(base, synthesize_meta(base, "outcome", HYP), "outcome")
    return report.verdict, [r.code for r in report.reasons]


class TestIdentifiability:
    """A trial's contrasts are linearly independent exactly when they form a forest over its arms."""

    @pytest.mark.parametrize("variances", [(0.25, 0.5, 1.0), (0.1, 0.2, 0.3), (0.01, 0.02, 0.03)])
    def test_dependent_contrasts_unidentifiable(self, variances):
        # rounding leaves the smallest eigenvalue of the 0.01/0.02/0.03 block positive
        base = triangle_base(variances)
        assert verdict_of(base) == (FeasibilityVerdict.INFEASIBLE, ["covariance_unidentifiable"])
        with pytest.raises(InfeasibleAnalysisError, match="linearly dependent"):
            run_analysis(base, synthesize_meta(base, "outcome", HYP), "outcome")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(1e-6, 1e6), min_size=3, max_size=3))
    def test_dependent_contrasts_unidentifiable_for_any_variances(self, variances):
        assert verdict_of(triangle_base(variances)) == (
            FeasibilityVerdict.INFEASIBLE, ["covariance_unidentifiable"]
        )

    def test_numerically_singular_star_stays_unidentifiable(self):
        # B-A and C-A are independent, but 1e20 + 1 rounds to 1e20: the eigenvalue guard refuses it
        base = synthetic_base([("T1", ["A", "B", "C"], [1e20, 1e-20, 1.0], [1.0, 0.5])])
        assert verdict_of(base) == (FeasibilityVerdict.INFEASIBLE, ["covariance_unidentifiable"])

    def test_contrasts_under_several_estimands_unidentifiable(self):
        base = parse_evidence_text(TWO_ESTIMANDS_CSV)
        report = feasibility_report(base, synthesize_meta(base, "outcome", HYP), "outcome")
        assert report.verdict is FeasibilityVerdict.INFEASIBLE
        (reason,) = report.reasons
        assert reason.code == "covariance_unidentifiable"
        assert reason.message == (
            "trial 'T1' contributes contrasts under several estimands: ['primary', 'secondary']"
        )

    def test_forced_fallback_names_the_cycle_after_a_trial_without_arm_rows(self):
        # T0 fails first for want of arm rows; the fallback mends it, then T1 closes a cycle
        no_arms = synthetic_base([("T0", ["A", "B", "C"], [0.3, 0.4, 0.5], [0.2, 0.1])])
        triangle = triangle_base([0.25, 0.5, 1.0])
        base = EvidenceBase(
            trials={**no_arms.trials, **triangle.trials},
            contrasts=no_arms.contrasts + triangle.contrasts,
            arm_summaries=triangle.arm_summaries,
        )
        meta = synthesize_meta(base, "outcome", HYP)
        (reason,) = feasibility_report(base, meta, "outcome").reasons
        assert "trial 'T0' lacks an arm summary" in reason.message
        with pytest.raises(InfeasibleAnalysisError, match="linearly dependent") as raised:
            run_analysis(base, meta, "outcome", force=True)
        assert [r.code for r in raised.value.report.reasons] == ["covariance_unidentifiable"] * 2


class TestOneNumericVerdict:
    """Connectivity is decided by traversal; the solve alone judges the weights."""

    def test_wide_weight_networks_are_solved_or_refused_by_the_solve(self):
        rng = np.random.default_rng(20261018)
        outcomes = Counter()
        for _ in range(400):
            nodes = [f"T{i}" for i in range(int(rng.integers(2, 9)))]
            pairs = [nodes[i : i + 2] for i in range(len(nodes) - 1)]  # spanning chain
            pairs += [list(rng.choice(nodes, size=2, replace=False)) for _ in range(rng.integers(0, len(nodes)))]
            ses = 10.0 ** rng.uniform(-75.0, 75.0, size=len(pairs))  # log-uniform, all admissible
            base = synthetic_base(
                [(f"trial-{j}", arms, [se**2 / 2] * 2, [float(rng.normal())])
                 for j, (arms, se) in enumerate(zip(pairs, ses))]
            )
            meta = synthesize_meta(base, "outcome", HYP)
            report = feasibility_report(base, meta, "outcome")  # never raises on the weights
            assert "disconnected" not in [r.code for r in report.reasons]
            try:
                run_analysis(base, meta, "outcome")
            except engine.NumericalError:
                outcomes["refused"] += 1
            else:  # the rank check refuses nothing that the solve would solve
                outcomes["solved"] += 1
                assert network.laplacian_connected(report.network)
        assert outcomes["solved"] > 0 and outcomes["refused"] > 0


@pytest.fixture(scope="module")
def weight_results(case_base):
    out = {}
    for strategy, label in ((HYP, "hypothetical"), (TP, "treatment_policy")):
        meta = synthesize_meta(case_base, WEIGHT, strategy, label=label)
        out[label] = run_analysis(case_base, meta, WEIGHT)
    return out


class TestOrderInvariance:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_run_analysis_ignores_input_order(self, seed, data):
        base = random_connected_base(np.random.default_rng(seed))
        shuffled = EvidenceBase(
            trials=dict(data.draw(st.permutations(list(base.trials.items())))),
            contrasts=tuple(data.draw(st.permutations(base.contrasts))),
            arm_summaries=tuple(data.draw(st.permutations(base.arm_summaries))),
        )
        meta = synthesize_meta(base, "outcome", HYP)
        plain, other = (run_analysis(b, meta, "outcome") for b in (base, shuffled))
        assert np.array_equal(plain.estimates, other.estimates)
        assert np.array_equal(plain.covariance, other.covariance)
        assert list(plain.comparisons.items()) == list(other.comparisons.items())


class TestCompareStrategies:
    def test_attenuation_on_body_weight(self, case_base, weight_results):
        table = compare_strategies(weight_results, WEIGHT)
        assert table.attenuated_label == "treatment_policy"
        rows = {(r.treatment, r.comparator): r for r in table.rows}
        assert rows[(SEMA_2, DULA_30)].attenuation
        assert rows[(SEMA_2, DULA_45)].attenuation

    def test_attenuation_on_hba1c(self, case_base):
        results = {}
        for strategy, label in ((HYP, "hypothetical"), (TP, "treatment_policy")):
            meta = synthesize_meta(case_base, HBA1C, strategy, label=label)
            results[label] = run_analysis(case_base, meta, HBA1C)
        rows = {(r.treatment, r.comparator): r for r in compare_strategies(results, HBA1C).rows}
        assert rows[(SEMA_2, DULA_30)].attenuation
        assert rows[(SEMA_2, DULA_45)].attenuation

    def test_identical_results_never_attenuate(self, weight_results):
        same = {"a": weight_results["hypothetical"], "b": weight_results["hypothetical"]}
        table = compare_strategies(same, WEIGHT)
        assert all(not row.attenuation for row in table.rows)

    def test_policy_label_detected_regardless_of_order(self, weight_results):
        reordered = {
            "treatment_policy": weight_results["treatment_policy"],
            "hypothetical": weight_results["hypothetical"],
        }
        table = compare_strategies(reordered, WEIGHT)
        assert table.attenuated_label == "treatment_policy"
        rows = {(r.treatment, r.comparator): r for r in table.rows}
        assert rows[(SEMA_2, DULA_30)].attenuation

    def test_rows_match_across_spellings(self):
        hyp_base = synthetic_base(
            [
                ("T1", ["Drug A", "Drug B"], [0.02, 0.03], [1.5]),
                ("T2", ["Drug B", "Drug C"], [0.02, 0.04], [-0.5]),
            ]
        )
        tp_base = synthetic_base(
            [
                ("T1", ["drug a", "DRUG   B"], [0.02, 0.03], [1.2]),
                ("T2", ["DRUG   B", "Drug  c"], [0.02, 0.04], [-0.7]),
            ]
        )
        results = {
            label: run_analysis(base, synthesize_meta(base, "outcome", HYP), "outcome")
            for label, base in (("hypothetical", hyp_base), ("treatment_policy", tp_base))
        }
        assert results["hypothetical"].treatments != results["treatment_policy"].treatments
        table = compare_strategies(results, "outcome")
        names = results["hypothetical"].treatments
        assert [(r.treatment, r.comparator) for r in table.rows] == [
            (a, b) for a in names for b in names if a != b
        ]
        for row in table.rows:
            for label, result in results.items():
                assert row.by_label[label] == comparison(result, row.treatment, row.comparator)
            hyp, tp = row.by_label["hypothetical"], row.by_label["treatment_policy"]
            assert row.attenuation == (abs(tp.md) < abs(hyp.md))

    def test_mismatched_treatment_sets_rejected(self, weight_results):
        base = synthetic_base([("T1", ["A", "B"], [0.02, 0.03], [1.5])])
        meta = synthesize_meta(base, "outcome", HYP)
        alien = run_analysis(base, meta, "outcome")
        with pytest.raises(ValueError, match="different treatment sets"):
            compare_strategies({"a": weight_results["hypothetical"], "b": alien}, WEIGHT)

    def test_single_result_rejected(self, weight_results):
        with pytest.raises(ValueError, match="at least two"):
            compare_strategies({"a": weight_results["hypothetical"]}, WEIGHT)


class TestConfig:
    def test_shorthand_definitions(self, case_base):
        config = load_config(
            {
                "meta_estimands": [
                    {"label": "hypothetical", "strategy": "hypothetical"},
                    {"label": "treatment_policy", "strategy": "treatment_policy"},
                ],
                "endpoints": [HBA1C, WEIGHT],
                "ci_level": 0.9,
            },
            case_base,
        )
        assert len(config.meta_estimands) == 4
        assert config.ci_level == 0.9
        meta = config.meta_for("hypothetical", HBA1C)
        assert meta is not None and meta.endpoint.key == HBA1C

    def test_full_definition(self, case_base):
        config = load_config(
            {
                "meta_estimands": [
                    {
                        "label": "custom",
                        "population": "adults",
                        "treatments": ["semaglutide 2.0 mg QW", "dulaglutide 3.0 mg QW"],
                        "endpoint_name": "change from baseline in HbA1c",
                        "units": "%-points",
                        "timepoint_weeks": 40,
                        "summary_measure": "mean_difference",
                        "ie_handlings": [
                            {
                                "event_name": "initiation of anti-diabetic rescue medication",
                                "strategy": "hypothetical",
                            },
                            {
                                "event_name": "premature treatment discontinuation",
                                "strategy": "hypothetical",
                            },
                        ],
                        "timepoint_tolerance_weeks": 0,
                        "matching_mode": "strict",
                    }
                ],
                "endpoints": [HBA1C],
            },
            case_base,
        )
        meta = config.meta_for("custom", HBA1C)
        assert meta.timepoint_tolerance_weeks == 0
        assert meta.matching_mode is MatchingMode.STRICT

    def test_full_definition_reads_as_the_evidence_estimand(self, case_base):
        # each case-study estimand record, plus its trial's arms, read back as a plan definition
        records = evidence_to_dict(case_base)["estimands"]
        for record in records:
            trial = case_base.trials[record["trial_id"]]
            config = load_config(
                {"meta_estimands": [{**record, "treatments": list(trial.arms)}]}, case_base
            )
            (meta,) = config.meta_estimands
            est = trial.estimand_for(record["label"], record["endpoint_name"])
            assert (meta.label, meta.population, meta.endpoint) == (est.label, est.population, est.endpoint)
            assert (meta.summary_measure, meta.ie_handlings) == (est.summary_measure, est.ie_handlings)
            assert meta.treatments == est.treatments
        assert len(records) == 12

    @pytest.mark.parametrize("missing", ["population", "summary_measure"])
    def test_full_definition_needs_every_attribute(self, case_base, missing):
        record = {**evidence_to_dict(case_base)["estimands"][0], "treatments": ["a", "b"]}
        del record[missing]
        with pytest.raises(EvidenceFormatError, match=rf"meta_estimands\[0\]: missing field '{missing}'"):
            load_config({"meta_estimands": [record]}, case_base)

    def test_shorthand_with_handlings_rejected(self, case_base):
        doc = {"meta_estimands": [{"strategy": "hypothetical", "ie_handlings": []}]}
        with pytest.raises(EvidenceFormatError, match=r"meta_estimands\[0\]: .*both 'strategy'"):
            load_config(doc, case_base)

    def test_resolve_meta_prefers_config(self, case_base):
        config = load_config(
            {"meta_estimands": [{"label": "hypothetical", "strategy": "hypothetical",
                                 "timepoint_tolerance_weeks": 9}]},
            case_base,
        )
        meta = resolve_meta(case_base, HBA1C, "hypothetical", config=config)
        assert meta.timepoint_tolerance_weeks == 9

    def test_resolve_meta_policy_given_overrides_the_record(self, case_base):
        config = load_config(
            {"meta_estimands": [{"label": "hypothetical", "strategy": "hypothetical",
                                 "timepoint_tolerance_weeks": 9}]},
            case_base,
        )
        meta = resolve_meta(case_base, HBA1C, "hypothetical", config=config, mode=MatchingMode.STRICT)
        assert (meta.timepoint_tolerance_weeks, meta.matching_mode) == (9, MatchingMode.STRICT)
        assert meta == resolve_meta(case_base, HBA1C, "hypothetical", tolerance_weeks=9, mode=MatchingMode.STRICT)

    def test_resolve_meta_unknown_label(self, case_base):
        with pytest.raises(ValueError, match="unknown meta-estimand"):
            resolve_meta(case_base, HBA1C, "nonexistent")

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError, match="no meta-estimands"):
            AnalysisConfig(meta_estimands=(), endpoints=(HBA1C,))


class TestStructuredReports:
    def test_feasibility_to_dict(self, case_base, hyp_meta):
        from estimeta.pipeline import feasibility_to_dict

        payload = feasibility_to_dict(feasibility_report(case_base, hyp_meta, HBA1C))
        assert payload["verdict"] == "feasible_with_warnings"
        assert {r["code"] for r in payload["reasons"]} >= {"timepoint_spread", "extra_event"}
        assert len(payload["alignment"]["rows"]) == 6
        assert len(payload["used"]) == 4
        assert len(payload["excluded"]) == 12
        assert json.dumps(payload)  # JSON-serializable end to end

    def test_strategy_comparison_to_dict(self, weight_results):
        from estimeta.pipeline import strategy_comparison_to_dict

        payload = strategy_comparison_to_dict(compare_strategies(weight_results, WEIGHT))
        assert payload["attenuated_label"] == "treatment_policy"
        row = next(
            r for r in payload["rows"]
            if r["treatment"] == SEMA_2 and r["comparator"] == DULA_30
        )
        assert row["attenuation"] is True
        assert row["hypothetical"]["md"] == pytest.approx(-3.31, abs=0.03)
