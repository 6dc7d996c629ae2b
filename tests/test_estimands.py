"""Estimand comparison and meta-matching behaviour."""

from __future__ import annotations

import dataclasses
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HBA1C, WEIGHT
from estimeta.estimands import (
    EndpointSpec,
    Estimand,
    IntercurrentEventHandling,
    IntercurrentEventStrategy,
    MatchingMode,
    MetaEstimand,
    SummaryMeasure,
    Verdict,
    canonical,
    compare_estimands,
    heterogeneity_matrix,
    matches_meta,
    normalize_id,
)

HYP = IntercurrentEventStrategy.HYPOTHETICAL
TP = IntercurrentEventStrategy.TREATMENT_POLICY
RESCUE = "initiation of anti-diabetic rescue medication"
DISCONT = "premature treatment discontinuation"
DOSE = "change in treatment dose"


def hba1c_endpoint(weeks: int = 40) -> EndpointSpec:
    return EndpointSpec(name="change from baseline in HbA1c", units="%-points", timepoint_weeks=weeks)


def trial_estimand(label, strategy, weeks=40, extra=(), population="adults with T2D"):
    handlings = [IntercurrentEventHandling(RESCUE, strategy), IntercurrentEventHandling(DISCONT, strategy)]
    handlings += [IntercurrentEventHandling(name, s) for name, s in extra]
    return Estimand(
        label=label,
        population=population,
        treatments=frozenset({"drug X 1 mg", "drug Y 2 mg"}),
        endpoint=hba1c_endpoint(weeks),
        summary_measure=SummaryMeasure.MEAN_DIFFERENCE,
        ie_handlings=tuple(handlings),
    )


def hypothetical_meta(tolerance=4, mode=MatchingMode.LENIENT):
    return MetaEstimand(
        label="hypothetical",
        population="adults with T2D",
        treatments=frozenset({"drug X 1 mg", "drug Y 2 mg"}),
        endpoint=hba1c_endpoint(40),
        summary_measure=SummaryMeasure.MEAN_DIFFERENCE,
        ie_handlings=(
            IntercurrentEventHandling(RESCUE, HYP),
            IntercurrentEventHandling(DISCONT, HYP),
        ),
        timepoint_tolerance_weeks=tolerance,
        matching_mode=mode,
    )


class TestStrategyParsing:
    def test_five_variants(self):
        assert len(IntercurrentEventStrategy) == 5

    @pytest.mark.parametrize(
        "token,expected",
        [
            ("treatment_policy", TP),
            ("Treatment Policy", TP),
            ("hypothetical", HYP),
            ("while-on-treatment", IntercurrentEventStrategy.WHILE_ON_TREATMENT),
            ("principal_stratum", IntercurrentEventStrategy.PRINCIPAL_STRATUM),
            ("composite", IntercurrentEventStrategy.COMPOSITE),
        ],
    )
    def test_parse(self, token, expected):
        assert IntercurrentEventStrategy.parse(token) is expected

    def test_unknown_token(self):
        with pytest.raises(ValueError, match="unknown intercurrent-event strategy"):
            IntercurrentEventStrategy.parse("imaginary")

    @pytest.mark.parametrize(
        "cls, token, member",
        [
            (IntercurrentEventStrategy, "While On_Treatment", IntercurrentEventStrategy.WHILE_ON_TREATMENT),
            (SummaryMeasure, " Mean-Difference ", SummaryMeasure.MEAN_DIFFERENCE),
            (MatchingMode, "LENIENT", MatchingMode.LENIENT),
        ],
    )
    def test_one_grammar_for_every_enum(self, cls, token, member):
        assert cls.parse(token) is member
        known = ", ".join(m.value for m in cls)
        with pytest.raises(ValueError, match=rf"^unknown .* {token + 'x'!r} \(known: {known}\)$"):
            cls.parse(token + "x")


class TestCompareEstimands:
    def test_extra_event_detected(self, case_base):
        dejure = case_base.trials["SUSTAIN 7"].estimand_for("de-jure", HBA1C)
        forte = case_base.trials["SUSTAIN FORTE"].estimand_for("hypothetical", HBA1C)
        diff = compare_estimands(dejure, forte)
        assert diff.endpoint is Verdict.IDENTICAL
        assert diff.event_diff.only_in_b == (DOSE,)
        assert diff.event_diff.only_in_a == ()
        assert diff.event_diff.strategy_conflicts == ()

    def test_timepoint_divergence(self, case_base):
        efficacy = case_base.trials["AWARD-11"].estimand_for("efficacy", HBA1C)
        dejure = case_base.trials["SUSTAIN 7"].estimand_for("de-jure", HBA1C)
        diff = compare_estimands(efficacy, dejure)
        assert diff.endpoint is Verdict.OVERLAPPING
        assert any("36" in note and "40" in note for note in diff.notes)

    def test_reflexive(self, case_base):
        est = case_base.trials["AWARD-11"].estimand_for("efficacy", WEIGHT)
        diff = compare_estimands(est, est)
        assert diff.identical
        assert diff.event_diff.empty
        assert diff.notes == ()

    def test_strategy_conflict_reported(self):
        diff = compare_estimands(trial_estimand("a", HYP), trial_estimand("b", TP))
        assert diff.intercurrent_events is Verdict.DISJOINT
        assert len(diff.event_diff.strategy_conflicts) == 2

    def test_disjoint_treatments(self):
        other = dataclasses.replace(trial_estimand("b", HYP), treatments=frozenset({"drug Z 3 mg", "placebo"}))
        diff = compare_estimands(trial_estimand("a", HYP), other)
        assert diff.treatments is Verdict.DISJOINT
        assert (diff.population, diff.endpoint, diff.intercurrent_events) == (Verdict.IDENTICAL,) * 3


class TestMatchesMeta:
    def test_extra_event_warns_under_lenient(self):
        forte_like = trial_estimand("hypothetical", HYP, extra=[(DOSE, TP)])
        verdict = matches_meta(forte_like, hypothetical_meta())
        assert verdict.compatible
        assert any("extra event: change in treatment dose" in w for w in verdict.warnings)

    def test_extra_foreign_strategy_blocks_under_strict(self):
        forte_like = trial_estimand("hypothetical", HYP, extra=[(DOSE, TP)])
        verdict = matches_meta(forte_like, hypothetical_meta(mode=MatchingMode.STRICT))
        assert not verdict.compatible

    def test_strategy_mismatch_blocks(self):
        defacto_like = trial_estimand("de-facto", TP)
        verdict = matches_meta(defacto_like, hypothetical_meta())
        assert not verdict.compatible
        assert sum("strategy mismatch" in b for b in verdict.blockers) == 2

    def test_timepoint_outside_tolerance_blocks(self):
        award_like = trial_estimand("efficacy", HYP, weeks=36)
        verdict = matches_meta(award_like, hypothetical_meta(tolerance=0))
        assert not verdict.compatible
        assert any("timepoint 36 vs 40" in b for b in verdict.blockers)
        assert matches_meta(award_like, hypothetical_meta(tolerance=4)).compatible

    def test_meta_event_missing_blocks(self):
        sparse = trial_estimand("x", HYP)
        meta = hypothetical_meta()
        extended = MetaEstimand(
            label=meta.label,
            population=meta.population,
            treatments=meta.treatments,
            endpoint=meta.endpoint,
            summary_measure=meta.summary_measure,
            ie_handlings=meta.ie_handlings + (IntercurrentEventHandling("death", HYP),),
            timepoint_tolerance_weeks=meta.timepoint_tolerance_weeks,
            matching_mode=meta.matching_mode,
        )
        verdict = matches_meta(sparse, extended)
        assert not verdict.compatible
        assert any("event not declared: death" in b for b in verdict.blockers)

    def test_population_and_treatments_never_block(self):
        oddball = trial_estimand("x", HYP, population="entirely different people")
        verdict = matches_meta(oddball, hypothetical_meta())
        assert verdict.compatible
        assert any("population differs" in w for w in verdict.warnings)


class TestHeterogeneityMatrix:
    def test_all_hypothetical_rows_feasible(self, case_base):
        rows = [
            case_base.trials["SUSTAIN 7"].estimand_for("de-jure", HBA1C),
            case_base.trials["SUSTAIN FORTE"].estimand_for("hypothetical", HBA1C),
            case_base.trials["AWARD-11"].estimand_for("efficacy", HBA1C),
        ]
        meta = hypothetical_meta()
        report = heterogeneity_matrix(rows, meta)
        assert report.feasible
        assert len(report.rows) == 3

    def test_mixed_strategies_infeasible(self, case_base):
        rows = [
            case_base.trials["SUSTAIN 7"].estimand_for("de-jure", HBA1C),
            case_base.trials["SUSTAIN 7"].estimand_for("de-facto", HBA1C),
        ]
        assert not heterogeneity_matrix(rows, hypothetical_meta()).feasible

    def test_endpoint_mismatch_fails_every_row(self, case_base):
        rows = [
            case_base.trials["SUSTAIN 7"].estimand_for("de-jure", WEIGHT),
            case_base.trials["AWARD-11"].estimand_for("efficacy", WEIGHT),
        ]
        report = heterogeneity_matrix(rows, hypothetical_meta())
        assert all(not row.verdict.compatible for row in report.rows)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            heterogeneity_matrix([], hypothetical_meta())


# --- properties ----------------------------------------------------------------

event_names = st.text(alphabet="abcdefgh ", min_size=1, max_size=12).map(canonical).filter(bool)
strategies = st.sampled_from(list(IntercurrentEventStrategy))


@st.composite
def estimands(draw, weeks=st.integers(min_value=1, max_value=60)):
    events = draw(st.dictionaries(event_names, strategies, min_size=0, max_size=4))
    return Estimand(
        label=draw(st.sampled_from(["primary", "supplementary", "sensitivity"])),
        population=draw(st.sampled_from(["adults", "adults with T2D", "elderly"])),
        treatments=frozenset(draw(st.sets(st.sampled_from("ABCDE"), min_size=2, max_size=4))),
        endpoint=EndpointSpec(
            name=draw(st.sampled_from(["outcome one", "outcome two"])),
            units=draw(st.sampled_from(["kg", "%"])),
            timepoint_weeks=draw(weeks),
        ),
        summary_measure=SummaryMeasure.MEAN_DIFFERENCE,
        ie_handlings=tuple(IntercurrentEventHandling(n, s) for n, s in events.items()),
    )


@given(estimands())
def test_self_match_is_compatible(estimand):
    meta = MetaEstimand.from_estimand(estimand, tolerance_weeks=0, mode=MatchingMode.STRICT)
    verdict = matches_meta(estimand, meta)
    assert verdict.compatible
    assert verdict.warnings == ()


@given(estimands(), estimands())
def test_compare_is_symmetric(a, b):
    ab, ba = compare_estimands(a, b), compare_estimands(b, a)
    assert (ab.population, ab.treatments, ab.endpoint, ab.summary_measure) == (
        ba.population,
        ba.treatments,
        ba.endpoint,
        ba.summary_measure,
    )
    assert ab.intercurrent_events is ba.intercurrent_events
    assert ab.event_diff.only_in_a == ba.event_diff.only_in_b
    assert ab.event_diff.only_in_b == ba.event_diff.only_in_a
    assert {(n, x, y) for n, x, y in ab.event_diff.strategy_conflicts} == {
        (n, y, x) for n, x, y in ba.event_diff.strategy_conflicts
    }


@given(estimands(), estimands(), st.integers(min_value=0, max_value=8))
def test_strict_compatibility_implies_lenient(trial, template, tolerance):
    strict = MetaEstimand.from_estimand(template, tolerance_weeks=tolerance, mode=MatchingMode.STRICT)
    lenient = MetaEstimand.from_estimand(template, tolerance_weeks=tolerance, mode=MatchingMode.LENIENT)
    if matches_meta(trial, strict).compatible:
        assert matches_meta(trial, lenient).compatible


@given(estimands(), st.randoms())
def test_verdicts_ignore_case_and_whitespace(estimand, rnd):
    def mangle(name: str) -> str:
        spaced = "  " + "".join(c.upper() if rnd.random() < 0.5 else c for c in name) + " "
        return spaced

    mangled = Estimand(
        label=estimand.label,
        population=estimand.population.upper(),
        treatments=estimand.treatments,
        endpoint=estimand.endpoint,
        summary_measure=estimand.summary_measure,
        ie_handlings=tuple(
            IntercurrentEventHandling(mangle(h.event_name), h.strategy) for h in estimand.ie_handlings
        ),
    )
    meta = MetaEstimand.from_estimand(estimand, tolerance_weeks=0, mode=MatchingMode.STRICT)
    assert matches_meta(mangled, meta).compatible == matches_meta(estimand, meta).compatible
    assert compare_estimands(mangled, estimand).event_diff.empty


ATTRIBUTES = ["summary_measure", "endpoint", "intercurrent_events", "population", "treatments"]


@st.composite
def trials_and_targets(draw):
    """A trial estimand and a target meta-estimand, alike or apart in each attribute, whose
    events come from a small pool; a trial often repeats the target's events before its own."""

    def estimand(label, events):
        return Estimand(
            label=label,
            population=draw(st.sampled_from(["adults", "adults with T2D"])),
            treatments=frozenset(draw(st.sets(st.sampled_from("ABCD"), min_size=2, max_size=3))),
            endpoint=EndpointSpec(name=draw(st.sampled_from(["outcome one", "outcome two"])),
                                  units=draw(st.sampled_from(["kg", "%"])),
                                  timepoint_weeks=draw(st.integers(min_value=30, max_value=42))),
            summary_measure=SummaryMeasure.MEAN_DIFFERENCE,
            ie_handlings=tuple(IntercurrentEventHandling(n, s) for n, s in events.items()),
        )

    pool_events = st.dictionaries(st.sampled_from([RESCUE, DISCONT, DOSE, "death"]), strategies, max_size=3)
    target_events = draw(pool_events)
    trial_events = {**(target_events if draw(st.booleans()) else {}), **draw(pool_events)}
    meta = MetaEstimand.from_estimand(estimand("target", target_events),
                                      tolerance_weeks=draw(st.integers(min_value=0, max_value=8)),
                                      mode=draw(st.sampled_from(list(MatchingMode))))
    return estimand("trial", trial_events), meta


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(trials_and_targets())
def test_verdict_cells_blockers_and_warnings_agree(trial_and_target):
    verdict = matches_meta(*trial_and_target)
    cells = verdict.attributes
    assert list(cells) == ATTRIBUTES
    failed = [check.detail for check in cells.values() if check.status == "fail"]
    assert verdict.compatible == (not verdict.blockers and not failed)
    assert "; ".join(failed) == "; ".join(verdict.blockers)
    warned = "; ".join(verdict.warnings)
    for check in cells.values():
        assert check.status in ("ok", "warn", "fail")
        if check.status == "warn":
            assert check.detail and check.detail in warned
        if check.status == "ok":
            assert check.detail == ""


# --- whitespace normalization ---------------------------------------------------

_WS = re.compile(r"\s+")  # the regex form of the whitespace collapse, kept as the oracle


def test_isspace_is_the_regex_whitespace_set():
    one = re.compile(r"\s")
    differ = [i for i in range(sys.maxunicode + 1) if bool(one.fullmatch(chr(i))) != chr(i).isspace()]
    assert differ == []


spaced_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(["a", "B", "\u00c9", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c",
                         "\x85", "\u00a0", "\u200b", "\u2003", "\u3000"]),
        st.characters(),
    ),
    max_size=24,
)


@given(spaced_text)
def test_normalization_equals_the_regex_form(text):
    assert canonical(text) == _WS.sub(" ", text.strip()).lower()
    assert normalize_id(text) == _WS.sub(" ", text.strip())
