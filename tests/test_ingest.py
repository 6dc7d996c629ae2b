"""Parsing, SE back-calculation, and evidence validation."""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HBA1C, WEIGHT, quantile_bisect
from estimeta.estimands import (
    EndpointSpec,
    Estimand,
    IntercurrentEventHandling,
    IntercurrentEventStrategy,
    SummaryMeasure,
    canonical,
    normalize_id,
)
from estimeta.ingest import (
    ArmSummary,
    ContrastEstimate,
    EvidenceBase,
    EvidenceFormatError,
    TrialRecord,
    UncertaintySource,
    contrast_from_arms,
    evidence_to_dict,
    parse_evidence_text,
    se_from_ci,
    serialize_evidence,
    validate_evidence,
)
from estimeta.network import build_network, export_edge_list
from estimeta.normal import normal_quantile

MINIMAL = """\
#trials
trial_id,arms
T1,A;B
#estimands
trial_id,label,population,endpoint_name,units,timepoint_weeks,summary_measure,ie_handlings
T1,primary,adults,outcome,u,12,mean_difference,dropout:hypothetical
#contrasts
trial_id,estimand_label,endpoint_name,treatment,comparator,md,se,ci_lower,ci_upper,ci_level
T1,primary,outcome,A,B,1.0,0.5,,,
#arms
trial_id,estimand_label,endpoint_name,treatment,n,mean_change,ci_lower,ci_upper,ci_level
"""


class TestQuantile:
    def test_matches_bisection_oracle(self):
        for p in (0.5, 0.6, 0.75, 0.9, 0.95, 0.975, 0.995, 0.9995):
            assert normal_quantile(p) == pytest.approx(quantile_bisect(p), abs=1e-10)

    def test_rejects_degenerate_probabilities(self):
        for p in (0.0, 1.0, -0.2, 1.5, float("nan")):
            with pytest.raises(ValueError):
                normal_quantile(p)


class TestSeFromCi:
    def test_unit_se_interval(self):
        assert se_from_ci(-1.959964, 1.959964, 0.95) == pytest.approx(1.0, abs=1e-6)

    def test_case_study_interval(self):
        assert se_from_ci(-0.70, -0.23, 0.95) == pytest.approx(0.11990, abs=1e-5)

    def test_fifty_percent_interval(self):
        expected = 1.0 / (2.0 * quantile_bisect(0.75))
        assert se_from_ci(0.0, 1.0, 0.5) == pytest.approx(expected, abs=1e-10)
        assert se_from_ci(0.0, 1.0, 0.5) == pytest.approx(0.74130, abs=1e-5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            se_from_ci(1.0, 0.0, 0.95)
        with pytest.raises(ValueError):
            se_from_ci(0.0, float("inf"), 0.95)
        with pytest.raises(ValueError):
            se_from_ci(0.0, 1.0, 1.0)

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=1e-3, max_value=100),
        st.floats(min_value=1e-3, max_value=1000),
        st.floats(min_value=0.05, max_value=0.999),
    )
    def test_scales_linearly(self, lower, width, k, level):
        upper = lower + width
        scaled = se_from_ci(k * lower, k * upper, level)
        assert scaled == pytest.approx(k * se_from_ci(lower, upper, level), rel=1e-9)

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=1e-3, max_value=100),
        st.floats(min_value=0.05, max_value=0.99),
        st.floats(min_value=1e-4, max_value=0.009),
    )
    def test_strictly_decreasing_in_level(self, lower, width, level, bump):
        upper = lower + width
        assert se_from_ci(lower, upper, level + bump) < se_from_ci(lower, upper, level)


def make_arm(treatment, mean, half, trial="T1"):
    return ArmSummary(
        trial_id=trial,
        treatment=treatment,
        n_randomized=100,
        endpoint="outcome",
        estimand_label="primary",
        mean_change=mean,
        ci_lower=mean - half,
        ci_upper=mean + half,
    )


class TestContrastFromArms:
    def test_root_sum_square(self):
        a = make_arm("A", -1.0, 0.196)
        b = make_arm("B", 0.0, 0.196)
        contrast = contrast_from_arms(a, b)
        assert contrast.md == pytest.approx(-1.0)
        assert contrast.se == pytest.approx(0.141421, abs=1e-4)
        assert contrast.source is UncertaintySource.FROM_ARMS

    def test_identical_summaries_symmetric_se(self):
        a = make_arm("A", -2.0, 0.4)
        b = make_arm("B", -2.0, 0.4)
        contrast = contrast_from_arms(a, b)
        assert contrast.md == 0.0
        assert contrast.se == pytest.approx(math.sqrt(2.0) * a.se, rel=1e-12)

    def test_cross_trial_rejected(self):
        with pytest.raises(ValueError, match="different trials"):
            contrast_from_arms(make_arm("A", 0.0, 0.2), make_arm("B", 0.0, 0.2, trial="T2"))

    def test_same_treatment_rejected(self):
        with pytest.raises(ValueError):
            contrast_from_arms(make_arm("A", 0.0, 0.2), make_arm("a ", 1.0, 0.2))

    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=0.01, max_value=2),
        st.floats(min_value=0.01, max_value=2),
    )
    def test_antisymmetric(self, mean_a, mean_b, half_a, half_b):
        a, b = make_arm("A", mean_a, half_a), make_arm("B", mean_b, half_b)
        ab, ba = contrast_from_arms(a, b), contrast_from_arms(b, a)
        assert ab.md == pytest.approx(-ba.md, abs=1e-12)
        assert ab.se == ba.se


class TestParseEvidence:
    def test_case_study_shape(self, case_base):
        assert len(case_base.trials) == 3
        assert len(case_base.treatments()) == 6
        assert case_base.endpoint_keys() == (HBA1C, WEIGHT)
        assert len(case_base.contrasts) == 16
        for trial in case_base.trials.values():
            assert len(trial.labels) == 2

    def test_uncertainty_sources(self, case_base):
        by_trial = {}
        for c in case_base.contrasts:
            by_trial.setdefault(c.trial_id, set()).add(c.source)
        assert by_trial["AWARD-11"] == {UncertaintySource.FROM_ARMS}
        assert by_trial["SUSTAIN 7"] == {UncertaintySource.FROM_CI}
        assert by_trial["SUSTAIN FORTE"] == {UncertaintySource.FROM_CI}

    def test_reported_se_wins(self):
        base = parse_evidence_text(MINIMAL)
        (contrast,) = base.contrasts
        assert contrast.source is UncertaintySource.REPORTED_SE
        assert contrast.se == 0.5

    def test_from_arms_keeps_reported_md(self, case_base):
        contrast = next(c for c in case_base.contrasts if c.trial_id == "AWARD-11")
        arm_t = case_base.arm_summary("AWARD-11", contrast.estimand_label, contrast.endpoint, contrast.treatment)
        arm_c = case_base.arm_summary("AWARD-11", contrast.estimand_label, contrast.endpoint, contrast.comparator)
        assert contrast.se == pytest.approx(math.hypot(arm_t.se, arm_c.se), rel=1e-12)
        assert contrast.md != pytest.approx(arm_t.mean_change - arm_c.mean_change, abs=1e-9)

    def test_empty_contrast_section_is_valid(self):
        text = MINIMAL.replace("T1,primary,outcome,A,B,1.0,0.5,,,\n", "")
        base = parse_evidence_text(text)
        assert base.contrasts == ()

    def test_unknown_arm_rejected_with_line(self):
        text = MINIMAL.replace("T1,primary,outcome,A,B,", "T1,primary,outcome,A,C,")
        with pytest.raises(EvidenceFormatError, match=r"line \d+.*not an arm"):
            parse_evidence_text(text)

    def test_unknown_strategy_rejected(self):
        text = MINIMAL.replace("dropout:hypothetical", "dropout:imaginary")
        with pytest.raises(EvidenceFormatError, match="unknown intercurrent-event strategy"):
            parse_evidence_text(text)

    def test_duplicate_contrast_rejected(self):
        text = MINIMAL.replace(
            "T1,primary,outcome,A,B,1.0,0.5,,,\n",
            "T1,primary,outcome,A,B,1.0,0.5,,,\nT1,primary,outcome,A,B,1.1,0.5,,,\n",
        )
        with pytest.raises(EvidenceFormatError, match="duplicate contrast"):
            parse_evidence_text(text)

    def test_bad_number_reports_line(self):
        text = MINIMAL.replace("1.0,0.5", "1.0,abc")
        with pytest.raises(EvidenceFormatError, match=r"line \d+.*'se'"):
            parse_evidence_text(text)

    def test_missing_uncertainty_without_arms_rejected(self):
        text = MINIMAL.replace("1.0,0.5,,,", "1.0,,,,")
        with pytest.raises(EvidenceFormatError, match="no uncertainty|arm summaries"):
            parse_evidence_text(text)

    def test_bad_header_rejected(self):
        text = MINIMAL.replace("trial_id,arms", "trial,arms")
        with pytest.raises(EvidenceFormatError, match="header"):
            parse_evidence_text(text)


class TestRoundTrip:
    def test_csv_round_trip(self, case_base):
        text = serialize_evidence(case_base, format="csv")
        assert parse_evidence_text(text, format="csv") == case_base

    def test_json_round_trip(self, case_base):
        text = serialize_evidence(case_base, format="json")
        assert parse_evidence_text(text, format="json") == case_base

    def test_json_mirrors_csv(self, case_base):
        doc = json.loads(serialize_evidence(case_base, format="json"))
        assert set(doc) == {"trials", "estimands", "contrasts", "arms"}
        assert doc == evidence_to_dict(case_base)

    def test_serialization_is_deterministic(self, case_base):
        assert serialize_evidence(case_base) == serialize_evidence(case_base)


class TestValidateEvidence:
    def test_case_study_clean_with_timepoint_warning(self, case_base):
        issues = validate_evidence(case_base)
        assert all(i.severity == "warning" for i in issues)
        spread = [i for i in issues if "endpoint timepoints differ" in i.message]
        assert len(spread) == 2
        assert all("36, 40" in i.message for i in spread)

    def test_multi_arm_without_arm_summaries_warns(self):
        text = """\
#trials
trial_id,arms
T1,A;B;C
#estimands
trial_id,label,population,endpoint_name,units,timepoint_weeks,summary_measure,ie_handlings
T1,primary,adults,outcome,u,12,mean_difference,dropout:hypothetical
#contrasts
trial_id,estimand_label,endpoint_name,treatment,comparator,md,se,ci_lower,ci_upper,ci_level
T1,primary,outcome,B,A,1.0,0.5,,,
T1,primary,outcome,C,A,0.5,0.5,,,
"""
        issues = validate_evidence(parse_evidence_text(text))
        assert any("shared-arm variance unidentifiable" in i.message for i in issues)

    def test_two_arm_single_trial_is_clean(self):
        assert validate_evidence(parse_evidence_text(MINIMAL)) == []

    def test_uneven_strategy_coverage_warns(self, case_base):
        doc = evidence_to_dict(case_base)
        doc["estimands"] = [
            e
            for e in doc["estimands"]
            if not (e["trial_id"] == "AWARD-11" and e["label"] == "treatment regimen")
        ]
        doc["contrasts"] = [
            c
            for c in doc["contrasts"]
            if not (c["trial_id"] == "AWARD-11" and c["estimand_label"] == "treatment regimen")
        ]
        doc["arms"] = [
            a
            for a in doc["arms"]
            if not (a["trial_id"] == "AWARD-11" and a["estimand_label"] == "treatment regimen")
        ]
        issues = validate_evidence(parse_evidence_text(json.dumps(doc), format="json"))
        assert any(
            "no treatment_policy estimand" in i.message and "AWARD-11" in i.message for i in issues
        )


# --- one ingestion path -------------------------------------------------------

PARITY_CSV = """\
#trials
trial_id,arms
T1,A;B;C
#estimands
trial_id,label,population,endpoint_name,units,timepoint_weeks,summary_measure,ie_handlings
T1,primary,adults,outcome,u,12,mean_difference,dropout:hypothetical;rescue:treatment_policy
#contrasts
trial_id,estimand_label,endpoint_name,treatment,comparator,md,se,ci_lower,ci_upper,ci_level
T1,primary,outcome,B,A,1.0,0.5,,,
T1,primary,outcome,C,A,0.5,,0.1,0.9,0.9
#arms
trial_id,estimand_label,endpoint_name,treatment,n,mean_change,ci_lower,ci_upper,ci_level
T1,primary,outcome,A,100,-1.0,-1.4,-0.6,
T1,primary,outcome,B,101,0.0,-0.4,0.4,0.95
T1,primary,outcome,C,102,-0.5,-0.9,-0.1,0.9
"""

PARITY_JSON = {
    "trials": [{"trial_id": "T1", "arms": ["A", "B", "C"]}],
    "estimands": [
        {
            "trial_id": "T1", "label": "primary", "population": "adults",
            "endpoint_name": "outcome", "units": "u", "timepoint_weeks": 12,
            "summary_measure": "mean_difference",
            "ie_handlings": [
                {"event_name": "dropout", "strategy": "hypothetical"},
                {"event_name": "rescue", "strategy": "treatment_policy"},
            ],
        }
    ],
    "contrasts": [
        {"trial_id": "T1", "estimand_label": "primary", "endpoint_name": "outcome",
         "treatment": "B", "comparator": "A", "md": 1.0, "se": 0.5},
        {"trial_id": "T1", "estimand_label": "primary", "endpoint_name": "outcome",
         "treatment": "C", "comparator": "A", "md": 0.5, "se": None,
         "ci_lower": 0.1, "ci_upper": 0.9, "ci_level": 0.9},
    ],
    "arms": [
        {"trial_id": "T1", "estimand_label": "primary", "endpoint_name": "outcome",
         "treatment": "A", "n": 100, "mean_change": -1.0, "ci_lower": -1.4, "ci_upper": -0.6},
        {"trial_id": "T1", "estimand_label": "primary", "endpoint_name": "outcome",
         "treatment": "B", "n": 101, "mean_change": 0.0, "ci_lower": -0.4, "ci_upper": 0.4,
         "ci_level": 0.95},
        {"trial_id": "T1", "estimand_label": "primary", "endpoint_name": "outcome",
         "treatment": "C", "n": 102, "mean_change": -0.5, "ci_lower": -0.9, "ci_upper": -0.1,
         "ci_level": 0.9},
    ],
}


def parity_doc() -> dict:
    return json.loads(json.dumps(PARITY_JSON))


def parse_json_doc(doc: dict):
    return parse_evidence_text(json.dumps(doc), format="json")


class TestFormatParity:
    """CSV rows and JSON objects are the same records and fail the same way."""

    def test_csv_and_json_parse_equal(self):
        from_csv, from_json = parse_evidence_text(PARITY_CSV), parse_json_doc(parity_doc())
        assert from_csv == from_json
        assert [c.source for c in from_csv.contrasts] == [
            UncertaintySource.REPORTED_SE, UncertaintySource.FROM_CI,
        ]
        assert from_csv.arm_summaries[0].ci_level == 0.95  # absent level defaults

    def test_case_study_csv_and_json_parse_equal(self, case_base):
        assert parse_evidence_text(serialize_evidence(case_base, "json"), "json") == case_base

    @pytest.mark.parametrize("md", ["abc", None, True])
    def test_json_bad_md_names_record(self, md):
        doc = parity_doc()
        doc["contrasts"][1]["md"] = md
        with pytest.raises(EvidenceFormatError, match=r"contrasts\[1\].*'md'") as exc:
            parse_json_doc(doc)
        assert exc.value.locator == "contrasts[1]"

    @pytest.mark.parametrize("md", ["abc", ""])
    def test_csv_bad_md_names_line(self, md):
        text = PARITY_CSV.replace("T1,primary,outcome,B,A,1.0,", f"T1,primary,outcome,B,A,{md},")
        with pytest.raises(EvidenceFormatError, match=r"line 9.*'md'"):
            parse_evidence_text(text)

    def test_json_rejects_fractional_timepoint(self):
        doc = parity_doc()
        doc["estimands"][0]["timepoint_weeks"] = 40.9
        with pytest.raises(EvidenceFormatError, match=r"estimands\[0\].*not an integer"):
            parse_json_doc(doc)

    def test_csv_rejects_fractional_timepoint(self):
        text = PARITY_CSV.replace(",u,12,", ",u,40.9,")
        with pytest.raises(EvidenceFormatError, match=r"line 6.*not an integer"):
            parse_evidence_text(text)

    def test_integral_timepoint_accepted_in_both(self):
        doc = parity_doc()
        doc["estimands"][0]["timepoint_weeks"] = 12.0
        assert parse_json_doc(doc) == parse_evidence_text(PARITY_CSV.replace(",u,12,", ",u,12.0,"))

    def test_csv_rejects_zero_arm_ci_level(self):
        for level in ("0", "1e-300"):  # 1e-300 lies in (0, 1), but its z rounds to 0
            text = PARITY_CSV.replace("-0.4,0.4,0.95", f"-0.4,0.4,{level}")
            with pytest.raises(EvidenceFormatError, match=r"line 14.*ci_level"):
                parse_evidence_text(text)

    def test_csv_rejects_vanishing_contrast_ci_level(self):
        text = PARITY_CSV.replace("0.1,0.9,0.9", "0.1,0.9,1e-300")
        with pytest.raises(EvidenceFormatError, match=r"line 10: confidence level \(ci_level\)"):
            parse_evidence_text(text)

    def test_json_rejects_zero_arm_ci_level(self):
        doc = parity_doc()
        doc["arms"][1]["ci_level"] = 0
        with pytest.raises(EvidenceFormatError, match=r"arms\[1\].*ci_level"):
            parse_json_doc(doc)

    @pytest.mark.parametrize(
        "lower, upper, shown", [("0.4", "-0.4", "(0.4, -0.4)"), ("0.4", "0.4", "(0.4, 0.4)"), ("2e0", "1", "(2.0, 1.0)")]
    )
    def test_csv_rejects_arm_interval_out_of_order(self, lower, upper, shown):
        text = PARITY_CSV.replace("-0.4,0.4,0.95", f"{lower},{upper},0.95")
        message = f"line 14: ci_lower must be below ci_upper, got {shown}"
        with pytest.raises(EvidenceFormatError, match=re.escape(message)):
            parse_evidence_text(text)

    def test_missing_field_named_in_both(self):
        doc = parity_doc()
        del doc["arms"][0]["n"]
        with pytest.raises(EvidenceFormatError, match=r"arms\[0\]: missing field 'n'"):
            parse_json_doc(doc)
        with pytest.raises(EvidenceFormatError, match=r"line 13: missing field 'n'"):
            parse_evidence_text(PARITY_CSV.replace(",A,100,", ",A,,"))

    def test_non_text_id_rejected(self):
        doc = parity_doc()
        doc["trials"][0]["trial_id"] = 7
        with pytest.raises(EvidenceFormatError, match=r"trials\[0\].*must be text"):
            parse_json_doc(doc)

    def test_unknown_json_keys_ignored(self):
        doc = parity_doc()
        doc["estimands"][0]["direction"] = "higher_is_better"
        assert parse_json_doc(doc) == parse_evidence_text(PARITY_CSV)


class TestNumericCoercion:
    def test_numpy_scalars_become_plain_numbers(self):
        arm = ArmSummary(
            trial_id="T1", treatment="A", n_randomized=np.int64(50), endpoint="outcome",
            estimand_label="primary", mean_change=np.float64(-1.0), ci_lower=np.float32(-1.5),
            ci_upper=np.float64(-0.5), ci_level=np.float64(0.95),
        )
        assert type(arm.n_randomized) is int
        assert all(type(v) is float for v in (arm.mean_change, arm.ci_lower, arm.ci_upper, arm.ci_level))
        c = ContrastEstimate(
            trial_id="T1", treatment="A", comparator="B", endpoint="outcome", estimand_label="primary",
            md=np.float64(1.0), se=np.float64(0.2), source=UncertaintySource.REPORTED_SE,
        )
        assert type(c.md) is float and type(c.se) is float and c.ci_lower is None

    def test_edge_list_of_numpy_built_contrasts_parses(self):
        c = ContrastEstimate(
            trial_id="T", treatment="A", comparator="B", endpoint="outcome", estimand_label="primary",
            md=np.float64(1.0), se=np.float64(0.2), source=UncertaintySource.REPORTED_SE,
        )
        (row,) = export_edge_list(build_network([c])).splitlines()
        assert "np." not in row
        assert float(row.split(",")[-1]) == pytest.approx(25.0)

    @pytest.mark.parametrize("n", [40.9, np.float64(2.5), "3.5", float("nan")])
    def test_integer_fields_reject_fractions(self, n):
        with pytest.raises(ValueError, match="n_randomized"):
            make_arm_n(n)

    @pytest.mark.parametrize("n", [40.0, np.int32(40), "40"])
    def test_integer_fields_accept_integral_values(self, n):
        assert make_arm_n(n).n_randomized == 40


class TestExtremeSe:
    def test_tiny_se_with_finite_weight_accepted(self):
        c = make_contrast_se(1e-150)
        assert c.se == 1e-150 and math.isfinite(1.0 / (c.se * c.se))

    @pytest.mark.parametrize("se", [1e-160, 1e-170, 1e200])
    def test_se_without_finite_weight_rejected(self, se):
        with pytest.raises(ValueError, match="'se' is out of range"):
            make_contrast_se(se)

    def test_ordinary_arm_accepted(self):
        arm = make_arm_n(100)
        assert arm.variance == arm.se * arm.se

    @pytest.mark.parametrize("half_width", [1e200, 1e-200])
    def test_arm_without_finite_weight_rejected(self, half_width):
        with pytest.raises(ValueError, match="se implied by ci_lower and ci_upper is out of range"):
            dataclasses.replace(make_arm_n(100), ci_lower=-half_width, ci_upper=half_width)


def make_contrast_se(se):
    return ContrastEstimate(
        trial_id="T1", treatment="A", comparator="B", endpoint="outcome", estimand_label="primary",
        md=0.0, se=se, source=UncertaintySource.REPORTED_SE,
    )


def make_arm_n(n):
    return ArmSummary(
        trial_id="T1", treatment="A", n_randomized=n, endpoint="outcome", estimand_label="primary",
        mean_change=0.0, ci_lower=-1.0, ci_upper=1.0,
    )


# --- serialize/parse round trip -------------------------------------------------

# Letters in several scripts and cases, digits, punctuation and whitespace runs.
# CSV reserves ';' (the list separator) anywhere and '#' at the start of a row.
_ID_ALPHABET = "aAbBzZéÉßΩωЖж漢字 \t -_.,:'\"()#0123456789"
_ids = st.text(_ID_ALPHABET, min_size=1, max_size=10).filter(
    lambda s: normalize_id(s) and not normalize_id(s).startswith("#")
)
_numbers = st.sampled_from([float, np.float64, np.float32])


@st.composite
def evidence_bases(draw) -> EvidenceBase:
    """Small bases of 1-3 trials built directly from entities, numbers possibly numpy."""

    def num(lo, hi):
        return draw(_numbers)(draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False)))

    endpoint = normalize_id(draw(_ids))
    units = draw(_ids).strip()
    trial_ids = draw(st.lists(_ids, min_size=1, max_size=3, unique_by=normalize_id))
    trials, contrasts, arm_rows = {}, [], []
    for trial_id in map(normalize_id, trial_ids):
        arms = tuple(normalize_id(a) for a in draw(st.lists(_ids, min_size=2, max_size=3, unique_by=canonical)))
        label = normalize_id(draw(_ids))
        events = draw(st.lists(_ids, max_size=2, unique_by=canonical))
        strategies = draw(st.lists(st.sampled_from(IntercurrentEventStrategy), min_size=2, max_size=2))
        estimand = Estimand(
            label=label,
            population=draw(_ids).strip(),
            treatments=frozenset(arms),
            endpoint=EndpointSpec(name=endpoint, units=units, timepoint_weeks=draw(st.integers(1, 200))),
            summary_measure=SummaryMeasure.MEAN_DIFFERENCE,
            ie_handlings=tuple(IntercurrentEventHandling(e, s) for e, s in zip(events, strategies)),
        )
        trials[trial_id] = TrialRecord(
            trial_id=trial_id, arms=arms, estimands={(canonical(label), canonical(endpoint)): estimand}
        )
        summaries = {}
        if draw(st.booleans()):
            for arm in arms:
                lower = num(-50, 50)
                summaries[arm] = ArmSummary(
                    trial_id=trial_id, treatment=arm, n_randomized=draw(_numbers)(draw(st.integers(1, 999))),
                    endpoint=endpoint, estimand_label=label, mean_change=num(-50, 50),
                    ci_lower=lower, ci_upper=float(lower) + num(0.01, 20), ci_level=num(0.5, 0.99),
                )
            arm_rows.extend(summaries.values())
        sources = [UncertaintySource.REPORTED_SE, UncertaintySource.FROM_CI]
        for treatment in arms[1:]:
            source = draw(st.sampled_from(sources + [UncertaintySource.FROM_ARMS] * bool(summaries)))
            fields = dict(
                trial_id=trial_id, treatment=treatment, comparator=arms[0], endpoint=endpoint,
                estimand_label=label, md=num(-50, 50), source=source,
            )
            if source is UncertaintySource.REPORTED_SE:
                fields["se"] = num(0.01, 10)
            elif source is UncertaintySource.FROM_CI:
                lower, width, level = num(-50, 50), num(0.01, 20), num(0.5, 0.99)
                upper = float(lower) + float(width)
                fields.update(ci_lower=lower, ci_upper=upper, ci_level=level,
                              se=se_from_ci(float(lower), upper, float(level)))
            else:
                fields["se"] = math.hypot(summaries[treatment].se, summaries[arms[0]].se)
            contrasts.append(ContrastEstimate(**fields))
    return EvidenceBase(trials=trials, contrasts=tuple(contrasts), arm_summaries=tuple(arm_rows))


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(evidence_bases(), st.sampled_from(["csv", "json"]))
    def test_serialize_then_parse_is_identity(self, base, fmt):
        text = serialize_evidence(base, fmt)
        assert "np." not in text
        assert parse_evidence_text(text, fmt) == base
