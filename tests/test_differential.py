"""Whole-file differential test: evidence text in, `analyze --format json` out, against dense GLS.

The generator writes CSV or JSON evidence with two- and three-arm trials whose
contrast SEs are reported, derived from a confidence interval, or derived from
the arms.  The oracle builds y, X and the dense covariance from the generator's
own records, so the parser, the restriction, the covariance blocks and the
renderer are all checked together.

The metamorphic relations edit a generated file in ways that must not move the
analysis (a contrast reported the other way round, a treatment respelled,
records that the target does not admit, a three-arm trial re-based to another
arm, a two-arm trial split in two) and compare the two documents.
"""

from __future__ import annotations

import copy
import json
import math
import tempfile
from pathlib import Path
from statistics import NormalDist

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import gls_brute
from estimeta.cli import main
from estimeta.estimands import canonical

_ESTIMAND = {
    "label": "primary",
    "population": "adults",
    "endpoint_name": "outcome",
    "units": "u",
    "timepoint_weeks": 12,
    "summary_measure": "mean_difference",
    "ie_handlings": [{"event_name": "discontinuation", "strategy": "hypothetical"}],
}
_ROW = {"trial_id": None, "estimand_label": "primary", "endpoint_name": "outcome"}
_CONTRAST_FIELDS = ["trial_id", "estimand_label", "endpoint_name", "treatment", "comparator",
                    "md", "se", "ci_lower", "ci_upper", "ci_level"]
_ARM_FIELDS = ["trial_id", "estimand_label", "endpoint_name", "treatment", "n",
               "mean_change", "ci_lower", "ci_upper", "ci_level"]


def _z(level: float) -> float:
    return NormalDist().inv_cdf((1.0 + level) / 2.0)


@st.composite
def evidence(draw, seeded_mds: bool = False):
    """(evidence document, oracle trials): each oracle trial is (arms, mds, its covariance block).

    With `seeded_mds`, the mds come from one seeded generator on a grid of 2**-20, so their
    differences are exact and no two coincide or cancel but by a rare chance: a relative bound
    cannot hold on an estimate whose true value is 0, which each solve rounds its own way."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1))) if seeded_mds else None
    names = [f"T{i}" for i in range(draw(st.integers(2, 5)))]
    trials = [names[i : i + 2] for i in range(len(names) - 1)]  # a spanning chain keeps it connected
    trials += draw(st.lists(st.lists(st.sampled_from(names), min_size=2, max_size=3, unique=True), max_size=4))
    doc: dict = {"trials": [], "estimands": [], "contrasts": [], "arms": []}
    oracle = []
    for j, arms in enumerate(trials):
        tid = f"S{j}"
        variances = [draw(st.floats(0.01, 2.0)) for _ in arms]
        doc["trials"].append({"trial_id": tid, "arms": arms})
        doc["estimands"].append({"trial_id": tid, **_ESTIMAND})
        mds, ses, with_arms = [], [], len(arms) == 3  # a multi-arm block needs every arm's variance
        for k in range(1, len(arms)):
            md = round(rng.uniform(-5.0, 5.0) * 2**20) / 2**20 if rng else draw(st.floats(-5.0, 5.0))
            source = draw(st.sampled_from(["se", "ci", "arms"]))
            # two-arm trials may report an SE of their own; a multi-arm one agrees with its arms
            se = math.sqrt(variances[0] + variances[k]) if with_arms or source == "arms" else draw(st.floats(0.05, 1.5))
            row = {**_ROW, "trial_id": tid, "treatment": arms[k], "comparator": arms[0], "md": md}
            if source == "se":
                row["se"] = se
            elif source == "ci":
                level = draw(st.sampled_from([None, 0.9, 0.95, 0.99]))
                half = _z(level or 0.95) * se
                row.update(ci_lower=md - half, ci_upper=md + half, ci_level=level)
            with_arms = with_arms or source == "arms"
            doc["contrasts"].append(row)
            mds.append(md)
            ses.append(se)
        if with_arms:
            for arm, variance in zip(arms, variances):
                half = _z(0.95) * math.sqrt(variance)
                doc["arms"].append({**_ROW, "trial_id": tid, "treatment": arm, "n": 100,
                                    "mean_change": 0.0, "ci_lower": -half, "ci_upper": half})
        if len(arms) == 3:  # diagonal v_k + v_0, off-diagonal the shared comparator's v_0
            block = np.full((2, 2), variances[0]) + np.diag(variances[1:])
        else:
            block = np.array([[ses[0] ** 2]])
        oracle.append((arms, mds, block))
    return doc, oracle


def _csv(doc: dict) -> str:
    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, list):
            return ";".join(value if all(isinstance(v, str) for v in value) else
                            [f"{h['event_name']}:{h['strategy']}" for h in value])
        return value if isinstance(value, str) else repr(value)

    sections = {
        "trials": ["trial_id", "arms"],
        "estimands": ["trial_id", *_ESTIMAND],
        "contrasts": _CONTRAST_FIELDS,
        "arms": _ARM_FIELDS,
    }
    lines = []
    for section, fields in sections.items():
        lines += [f"#{section}", ",".join(fields)]
        lines += [",".join(cell(record.get(f)) for f in fields) for record in doc[section]]
    return "\n".join(lines) + "\n"


class TestWholeFileDifferential:
    @settings(max_examples=60, deadline=None)
    @given(evidence(), st.sampled_from(["csv", "json"]))
    def test_analyze_json_matches_dense_gls(self, case, fmt):
        doc, oracle = case
        with tempfile.TemporaryDirectory() as tmp:
            source, output = Path(tmp) / f"evidence.{fmt}", Path(tmp) / "result.json"
            source.write_text(json.dumps(doc) if fmt == "json" else _csv(doc), encoding="utf-8")
            code = main(["analyze", "--input", str(source), "--estimand", "hypothetical",
                         "--reference", "T0", "--format", "json", "--output", str(output)])
            assert code == 0
            payload = json.loads(output.read_text(encoding="utf-8"))

        parameters = list(payload["basic_estimates"])
        column = {name: j for j, name in enumerate(parameters)}
        rows, y, blocks = [], [], []
        for arms, mds, block in oracle:
            for k, md in enumerate(mds, start=1):
                row = np.zeros(len(parameters))
                for arm, sign in ((arms[k], 1.0), (arms[0], -1.0)):
                    if arm in column:  # the reference T0 has no column
                        row[column[arm]] = sign
                rows.append(row)
                y.append(md)
            blocks.append(block)
        sigma = np.zeros((len(y), len(y)))
        start = 0
        for block in blocks:
            sigma[start : start + len(block), start : start + len(block)] = block
            start += len(block)
        theta, cov = gls_brute(np.array(y), np.array(rows), sigma)

        assert payload["reference"] == "T0"
        assert sorted(parameters) == sorted({arm for arms, _, _ in oracle for arm in arms} - {"T0"})
        # criterion 4's tolerances
        np.testing.assert_allclose(list(payload["basic_estimates"].values()), theta, rtol=1e-8, atol=1e-11)
        np.testing.assert_allclose(payload["covariance"], cov, rtol=1e-8, atol=1e-11)


# --- metamorphic relations ---------------------------------------------------

METAMORPHIC = settings(derandomize=True, deadline=None, database=None, max_examples=100,
                       suppress_health_check=[HealthCheck.too_slow])


def _analyze(doc: dict, fmt: str) -> dict:
    """`analyze --format json` on `doc` written as `fmt`, run in process, with T0 as reference."""
    with tempfile.TemporaryDirectory() as tmp:
        source, output = Path(tmp) / f"evidence.{fmt}", Path(tmp) / "result.json"
        source.write_text(json.dumps(doc) if fmt == "json" else _csv(doc), encoding="utf-8")
        code = main(["analyze", "--input", str(source), "--estimand", "hypothetical", "--endpoint", "outcome",
                     "--reference", "T0", "--format", "json", "--output", str(output)])
        assert code == 0
        return json.loads(output.read_text(encoding="utf-8"))


def _assert_same_analysis(got: dict, want: dict) -> None:
    """Every basic estimate and every comparison's md and se agree within 1e-12 (relative),
    matched by canonical treatment name."""
    def values(payload: dict) -> dict:
        out = {("estimate", canonical(t)): v for t, v in payload["basic_estimates"].items()}
        for c in payload["comparisons"]:
            pair = canonical(c["treatment"]), canonical(c["comparator"])
            out["md", *pair], out["se", *pair] = c["md"], c["se"]
        return out

    assert canonical(got["reference"]) == canonical(want["reference"])
    got, want = values(got), values(want)
    assert got.keys() == want.keys()
    keys = sorted(want)
    np.testing.assert_allclose([got[k] for k in keys], [want[k] for k in keys], rtol=1e-12, atol=0)


def _rename(doc: dict, spell) -> None:
    """Respell, in place, each treatment name of each record as `spell(name)`."""
    for trial in doc["trials"]:
        trial["arms"] = [spell(arm) for arm in trial["arms"]]
    for section, fields in (("contrasts", ("treatment", "comparator")), ("arms", ("treatment",))):
        for record in doc[section]:
            record.update({field: spell(record[field]) for field in fields})


class TestMetamorphicRelations:
    @METAMORPHIC
    @given(evidence(), st.sampled_from(["csv", "json"]), st.integers(0, 63))
    def test_a_contrast_reported_the_other_way_round(self, case, fmt, at):
        doc, _ = case
        flipped = copy.deepcopy(doc)
        row = flipped["contrasts"][at % len(flipped["contrasts"])]
        row["treatment"], row["comparator"], row["md"] = row["comparator"], row["treatment"], -row["md"]
        if "ci_lower" in row:
            row["ci_lower"], row["ci_upper"] = -row["ci_upper"], -row["ci_lower"]
        _assert_same_analysis(_analyze(flipped, fmt), _analyze(doc, fmt))

    @METAMORPHIC
    @given(evidence(), st.sampled_from(["csv", "json"]), st.data())
    def test_a_treatment_respelled_in_some_records(self, case, fmt, data):
        doc, _ = case
        _rename(doc, lambda name: name if name == "T0" else f"drug {name}")
        spellings = st.sampled_from([None, str.upper, str.lower, lambda name: name.replace(" ", "   "),
                                     lambda name: name.swapcase().replace(" ", "  ")])

        def respell(name: str) -> str:  # T0 is the reference, named on the command line
            spell = None if name == "T0" else data.draw(spellings)
            return spell(name) if spell else name

        respelled = copy.deepcopy(doc)
        _rename(respelled, respell)
        _assert_same_analysis(_analyze(respelled, fmt), _analyze(doc, fmt))

    @METAMORPHIC
    @given(evidence(), st.sampled_from(["csv", "json"]), st.data())
    def test_records_the_target_does_not_admit(self, case, fmt, data):
        """Copies of some trials' records, with other mds, under another endpoint or under an
        estimand of another strategy; and a trial, and a treatment, only the other endpoint sees."""
        doc, _ = case
        added = copy.deepcopy(doc)
        for tid in (t["trial_id"] for t in doc["trials"] if data.draw(st.booleans())):
            if data.draw(st.booleans()):
                label, endpoint, handlings = "primary", "weight", _ESTIMAND["ie_handlings"]
            else:
                strategy = data.draw(st.sampled_from(["treatment_policy", "composite", "while_on_treatment"]))
                label, endpoint = "secondary", "outcome"
                handlings = [{"event_name": "discontinuation", "strategy": strategy}]
            added["estimands"].append({"trial_id": tid, **_ESTIMAND, "label": label, "endpoint_name": endpoint,
                                       "ie_handlings": handlings})
            where = {"estimand_label": label, "endpoint_name": endpoint}
            added["arms"] += [{**r, **where} for r in doc["arms"] if r["trial_id"] == tid]
            for record in (r for r in doc["contrasts"] if r["trial_id"] == tid):
                shift = data.draw(st.floats(-3.0, 3.0))
                copied = {**record, **where, "md": record["md"] + shift}
                if "ci_lower" in record:
                    copied.update(ci_lower=record["ci_lower"] + shift, ci_upper=record["ci_upper"] + shift)
                added["contrasts"].append(copied)
        if data.draw(st.booleans()):
            added["trials"].append({"trial_id": "W", "arms": ["T0", "T9"]})
            added["estimands"].append({"trial_id": "W", **_ESTIMAND, "endpoint_name": "weight"})
            added["contrasts"].append({**_ROW, "trial_id": "W", "endpoint_name": "weight", "treatment": "T9",
                                       "comparator": "T0", "md": 1.0, "se": 0.5})
        _assert_same_analysis(_analyze(added, fmt), _analyze(doc, fmt))

    @METAMORPHIC
    @given(evidence(seeded_mds=True), st.sampled_from(["csv", "json"]), st.data())
    def test_a_three_arm_trial_rebased_to_another_arm(self, case, fmt, data):
        """A three-arm trial's contrasts reported against arm r, md_j - md_r, with no se or interval:
        its SEs and shared-arm covariance come from its arm rows."""
        doc, oracle = case
        three = [j for j, (arms, _, _) in enumerate(oracle) if len(arms) == 3]
        assume(three)
        j = data.draw(st.sampled_from(three))
        (arms, mds, _), tid, r = oracle[j], f"S{j}", data.draw(st.sampled_from([1, 2]))
        md = [0.0, *mds]
        rebased = copy.deepcopy(doc)
        rebased["contrasts"] = [c for c in doc["contrasts"] if c["trial_id"] != tid]
        rebased["contrasts"] += [{**_ROW, "trial_id": tid, "treatment": arms[k], "comparator": arms[r],
                                  "md": md[k] - md[r]} for k in range(3) if k != r]
        _assert_same_analysis(_analyze(rebased, fmt), _analyze(doc, fmt))

    @METAMORPHIC
    @given(evidence(seeded_mds=True), st.sampled_from(["csv", "json"]), st.data())
    def test_a_two_arm_trial_split_in_two(self, case, fmt, data):
        """A two-arm trial of SE s replaced by two trials of its arms, each with its md and SE s*sqrt(2)."""
        doc, oracle = case
        j = data.draw(st.sampled_from([j for j, (arms, _, _) in enumerate(oracle) if len(arms) == 2]))
        (arms, (md,), block), tid = oracle[j], f"S{j}"
        split = {section: [r for r in records if r["trial_id"] != tid] for section, records in doc.items()}
        for half in (f"{tid}a", f"{tid}b"):
            split["trials"].append({"trial_id": half, "arms": arms})
            split["estimands"].append({"trial_id": half, **_ESTIMAND})
            split["contrasts"].append({**_ROW, "trial_id": half, "treatment": arms[1], "comparator": arms[0],
                                       "md": md, "se": math.sqrt(2.0 * block[0, 0])})
        _assert_same_analysis(_analyze(split, fmt), _analyze(doc, fmt))
