"""The CLI's exit-code contract over mutated inputs.

Every run of a subcommand through `cli.main`, whatever its evidence or plan
file holds, returns an int in 0..4 without raising, and a nonzero code's
stderr starts with that code's prefix.  The case-study CSV, its JSON form and
an analysis plan are mutated one to three edits at a time: a value replaced
by an extreme or malformed token, a record deleted, duplicated or (in CSV)
truncated, a field dropped.  A CSV may also have its section blocks moved and
its rows padded with blank cells, as a spreadsheet writes them.  The properties
are derandomized, so every run tries the same inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import estimeta as em
from conftest import HBA1C
from estimeta.cli import main
from estimeta.ingest import evidence_to_dict, parse_evidence

PREFIX = {1: "usage error: ", 2: "data error: ", 3: "infeasible: ", 4: "numerical failure: "}

# Replacement values: a numeric field gets a number (extreme confidence levels and bounds
# among them) or a malformed numeral, any other field a name from the case study or junk.
NUMBERS = ["", "0", "-0", "1", "-1", "0.5", "0.99", "-2.5", "40", "0.01", "1e-60", "1e60", "-1e60", "1e-300",
           "1e300", "1e308", "-1e308", "1e-320", "2.5e154", "nan", "inf", "x"]
TEXTS = ["", " ", "x;y", "A;A", ";", ":", '"', "é", "x:hypothetical", "hypothetical", "efficacy", "de-jure",
         "mean_difference", "SUSTAIN 7", "AWARD-11", "semaglutide 2.0 mg QW", "dulaglutide 1.5 mg QW",
         "semaglutide 2.0 mg QW;dulaglutide 1.5 mg QW", "change from baseline in body weight",
         "premature treatment discontinuation:treatment_policy"]
JSON_NUMBERS = [None, True, 0, -1, 0.5, 0.99, -2.5, 40, 0.01, 1e-60, 1e60, -1e60, 1e-300, 1e300, 1e308,
                2.5e154, "1e-60", "x"]
JSON_TEXTS = [None, 0, "", " ", "x", "hypothetical", "efficacy", "SUSTAIN 7", "semaglutide 2.0 mg QW",
              "dulaglutide 1.5 mg QW", "change from baseline in body weight", [], ["x"], {},
              ["semaglutide 2.0 mg QW", "dulaglutide 1.5 mg QW"], [{"event_name": "x"}],
              [{"event_name": "premature treatment discontinuation", "strategy": "treatment_policy"}]]


def numeric(value) -> bool:
    """Whether a field holds a number: a numeral, an empty CSV cell, or a JSON number."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return True
    try:
        return isinstance(value, str) and (value == "" or float(value) == float(value))
    except ValueError:
        return False


SLICES = [
    ["analyze", "--estimand", "hypothetical", "--endpoint", "hba1c"],
    ["analyze", "--estimand", "treatment_policy", "--endpoint", "body weight", "--format", "json"],
    ["analyze", "--estimand", "hypothetical", "--endpoint", "body weight", "--format", "csv", "--force"],
    ["analyze", "--estimand", "hypothetical", "--endpoint", "hba1c", "--ci-level", "0.9", "--strict"],
    ["compare", "--estimands", "hypothetical", "treatment_policy", "--endpoint", "body weight"],
    ["compare", "--estimands", "hypothetical", "treatment_policy", "--endpoint", "hba1c",
     "--format", "json", "--force"],
    ["network", "--endpoint", "hba1c", "--estimand", "treatment_policy"],
]
COMMANDS = [["validate"], ["validate", "--format", "json"], ["network"], *SLICES]
PLANNED = [  # the plan's own labels, or a strategy token it may shadow
    ["analyze", "--estimand", "hyp", "--endpoint", "hba1c"],
    ["analyze", "--estimand", "custom", "--endpoint", "hba1c", "--format", "json", "--force"],
    ["analyze", "--estimand", "treatment_policy", "--endpoint", "body weight", "--lenient"],
    ["compare", "--estimands", "hyp", "tp", "--endpoint", "body weight"],
    ["network", "--endpoint", "hba1c", "--estimand", "tp"],
]

CASE_DOC = json.dumps(evidence_to_dict(parse_evidence(em.case_study_path())))
CASE_LINES = em.case_study_path().read_text(encoding="utf-8").splitlines()
# indices of the data rows: neither a comment, a section tag nor a section's header
DATA_ROWS = [i for i, line in enumerate(CASE_LINES) if "#" not in (line[:1], CASE_LINES[i - 1][:1])]
# the section block of each line: 0 for the comments before the first tag, then 1..4 in file order
BLOCK_OF = list(accumulate(int(line in ("#trials", "#estimands", "#contrasts", "#arms")) for line in CASE_LINES))
PLAN = {
    "meta_estimands": [
        {"label": "hyp", "strategy": "hypothetical", "timepoint_tolerance_weeks": 4},
        {"label": "tp", "strategy": "treatment_policy", "matching_mode": "lenient"},
        {
            "label": "custom",
            "population": "adults",
            "treatments": ["semaglutide 2.0 mg QW", "dulaglutide 3.0 mg QW", "semaglutide 1.0 mg QW"],
            "endpoint_name": HBA1C,
            "units": "%-points",
            "timepoint_weeks": 40,
            "summary_measure": "mean_difference",
            "ie_handlings": [{"event_name": "premature treatment discontinuation", "strategy": "hypothetical"}],
            "matching_mode": "lenient",
        },
    ],
    "reference": "dulaglutide 1.5 mg QW",
    "ci_level": 0.95,
}


def run(argv: list[str]) -> None:
    """One command through `cli.main`: an int in 0..4, and a failure's stderr says which."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert type(code) is int and 0 <= code <= 4, (argv, code)
    if code:
        assert err.getvalue().startswith(PREFIX[code]), (argv, err.getvalue())


KINDS = ["value", "value", "value", "value", "delete", "delete", "duplicate", "truncate"]


def edit_csv(lines: list[list[str]], row: int, kind: str, at: int, number: str, text: str) -> None:
    """One edit of the data row at line `row`; `lines[i]` holds what the file's line i became."""
    if not (texts := lines[row]) or not texts[0]:  # deleted or emptied by an earlier edit
        return
    if kind == "delete":
        texts.clear()
    elif kind == "duplicate":
        texts.append(texts[0])
    else:
        (cells,) = csv.reader(texts[:1])
        if kind == "truncate":
            cells = cells[: at % len(cells)]
        else:
            cells[at % len(cells)] = number if numeric(cells[at % len(cells)]) else text
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="").writerow(cells)
        texts[0] = buffer.getvalue()


def edit_records(records: list, kind: str, at: int, field: int, number, text) -> None:
    """One edit of the record `at` (modulo their number); a truncation drops a field."""
    if not isinstance(records, list) or not records:
        return
    k = at % len(records)
    if kind == "delete":
        del records[k]
    elif kind == "duplicate":
        records.insert(k, json.loads(json.dumps(records[k])))
    elif isinstance(records[k], dict) and records[k]:
        name = sorted(records[k])[field % len(records[k])]
        if kind == "truncate":
            del records[k][name]
        else:
            records[k][name] = number if numeric(records[k][name]) else text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


FUZZ = settings(derandomize=True, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
INDEX = st.integers(0, 63)


@settings(FUZZ, max_examples=250)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(DATA_ROWS), st.sampled_from(KINDS), INDEX, st.sampled_from(NUMBERS),
                  st.sampled_from(TEXTS)),
        min_size=1, max_size=3,
    ),
    argv=st.sampled_from(COMMANDS),
)
def test_mutated_csv(workdir, edits, argv):
    lines = [[line] for line in CASE_LINES]
    for edit in edits:
        edit_csv(lines, *edit)
    path = workdir / "evidence.csv"
    path.write_text("".join(line + "\n" for texts in lines for line in texts), encoding="utf-8")
    run([argv[0], "--input", str(path), *argv[1:]])


@settings(FUZZ, max_examples=150)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(["trials", "estimands", "contrasts", "arms"]), st.sampled_from(KINDS),
                  INDEX, INDEX, st.sampled_from(JSON_NUMBERS), st.sampled_from(JSON_TEXTS)),
        min_size=1, max_size=3,
    ),
    argv=st.sampled_from(COMMANDS),
)
def test_mutated_json(workdir, edits, argv):
    doc = json.loads(CASE_DOC)
    for section, *edit in edits:
        edit_records(doc[section], *edit)
    path = workdir / "evidence.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    run([argv[0], "--input", str(path), *argv[1:]])


@settings(FUZZ, max_examples=150)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(["meta_estimands", "reference", "ci_level", "endpoints"]),
                  st.sampled_from(KINDS), INDEX, INDEX, st.sampled_from(JSON_NUMBERS),
                  st.sampled_from(JSON_TEXTS)),
        min_size=1, max_size=3,
    ),
    argv=st.sampled_from(PLANNED),
)
def test_mutated_plan(workdir, edits, argv):
    plan = json.loads(json.dumps(PLAN))
    for key, kind, at, field, number, text in edits:
        if key == "meta_estimands":
            edit_records(plan[key], kind, at, field, number, text)
        else:  # a top-level value: a number for ci_level, else a name, a list or junk
            plan[key] = number if numeric(plan.get(key)) else text
    path = workdir / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    run([argv[0], "--input", str(em.case_study_path()), *argv[1:], "--config", str(path)])


@settings(FUZZ, max_examples=100)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(DATA_ROWS), st.sampled_from(KINDS), INDEX, st.sampled_from(NUMBERS),
                  st.sampled_from(TEXTS)),
        max_size=2,
    ),
    order=st.permutations([1, 2, 3, 4]),
    pads=st.lists(st.integers(0, 12), min_size=len(CASE_LINES), max_size=len(CASE_LINES)),
    argv=st.sampled_from(COMMANDS),
)
def test_moved_and_padded_csv(workdir, edits, order, pads, argv):
    lines = [[line] for line in CASE_LINES]
    for edit in edits:
        edit_csv(lines, *edit)
    padded = [[line + "," * pad for line in texts] for texts, pad in zip(lines, pads)]
    moved = [line for block in (0, *order) for texts, b in zip(padded, BLOCK_OF) if b == block for line in texts]
    path = workdir / "moved.csv"
    path.write_text("".join(line + "\n" for line in moved), encoding="utf-8")
    run([argv[0], "--input", str(path), *argv[1:]])
