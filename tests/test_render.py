"""`analyze`'s league table in every format, against the rendering it replaced.

The oracle below is the earlier renderer, kept verbatim: `comparison_rows`
copied each `ComparisonResult` into a dict, `result_to_dict` and the CSV and
text tables read those dicts, and the JSON path built them twice.  Today all
three formats read `league_table(result)`; the property checks they print the
same bytes on random results whose names need CSV quoting and JSON escaping.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import HBA1C
from estimeta import engine
from estimeta.cli import _render_league
from estimeta.engine import LeagueView, NmaResult
from estimeta.estimands import IntercurrentEventStrategy
from estimeta.pipeline import run_analysis, synthesize_meta

# --- the earlier renderer ----------------------------------------------------


def _oracle_rows(result):
    return [
        {
            "treatment": c.treatment,
            "comparator": c.comparator,
            "md": c.md,
            "ci_lower": c.ci_lower,
            "ci_upper": c.ci_upper,
            "se": c.se,
        }
        for c in result.comparisons.values()
    ]


def _oracle_dict(result):
    return {
        "reference": result.reference,
        "treatments": list(result.treatments),
        "ci_level": result.ci_level,
        "basic_estimates": {
            t: float(result.estimates[j]) for j, t in enumerate(result.parameters)
        },
        "covariance": [[float(v) for v in row] for row in result.covariance],
        "condition_number": result.condition_number,
        "notes": list(result.notes),
        "comparisons": _oracle_rows(result),
    }


def _oracle_text_table(header, rows):
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def _oracle_csv_text(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else repr(cell) for cell in row])
    return out.getvalue()


def _fmt2(value):
    return f"{value:.2f}"


def oracle_render_league(result, fmt):
    rows = _oracle_rows(result)
    if fmt == "json":
        return json.dumps(_oracle_dict(result), indent=2) + "\n"
    if fmt == "csv":
        return _oracle_csv_text(
            ["treatment", "comparator", "md", "ci_lower", "ci_upper", "se"],
            [[r["treatment"], r["comparator"], r["md"], r["ci_lower"], r["ci_upper"], r["se"]]
             for r in rows],
        )
    level = int(round(result.ci_level * 100))
    return _oracle_text_table(
        ["treatment", "comparator", "md", f"{level}% CI"],
        [
            [
                r["treatment"],
                r["comparator"],
                _fmt2(r["md"]),
                f"({_fmt2(r['ci_lower'])}, {_fmt2(r['ci_upper'])})",
            ]
            for r in rows
        ],
    )


# --- random results ----------------------------------------------------------

# names a CSV writer must quote and a JSON encoder must escape, and plain ones
NAME = st.text(st.sampled_from('ab ,"\\\'é€\t;:-'), min_size=1, max_size=6) | st.sampled_from(
    ["A", "drug, b", 'say "c"', "back\\slash", "dulaglutide 1.5 mg QW", "sémaglutide", "☃"])
EXTREME = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300]
VALUE = st.sampled_from(EXTREME) | st.floats(-1e6, 1e6, allow_nan=False)
SE = st.sampled_from([-0.0, 0.0, 1e-300, 1e300]) | st.floats(0.0, 1e6)
LEVELS = [0.5, 0.8, 0.9, 0.95, 0.99]  # levels the earlier header printed as the new one does


@st.composite
def results(draw) -> NmaResult:
    treatments = draw(st.lists(NAME, min_size=2, max_size=8, unique=True))
    n = len(treatments)
    grid = st.lists(VALUE, min_size=n * n, max_size=n * n)
    md = np.array(draw(grid)).reshape(n, n)
    se = np.array(draw(st.lists(SE, min_size=n * n, max_size=n * n))).reshape(n, n)
    level = draw(st.sampled_from(LEVELS))
    reference = draw(st.sampled_from(treatments))
    parameters = tuple(t for t in treatments if t != reference)
    return NmaResult(
        reference=reference,
        treatments=tuple(treatments),
        parameters=parameters,
        estimates=np.array(draw(st.lists(VALUE, min_size=n - 1, max_size=n - 1))),
        covariance=np.array(draw(st.lists(VALUE, min_size=(n - 1) ** 2, max_size=(n - 1) ** 2))).reshape(
            n - 1, n - 1),
        ci_level=level,
        comparisons=LeagueView(treatments, level, md, se),
        condition_number=draw(VALUE),
        notes=tuple(draw(st.lists(NAME, max_size=2))),
    )


RENDER = settings(derandomize=True, deadline=None, database=None, max_examples=150,
                  suppress_health_check=[HealthCheck.too_slow])


@RENDER
@given(results(), st.sampled_from(["json", "csv", "text"]))
def test_every_format_matches_the_earlier_renderer(result, fmt):
    assert _render_league(result, fmt) == oracle_render_league(result, fmt)


def test_the_oracle_sees_quoting_and_extremes():
    """The generator reaches what the property is about: quoted names and the extreme values."""
    names = ("drug, b", 'say "c"', "back\\slash", "☃")
    md = np.array([[0.0, -0.0, 1e300, 1e-300]] * 4)
    result = NmaResult("drug, b", names, names[1:], np.zeros(3), np.eye(3), 0.95,
                       LeagueView(names, 0.95, md, np.full((4, 4), 1e-300)), 1.0)
    csv_text, json_text = _render_league(result, "csv"), _render_league(result, "json")
    assert '"drug, b","say ""c""",-0.0,' in csv_text
    assert '"back\\\\slash"' in json_text and '"\\u2603"' in json_text
    assert csv_text == oracle_render_league(result, "csv") and json_text == oracle_render_league(result, "json")


def test_each_comparison_is_built_once_per_rendering(case_base, monkeypatch):
    """All three formats read `league_table` once: n(n-1) comparisons, where the JSON path
    once built every row twice."""
    meta = synthesize_meta(case_base, HBA1C, IntercurrentEventStrategy.HYPOTHETICAL)
    result = run_analysis(case_base, meta, HBA1C)
    n = len(result.treatments)
    built = Counter()

    def counted(self, *args, _init=engine.ComparisonResult.__init__, **kwargs):
        built["ComparisonResult"] += 1
        _init(self, *args, **kwargs)

    monkeypatch.setattr(engine.ComparisonResult, "__init__", counted)
    for fmt in ("json", "csv", "text"):
        built.clear()
        _render_league(result, fmt)
        assert built == Counter({"ComparisonResult": n * (n - 1)}), fmt
