"""Byte-for-byte outputs on the bundled case study.

`golden/index.json` lists each CLI command (without its `--input`), its exit
code, and the file holding its exact stdout.  The files were captured from
`python -m estimeta` before ingestion was rewritten; regenerate them only
when an output change is intended.

`golden/feasibility_<endpoint>_<strategy>.json` holds
`json.dumps(feasibility_to_dict(...), indent=2)` for the four case-study
slices, captured before the restriction and alignment verdicts were merged;
no CLI command prints a feasibility report.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import estimeta as em
from conftest import HBA1C, WEIGHT
from estimeta.cli import main
from estimeta.estimands import IntercurrentEventStrategy
from estimeta.pipeline import feasibility_report, feasibility_to_dict, synthesize_meta

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))
HYP = IntercurrentEventStrategy.HYPOTHETICAL
TP = IntercurrentEventStrategy.TREATMENT_POLICY


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, capsys):
    argv = case["argv"]
    code = main([argv[0], "--input", str(em.case_study_path()), *argv[1:]])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode("utf-8") == (GOLDEN / f"{case['name']}.out").read_bytes()


@pytest.mark.parametrize("strategy", [HYP, TP], ids=lambda s: s.value)
@pytest.mark.parametrize("name, endpoint", [("hba1c", HBA1C), ("body_weight", WEIGHT)])
def test_feasibility_report_matches_golden(case_base, name, endpoint, strategy):
    meta = synthesize_meta(case_base, endpoint, strategy)
    text = json.dumps(feasibility_to_dict(feasibility_report(case_base, meta, endpoint)), indent=2) + "\n"
    assert text.encode("utf-8") == (GOLDEN / f"feasibility_{name}_{strategy.value}.json").read_bytes()
