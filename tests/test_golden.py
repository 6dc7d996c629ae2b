"""Byte-for-byte CLI outputs on the bundled case study.

`golden/index.json` lists each command (without its `--input`), its exit
code, and the file holding its exact stdout.  The files were captured from
`python -m estimeta` before ingestion was rewritten; regenerate them only
when an output change is intended.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import estimeta as em
from estimeta.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, capsys):
    argv = case["argv"]
    code = main([argv[0], "--input", str(em.case_study_path()), *argv[1:]])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode("utf-8") == (GOLDEN / f"{case['name']}.out").read_bytes()
