"""Smoke tests of the bundled scripts, run as a user would run them."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_case_study_script_reports_body_weight_attenuation():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_case_study.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    _, _, body_weight = run.stdout.partition("=== change from baseline in body weight ")
    _, _, attenuation = body_weight.partition("attenuation (treatment policy closer to the null):")
    lines = re.findall(r"^  vs dulaglutide \d\.\d mg QW .* -> yes$", attenuation, flags=re.M)
    assert len(lines) == 3, run.stdout
    assert run.stdout == (ROOT / "tests" / "golden" / "run_case_study.out").read_text(encoding="utf-8")


def test_slice_times_prints_one_line_of_stage_medians():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "slice_times.py"), "--seed", "101", "--calls", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()
    report = json.loads(line)
    assert (report["seed"], report["calls"], report["unit"]) == (101, 2, "ms")
    stages = ["restrict_evidence", "trial_blocks", "feasibility_report", "run_analysis", "validate_evidence"]
    assert list(report["median_cpu"]) == stages
    assert all(value > 0 for value in report["median_cpu"].values())
