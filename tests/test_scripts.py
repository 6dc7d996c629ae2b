"""Smoke test of the bundled case-study script, run as a user would run it."""

from __future__ import annotations

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
