"""The benchmark's tracer (bench/tracer.py) still finds what it wraps.

The tracer names package functions and methods from outside the package, so a
refactor that renames or moves one would break `bench/run.py --trace 1`
without failing any other test.
"""

from __future__ import annotations

from pathlib import Path

from conftest import HBA1C
from estimeta import pipeline
from estimeta.estimands import IntercurrentEventStrategy
from estimeta.pipeline import run_analysis, synthesize_meta

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_case_study_analysis(case_base, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    meta = synthesize_meta(case_base, HBA1C, IntercurrentEventStrategy.HYPOTHETICAL)
    original = pipeline.run_analysis
    tracer = Tracer()
    tracer.install()
    try:
        pipeline.run_analysis(case_base, meta, HBA1C)
    finally:
        tracer.uninstall()

    spans = {span.name for span in tracer.spans}
    assert {"pipeline.run_analysis", "pipeline.feasibility_report", "engine.solve_fixed_effects"} <= spans
    assert tracer.totals()["setup"]["ingest.EvidenceBase.arm_summary"][0] > 0
    assert pipeline.run_analysis is original is run_analysis
