#!/usr/bin/env python3
"""In-process CPU times of one analysis-large slice, stage by stage.

    python3 scripts/slice_times.py --seed 101 [--calls 30]

Builds the analysis-large evidence of `bench/evidence.py` for the seed, parses it
once from CSV and synthesizes its hypothetical target, then calls each stage
`--calls` times, the stages taking turns so that a drift of the machine's speed
reaches all of them alike.  BLAS is pinned to one thread.  Prints one JSON line:
the median CPU milliseconds of `restrict_evidence`, `trial_blocks` (over the
feasible slice's network), `feasibility_report`, `run_analysis` and
`validate_evidence`.  The package is imported from this checkout's `src/`, so
running it alternately in two checkouts compares them call for call.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import evidence  # noqa: E402  (the benchmark's generator, read only)

from estimeta import parse_evidence, validate_evidence  # noqa: E402
from estimeta.engine import trial_blocks  # noqa: E402
from estimeta.estimands import IntercurrentEventStrategy  # noqa: E402
from estimeta.network import build_network  # noqa: E402
from estimeta.pipeline import feasibility_report, restrict_evidence, run_analysis, synthesize_meta  # noqa: E402


def stages(seed: int) -> dict:
    """Each stage as a call without arguments, over the seed's parsed analysis-large base."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "analysis.csv"
        evidence.analysis_large(seed).write_csv(path)
        base = parse_evidence(path)
    endpoint = evidence.HBA1C.lower()
    meta = synthesize_meta(base, endpoint, IntercurrentEventStrategy.HYPOTHETICAL)
    net = build_network(restrict_evidence(base, meta, endpoint).used)
    return {
        "restrict_evidence": lambda: restrict_evidence(base, meta, endpoint),
        "trial_blocks": lambda: trial_blocks(net.edges, base),
        "feasibility_report": lambda: feasibility_report(base, meta, endpoint),
        "run_analysis": lambda: run_analysis(base, meta, endpoint),
        "validate_evidence": lambda: validate_evidence(base),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--calls", type=int, default=30, help="calls of each stage (default 30)")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    calls = stages(args.seed)
    samples: dict[str, list[float]] = {name: [] for name in calls}
    for _ in range(args.calls):
        for name, call in calls.items():
            start = time.process_time()
            call()
            samples[name].append(time.process_time() - start)
    medians = {name: round(1e3 * statistics.median(times), 4) for name, times in samples.items()}
    print(json.dumps({"seed": args.seed, "calls": args.calls, "unit": "ms", "median_cpu": medians}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
