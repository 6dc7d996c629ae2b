#!/usr/bin/env python3
"""estimeta benchmark: three workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload analysis-large --seed 7 --seconds 30 --trace 0

Run it from the repository root.  The package is imported from ``src/``; no
install is needed.  Each workload is a closed loop, one operation at a time in
one process, repeating whole rounds of a fixed list of operations for about
``--seconds``; operations are timed in CPU seconds (see ``cpu_seconds``).
After the timed loop every output is checked
against a computation made without estimeta.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the public functions of each layer are wrapped from outside
(see tracer.py) and the per-layer metrics are reported instead.  Details go
to standard error.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CASE = SRC / "estimeta" / "data" / "case_study.csv"
WORK = ROOT / ".bench_build" / "estimeta-bench"

# One BLAS thread in this process and its children, so that dense algebra does
# not compete with the closed loop or with other tenants of a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}

import evidence  # noqa: E402  (numpy is imported after the thread settings)
import oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class Op:
    kind: str
    fn: Callable[[], object]
    known_fault: Optional[type] = None  # an exception this op raises until a fault is fixed
    timed: bool = True  # counted in round_s


def median(values):
    return statistics.median(values) if values else 0.0


def cpu_seconds() -> float:
    """CPU time (user + system) of this process and its waited-for children.

    Every timing is CPU time, not wall time.  The work is single-threaded
    and CPU-bound, so on an idle machine the two agree; on a shared virtual
    machine wall time also counts the time the host runs other tenants
    (steal), which changed run times by up to 3x from one minute to the next.
    """
    me, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + children.ru_utime + children.ru_stime


def child(code: str) -> tuple[float, str]:
    """Run Python code in a fresh interpreter; return (CPU seconds, stdout)."""
    start = cpu_seconds()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=CHILD_ENV,
                          capture_output=True, text=True, timeout=120)
    spent = cpu_seconds() - start
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return spent, proc.stdout


# --- workloads ---------------------------------------------------------------


class Workload:
    """Inputs, set-up, one round of operations, and the checks of their outputs."""

    setup_repeats = 5
    setup_code = ""  # statements run after `import estimeta` in a set-up probe
    keep_all = False  # keep every round's outputs (for determinism checks)

    def __init__(self, seed: int, work: Path, traced: bool):
        self.seed, self.work, self.traced = seed, work, traced
        self.state: dict = {}  # results one operation hands to a later one in the same round

    def prepare(self) -> None:
        """Write the inputs; not part of the program's set-up."""

    def setup(self) -> None:
        import estimeta

        self.em = estimeta

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, outputs: list[list[object]]) -> list[str]:
        raise NotImplementedError

    def alloc_probe(self) -> Optional[Callable[[], object]]:
        """One run_analysis call for the tracemalloc peak, if the workload makes any."""
        return None


PUBLISHED = {  # semaglutide 2.0 mg vs each higher dulaglutide dose: md, CI lower, CI upper
    ("hba1c", "hypothetical"): {"dulaglutide 3.0 mg QW": (-0.47, -0.70, -0.23),
                                "dulaglutide 4.5 mg QW": (-0.30, -0.54, -0.07)},
    ("hba1c", "treatment_policy"): {"dulaglutide 3.0 mg QW": (-0.42, -0.68, -0.16),
                                    "dulaglutide 4.5 mg QW": (-0.28, -0.54, -0.02)},
    ("body weight", "hypothetical"): {"dulaglutide 3.0 mg QW": (-3.31, -4.50, -2.13),
                                      "dulaglutide 4.5 mg QW": (-3.15, -4.33, -1.96)},
    ("body weight", "treatment_policy"): {"dulaglutide 3.0 mg QW": (-2.64, -3.86, -1.41),
                                          "dulaglutide 4.5 mg QW": (-2.50, -3.73, -1.28)},
}
MD_TOL, CI_TOL = 0.03, 0.05
SEMA_2 = "semaglutide 2.0 mg QW"
STRATEGY_LABELS = {"hypothetical": {"efficacy", "de-jure", "hypothetical"},
                   "treatment_policy": {"treatment regimen", "de-facto", "treatment policy"}}
ENDPOINT_KEYS = {"hba1c": "change from baseline in hba1c",
                 "body weight": "change from baseline in body weight"}


class CaseStudyCli(Workload):
    """The bundled case study through the CLI, one subprocess per command."""

    keep_all = True

    def commands(self) -> list[list[str]]:
        case = str(CASE)
        rest = []
        for endpoint in ENDPOINT_KEYS:
            for strategy in STRATEGY_LABELS:
                rest.append(["network", "--input", case, "--endpoint", endpoint, "--estimand", strategy])
                for fmt in ("text", "csv", "json"):
                    rest.append(["analyze", "--input", case, "--endpoint", endpoint,
                                 "--estimand", strategy, "--format", fmt])
            for fmt in ("text", "csv", "json"):
                rest.append(["compare", "--input", case, "--endpoint", endpoint,
                             "--estimands", "hypothetical", "treatment_policy", "--format", fmt])
        random.Random(self.seed).shuffle(rest)  # the seed sets the order of the commands
        return [["validate", "--input", case]] + rest

    def setup(self) -> None:
        if self.traced:
            super().setup()

    def ops(self) -> list[Op]:
        run = self._in_process if self.traced else self._subprocess
        return [Op(argv[0], (lambda a=argv: run(a))) for argv in self.commands()]

    @staticmethod
    def _subprocess(argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run([sys.executable, "-m", "estimeta", *argv], cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout

    def _in_process(self, argv: list[str]) -> tuple[int, str]:
        from estimeta import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, outputs):
        problems = []
        ses = oracle.case_study_ses(CASE)
        for argv, results in zip(self.commands(), outputs):
            name = " ".join(a for a in argv if a != str(CASE))
            codes = {code for code, _ in results}
            if codes != {0}:
                problems.append(f"{name}: exit codes {sorted(codes)}")
                continue
            texts = {text for _, text in results}
            if len(texts) != 1:
                problems.append(f"{name}: stdout differs between invocations")
            problems += [f"{name}: {p}" for p in self._check_output(argv, results[0][1], ses)]
        return problems

    def _check_output(self, argv: list[str], text: str, ses: dict) -> list[str]:
        def opt(name, default=None):
            return argv[argv.index(name) + 1] if name in argv else default

        fmt, endpoint = opt("--format", "text"), opt("--endpoint")
        if argv[0] == "validate":
            return [f"unexpected issue: {line}" for line in text.splitlines() if not line.startswith("warning:")]
        if argv[0] == "network":
            key = ENDPOINT_KEYS[endpoint]
            labels = STRATEGY_LABELS[opt("--estimand")]
            expected = sorted((t, tr, co, 1.0 / se**2) for (t, lab, ep, tr, co), se in ses.items()
                              if ep == key and lab in labels)
            got = sorted((r[0].lower(), r[1].lower(), r[2].lower(), float(r[3]))
                         for r in (line.split(",") for line in text.splitlines()))
            if [g[:3] for g in got] != [e[:3] for e in expected]:
                return ["edge list differs from the evidence file"]
            if not all(oracle.close(g[3], e[3], 1e-12, 0.0) for g, e in zip(got, expected)):
                return ["edge weights differ from 1/se^2"]
            return []
        strategies = [opt("--estimand")] if argv[0] == "analyze" else ["hypothetical", "treatment_policy"]
        rows = self._pooled(argv[0], fmt, text, strategies)
        problems = []
        for strategy in strategies:
            for comparator, want in PUBLISHED[(endpoint, strategy)].items():
                got = rows.get((strategy, comparator))
                tol = (MD_TOL, CI_TOL, CI_TOL)
                if fmt == "text":  # two decimals
                    tol = tuple(t + 0.005 for t in tol)
                if got is None or any(abs(g - w) > t for g, w, t in zip(got[:3], want, tol)):
                    problems.append(f"{strategy} vs {comparator}: {got} not within tolerance of {want}")
                elif argv[0] == "compare" and endpoint == "body weight" and got[3] is not True:
                    problems.append(f"treatment policy does not attenuate vs {comparator}")
        if argv[0] == "compare" and endpoint == "body weight":
            for comparator in PUBLISHED[(endpoint, "hypothetical")]:
                hyp, tp = rows.get(("hypothetical", comparator)), rows.get(("treatment_policy", comparator))
                if hyp and tp and not abs(tp[0]) < abs(hyp[0]):
                    problems.append(f"|treatment policy| >= |hypothetical| vs {comparator}")
        return problems

    @staticmethod
    def _pooled(command: str, fmt: str, text: str, strategies: list[str]) -> dict:
        """(strategy, comparator) -> (md, lo, hi, attenuation) for rows of semaglutide 2.0 mg."""
        out = {}
        if fmt == "json":
            doc = json.loads(text)
            for r in doc["comparisons"] if command == "analyze" else doc["rows"]:
                if r["treatment"] != SEMA_2:
                    continue
                for s in strategies:
                    c = r if command == "analyze" else r[s]
                    out[s, r["comparator"]] = (c["md"], c["ci_lower"], c["ci_upper"], r.get("attenuation"))
        elif fmt == "csv":
            lines = text.splitlines()
            header = lines[0].split(",")
            for line in lines[1:]:
                r = dict(zip(header, line.split(",")))
                if r["treatment"] != SEMA_2:
                    continue
                for s in strategies:
                    prefix = "" if command == "analyze" else f"{s}_"
                    flag = r.get("attenuation")
                    out[s, r["comparator"]] = (float(r[prefix + "md"]), float(r[prefix + "ci_lower"]),
                                               float(r[prefix + "ci_upper"]),
                                               None if flag is None else flag == "true")
        else:
            number = r"(-?\d+\.\d+)"
            cell = re.compile(number + r"\s+\(" + number + ", " + number + r"\)")
            for line in text.splitlines()[1:]:
                if not line.startswith(SEMA_2):
                    continue
                comparator = re.split(r"\s{2,}", line)[1]
                cells = cell.findall(line)
                flag = None if command == "analyze" else line.rstrip().endswith("yes")
                for s, (md, lo, hi) in zip(strategies, cells):
                    out[s, comparator] = (float(md), float(lo), float(hi), flag)
        return out

    def alloc_probe(self):
        from estimeta.estimands import IntercurrentEventStrategy
        from estimeta.pipeline import run_analysis, synthesize_meta

        base = self.em.parse_evidence(CASE)
        key = ENDPOINT_KEYS["hba1c"]
        meta = synthesize_meta(base, key, IntercurrentEventStrategy.HYPOTHETICAL)
        return lambda: run_analysis(base, meta, key)


class IngestLarge(Workload):
    """Parse the same synthetic base from CSV and JSON, validate it, serialize it."""

    def prepare(self):
        self.ev = evidence.ingest_large(self.seed)
        self.csv, self.json = self.work / "ingest.csv", self.work / "ingest.json"
        self.ev.write_csv(self.csv)
        self.ev.write_json(self.json)

    def ops(self):
        em, state = self.em, self.state
        from estimeta.ingest import serialize_evidence

        def parse(path, key):
            state[key] = em.parse_evidence(path)
            return state[key]

        return [
            Op("parse_csv", lambda: parse(self.csv, "csv")),
            Op("parse_json", lambda: parse(self.json, "json")),
            Op("validate", lambda: em.validate_evidence(state["csv"])),
            Op("serialize_csv", lambda: serialize_evidence(state["csv"], "csv")),
            Op("serialize_json", lambda: serialize_evidence(state["csv"], "json")),
        ]

    def check(self, outputs):
        from estimeta.ingest import parse_evidence_text

        base_csv, base_json, issues, text_csv, text_json = (o[-1] for o in outputs)
        problems = []
        if base_csv != base_json:
            problems.append("CSV and JSON parse to different bases")
        problems += self._check_records(base_csv)
        problems += [f"validate: {i.message}" for i in issues if i.severity == "error"]
        for fmt, text in (("csv", text_csv), ("json", text_json)):
            if parse_evidence_text(text, fmt) != base_csv:
                problems.append(f"parsing the {fmt} serialization does not give the base back")
        return problems

    def _check_records(self, base) -> list[str]:
        ev = self.ev
        n_estimands = sum(len(t.estimands) for t in base.trials.values())
        counts = (len(base.trials), n_estimands, len(base.contrasts), len(base.arm_summaries))
        want = (len(ev.trials), len(ev.estimands), len(ev.contrasts), len(ev.arms))
        if counts != want:
            return [f"counts {counts} differ from the generator's {want}"]
        problems = []
        for got, rec in zip(base.contrasts, ev.contrasts):
            row = rec.row
            if (got.trial_id, got.treatment, got.comparator, got.md) != (
                    row["trial_id"], row["treatment"], row["comparator"], row["md"]):
                problems.append(f"contrast {row['trial_id']} {row['treatment']}: fields differ")
            elif got.source.value != rec.source or not oracle.close(got.se, rec.se, 1e-12, 0.0):
                problems.append(f"contrast {row['trial_id']} {row['treatment']}: se {got.se} "
                                f"({got.source.value}) vs {rec.se} ({rec.source})")
        for got, row in zip(base.arm_summaries, ev.arms):
            if (got.trial_id, got.treatment, got.mean_change, got.ci_lower, got.ci_upper) != (
                    row["trial_id"], row["treatment"], row["mean_change"], row["ci_lower"], row["ci_upper"]):
                problems.append(f"arm {row['trial_id']} {row['treatment']}: fields differ")
        return problems[:10]


class AnalysisLarge(Workload):
    """A 100-treatment network: feasibility, analyses and a strategy comparison."""

    setup_repeats = 3
    setup_code = (
        "from estimeta.estimands import IntercurrentEventStrategy as S\n"
        "from estimeta.pipeline import synthesize_meta\n"
        "base = estimeta.parse_evidence({path!r})\n"
        "for ep in ({main!r}, {wide!r}):\n"
        "    for s in (S.HYPOTHETICAL, S.TREATMENT_POLICY)[: 2 if ep == {main!r} else 1]:\n"
        "        synthesize_meta(base, ep, s, label=s.value)\n"
    )
    MAIN, WIDE = evidence.HBA1C.lower(), evidence.WIDE.lower()

    def prepare(self):
        self.ev = evidence.analysis_large(self.seed)
        self.path = self.work / "analysis.csv"
        self.ev.write_csv(self.path)
        self.setup_code = self.setup_code.format(path=str(self.path), main=self.MAIN, wide=self.WIDE)
        # Another reference than the default (the alphabetically first treatment).
        self.other_reference = sorted(self.ev.treatments)[len(self.ev.treatments) // 2]

    def setup(self):
        super().setup()
        from estimeta.estimands import IntercurrentEventStrategy as S
        from estimeta.pipeline import synthesize_meta

        self.base = self.em.parse_evidence(self.path)
        self.hyp = synthesize_meta(self.base, self.MAIN, S.HYPOTHETICAL, label=S.HYPOTHETICAL.value)
        self.tp = synthesize_meta(self.base, self.MAIN, S.TREATMENT_POLICY, label=S.TREATMENT_POLICY.value)
        self.wide = synthesize_meta(self.base, self.WIDE, S.HYPOTHETICAL, label=S.HYPOTHETICAL.value)

    def ops(self):
        from estimeta.network import ConnectivityCheckError
        from estimeta.pipeline import compare_strategies, feasibility_report, run_analysis

        base, state = self.base, self.state

        def analyse(key, meta, endpoint, **kw):
            def op():
                state[key] = run_analysis(base, meta, endpoint, **kw)
                return state[key]
            return op

        return [
            Op("feasibility", lambda: feasibility_report(base, self.hyp, self.MAIN)),
            Op("analysis", analyse("hyp", self.hyp, self.MAIN)),
            Op("feasibility", lambda: feasibility_report(base, self.tp, self.MAIN)),
            Op("analysis", analyse("tp", self.tp, self.MAIN)),
            Op("analysis", analyse("hyp_ref", self.hyp, self.MAIN, reference=self.other_reference)),
            Op("compare", lambda: compare_strategies(
                {"hypothetical": state["hyp"], "treatment_policy": state["tp"]}, self.MAIN)),
            Op("wide", analyse("wide", self.wide, self.WIDE), known_fault=ConnectivityCheckError, timed=False),
        ]

    def check(self, outputs):
        import numpy as np

        feas_hyp, hyp, feas_tp, tp, hyp_ref, table, wide = (o[-1] for o in outputs)
        ev, problems = self.ev, []
        n_slice = {s: sum(1 for c in ev.contrasts if c.strategy == s and c.row["endpoint_name"] == evidence.HBA1C)
                   for s in (evidence.HYP, evidence.TP)}
        for report, strategy in ((feas_hyp, evidence.HYP), (feas_tp, evidence.TP)):
            if report.verdict.value != "feasible" or len(report.restriction.used) != n_slice[strategy]:
                problems.append(f"feasibility {strategy}: {report.verdict.value}, "
                                f"{len(report.restriction.used)} of {n_slice[strategy]} contrasts used")
        for result, strategy in ((hyp, evidence.HYP), (tp, evidence.TP), (hyp_ref, evidence.HYP)):
            trials = oracle.slice_trials(ev, evidence.HBA1C, strategy)
            problems += [f"{strategy} ref {result.reference}: {p}" for p in oracle.check_result(result, trials)]
            used = {id(c) for c in result.provenance.used}
            excluded = {id(e.contrast) for e in result.provenance.excluded}
            if used & excluded or len(used) + len(excluded) != len(self.base.contrasts) \
                    or len(used) != n_slice[strategy]:
                problems.append(f"{strategy}: provenance does not partition the contrasts")
        problems += self._check_league(hyp, hyp_ref)
        problems += self._check_table(table, hyp, tp)
        if not isinstance(wide, Exception):  # the fault is fixed: check it like the others
            rtol = max(oracle.RTOL, 10 * wide.condition_number * np.finfo(float).eps)
            trials = oracle.slice_trials(ev, evidence.WIDE, evidence.HYP)
            problems += [f"wide-weight chain: {p}" for p in oracle.check_result(wide, trials, rtol)]
        return problems

    @staticmethod
    def _check_league(result, other) -> list[str]:
        import numpy as np

        names = list(result.treatments)
        md = np.array([[0.0 if a == b else result.comparisons[a, b].md for b in names] for a in names])
        se = np.array([[0.0 if a == b else result.comparisons[a, b].se for b in names] for a in names])
        problems = []
        if not (np.array_equal(md, -md.T) and np.array_equal(se, se.T)):
            problems.append("league table is not antisymmetric")
        # md(a, c) = md(a, b) + md(b, c) for every triple
        if np.max(np.abs(md[:, None, :] - (md[:, :, None] + md[None, :, :]))) > 1e-9:
            problems.append("league table is not additive")
        # Criterion 5 of the acceptance suite: 1e-10 between references.
        for key, c in result.comparisons.items():
            o = other.comparisons[key]
            if abs(o.md - c.md) >= 1e-10 or abs(o.se - c.se) >= 1e-10:
                problems.append(f"league table depends on the reference ({key})")
                break
        return problems

    @staticmethod
    def _check_table(table, hyp, tp) -> list[str]:
        n = len(hyp.treatments)
        if len(table.rows) != n * (n - 1):
            return [f"compare_strategies: {len(table.rows)} rows for {n} treatments"]
        for row in table.rows:
            pair = (row.treatment, row.comparator)
            h, t = row.by_label["hypothetical"], row.by_label["treatment_policy"]
            if h != hyp.comparisons[pair] or t != tp.comparisons[pair] or row.attenuation != (abs(t.md) < abs(h.md)):
                return [f"compare_strategies row {pair} disagrees with its analyses"]
        return []

    def alloc_probe(self):
        from estimeta.pipeline import run_analysis

        return lambda: run_analysis(self.base, self.hyp, self.MAIN)


WORKLOADS = {"case-study-cli": CaseStudyCli, "ingest-large": IngestLarge, "analysis-large": AnalysisLarge}


# --- measuring ---------------------------------------------------------------


def measure_setup(workload: Workload) -> list[float]:
    """The program's set-up, in fresh interpreters: import estimeta plus the workload's set-up."""
    code = ("import sys, time\nt0 = time.process_time()\nimport estimeta\n" + workload.setup_code
            + "sys.stdout.write(repr(time.process_time() - t0))\n")
    child("import estimeta")  # warm the bytecode cache; a user pays that once
    return [float(child(code)[1]) for _ in range(workload.setup_repeats)]


def run_rounds(workload: Workload, ops: list[Op], seconds: float, on_round=None):
    """Whole rounds of `ops`, as many as bring the run closest to `seconds`; at least one.

    Each round starts from the same state: the previous round's results are
    dropped first (unless the workload keeps them all), so that memory does
    not depend on the number of rounds.
    """
    samples: list[list[float]] = [[] for _ in ops]
    outputs: list[list[object]] = [[] for _ in ops]
    attempted = failed = rounds = 0
    problems: list[str] = []
    start = time.perf_counter()
    while rounds == 0 or (time.perf_counter() - start) * (1 + 0.5 / rounds) < seconds:
        if on_round:
            on_round(rounds)
        workload.state.clear()
        if not workload.keep_all:
            for kept in outputs:
                kept.clear()
        for i, op in enumerate(ops):
            t0 = cpu_seconds()
            try:
                value = op.fn()
            except Exception as exc:  # an operation's failure is counted, not fatal
                value = exc
                failed += 1
                if not (op.known_fault and isinstance(exc, op.known_fault)):
                    problems.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            else:
                if op.timed:
                    samples[i].append(cpu_seconds() - t0)
            attempted += 1
            outputs[i].append(value)
        rounds += 1
    return samples, outputs, attempted, failed, rounds, problems


def checked(workload: Workload, outputs) -> list[str]:
    """The workload's checks; one that raises is a failed check, not a crash."""
    try:
        return workload.check(outputs)
    except Exception as exc:
        traceback.print_exc()
        return [f"checking raised {type(exc).__name__}: {exc}"]


def by_kind(ops: list[Op], samples: list[list[float]]) -> dict[str, tuple[int, list[float]]]:
    """kind -> (timed operations of that kind in a round, every sample of the kind)."""
    kinds: dict[str, tuple[int, list[float]]] = {}
    for op, s in zip(ops, samples):
        if op.timed:
            count, values = kinds.get(op.kind, (0, []))
            kinds[op.kind] = (count + 1, values + s)
    return kinds


def round_time(ops: list[Op], samples: list[list[float]]) -> float:
    """One round: per kind of operation, its median time times its count in a round.

    Pooling the samples of a kind gives each median more samples, so that a
    few seconds in which the machine runs slow move it less.
    """
    return sum(count * median(values) for count, values in by_kind(ops, samples).values())


def report_kinds(ops, samples, rounds) -> None:
    print(f"rounds: {rounds}", file=sys.stderr)
    for kind, (count, values) in by_kind(ops, samples).items():
        print(f"  {kind:<16} median {median(values):.6f} s over {len(values)}", file=sys.stderr)


def end_to_end(workload: Workload, seconds: float):
    setup = measure_setup(workload)
    workload.setup()
    ops = workload.ops()
    samples, outputs, attempted, failed, rounds, problems = run_rounds(workload, ops, seconds)
    usage = resource.RUSAGE_CHILDREN if isinstance(workload, CaseStudyCli) else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    report_kinds(ops, samples, rounds)
    print(f"  set-up samples: {', '.join(f'{s:.4f}' for s in setup)}", file=sys.stderr)
    problems += checked(workload, outputs)
    metrics = {"setup_s": median(setup), "round_s": round_time(ops, samples), "peak_rss_mb": peak_mb}
    return metrics, attempted, failed, problems


def traced(workload: Workload, seconds: float, out: Path):
    """The traced run; also writes every function's calls and times per phase to `out`."""
    from tracer import Tracer

    interpreter = [child("pass")[0] for _ in range(5)]
    imports = [child("import estimeta")[0] for _ in range(5)]
    import estimeta  # noqa: F401  (the tracer patches its loaded modules)

    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
        ops = workload.ops()  # built under the tracer: they hold the wrappers
        samples, outputs, attempted, failed, rounds, problems = run_rounds(
            workload, ops, seconds, on_round=tracer.set_phase)
    finally:
        tracer.uninstall()
    report_kinds(ops, samples, rounds)
    problems += checked(workload, outputs)

    peak_alloc = 0.0
    probe = workload.alloc_probe()
    if probe is not None:
        tracemalloc.start()
        try:
            probe()
            peak_alloc = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    metrics = layer_metrics(tracer, rounds)
    totals = {str(phase): {name: dict(zip(("calls", "inclusive_s", "self_s"), v)) for name, v in per.items()}
              for phase, per in tracer.totals().items()}
    out.write_text(json.dumps(totals, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"per-function totals written to {out}", file=sys.stderr)
    floor = median(interpreter)
    metrics.update({
        "cli.interpreter_s": floor,
        "cli.import_s": median(imports) - floor,
        "pipeline.run_analysis_peak_alloc_mb": peak_alloc,
        "trace.round_s": round_time(ops, samples),
    })
    return metrics, attempted, failed, problems


def layer_metrics(tracer, rounds: int) -> dict:
    """Per-layer figures for one set-up plus one round (the median round)."""
    totals = tracer.totals()

    def value(name: str, field: int) -> float:
        setup = totals.get("setup", {}).get(name, [0, 0.0, 0.0])[field]
        return setup + median([totals.get(r, {}).get(name, [0, 0.0, 0.0])[field] for r in range(rounds)])

    def calls(name):
        return value(name, 0)

    def inclusive(name):
        return value(name, 1)

    def own(name):
        return value(name, 2)

    def per_slice(name):
        inside, slices = tracer.calls_within(name, "pipeline.run_analysis")
        return inside / slices if slices else 0.0

    records = calls("ingest.parse_evidence.items") + calls("pipeline.restrict_evidence.items")
    canonical = calls("estimands.canonical")
    return {
        "cli.main_s": inclusive("cli.main"),
        "ingest.parse_evidence_s": inclusive("ingest.parse_evidence"),
        "ingest.validate_evidence_s": inclusive("ingest.validate_evidence"),
        "ingest.serialize_evidence_s": inclusive("ingest.serialize_evidence"),
        "ingest.arm_summary_calls": calls("ingest.EvidenceBase.arm_summary"),
        "ingest.estimand_of_calls": calls("ingest.EvidenceBase.estimand_of"),
        "estimands.canonical_calls": canonical,
        "estimands.canonical_per_record": canonical / records if records else 0.0,
        "estimands.matches_meta_calls": calls("estimands.matches_meta"),
        "estimands.matches_meta_s": inclusive("estimands.matches_meta"),
        "estimands.heterogeneity_matrix_s": inclusive("estimands.heterogeneity_matrix"),
        "pipeline.synthesize_meta_s": own("pipeline.synthesize_meta"),
        "pipeline.restrict_evidence_s": own("pipeline.restrict_evidence"),
        "pipeline.restrict_evidence_calls": calls("pipeline.restrict_evidence"),
        "pipeline.feasibility_report_s": own("pipeline.feasibility_report"),
        "pipeline.run_analysis_s": own("pipeline.run_analysis"),
        "pipeline.compare_strategies_s": own("pipeline.compare_strategies"),
        "network.build_network_s": inclusive("network.build_network"),
        "network.is_connected_s": inclusive("network.is_connected"),
        "network.is_connected_per_slice": per_slice("network.is_connected"),
        "network.laplacian_connected_s": inclusive("network.laplacian_connected"),
        "network.connected_components_s": inclusive("network.connected_components"),
        "engine.assemble_gls_s": own("engine.assemble_gls"),
        "engine.assemble_gls_per_slice": per_slice("engine.assemble_gls"),
        "engine.solve_fixed_effects_s": own("engine.solve_fixed_effects"),
        "engine.league_table_s": own("engine.league_table"),
        "engine.comparison_calls": calls("engine.comparison"),
        "engine.comparison_s": own("engine.comparison"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "estimeta" / "__init__.py").is_file():
        print(f"estimeta sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work, bool(args.trace))
        workload.prepare()
        if args.trace:
            out = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed, problems = traced(workload, args.seconds, out)
        else:
            metrics, attempted, failed, problems = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": UNITS[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
