"""The benchmark's tracer (bench/tracer.py) still finds what it wraps.

The tracer names package functions and methods from outside the package, so a
refactor that renames or moves one would break `bench/run.py --trace 1`, or
silently read 0 for a per-layer metric, without failing any other test.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import re
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
    assert {
        "pipeline.run_analysis", "pipeline.feasibility_report", "engine.assemble_gls", "engine.solve_fixed_effects"
    } <= spans
    assert tracer.calls_within("engine.assemble_gls", "pipeline.run_analysis") == (1, 1)
    assert tracer.totals()["setup"]["ingest.EvidenceBase.arm_summary"][0] > 0
    assert pipeline.run_analysis is original is run_analysis


def _layer_metric_names() -> set[str]:
    """Every function name that `layer_metrics` in bench/run.py reads, "<name>.items" as <name>."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    (layer_metrics,) = [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"
    ]
    return {
        node.args[0].value.removesuffix(".items")
        for node in ast.walk(layer_metrics)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.args and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
    }


def _wrapped(name: str, layers) -> bool:
    """Whether the tracer wraps `name`: a public function defined in its layer's
    module, or a method of a class there (the tracer wraps those it lists)."""
    layer, *classes, attr = name.split(".")
    if layer not in layers:
        return False
    owner = importlib.import_module(f"estimeta.{layer}")
    for cls in classes:
        owner = getattr(owner, cls, None)
    fn = vars(owner).get(attr) if owner is not None else None
    return inspect.isfunction(fn) and not attr.startswith("_") and (bool(classes) or fn.__module__ == owner.__name__)


def test_every_traced_name_is_wrapped(monkeypatch):
    """Each name the benchmark reads is still wrapped, so no layer metric reads 0 unnoticed."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    methods = {f"{layer}.{cls}.{method}" for layer, classes in tracer.METHODS.items()
               for cls, names in classes.items() for method in names}
    names = _layer_metric_names() | set(tracer.COUNT_ONLY) | methods
    assert {"engine.assemble_gls", "ingest.EvidenceBase.arm_summary", "estimands.canonical"} <= names
    assert [name for name in sorted(names) if not _wrapped(name, tracer.LAYERS)] == []


def _package_reads(source: str):
    """(module, name) for each name the code imports from estimeta, or reads off the package
    (`estimeta.x`, `em.x`, `self.em.x`), including code held in string literals."""
    tree, aliases = ast.parse(source), {"estimeta"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "estimeta")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "estimeta":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and (
            isinstance(node.value, ast.Name) and node.value.id in aliases
            or isinstance(node.value, ast.Attribute) and node.value.attr in aliases
        ):
            yield "estimeta", node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "estimeta" in node.value:
            try:  # set-up code for child interpreters, its format fields filled with a number
                yield from _package_reads(re.sub(r"\{\w*(![rs])?\}", "0", node.value))
            except SyntaxError:
                pass


def test_benchmark_imports_resolve():
    """Every name the benchmark and the case-study script take from estimeta still exists there."""
    files = [*sorted(BENCH.glob("*.py")), BENCH.parent / "scripts" / "run_case_study.py"]
    reads = {read for path in files for read in _package_reads(path.read_text(encoding="utf-8"))}
    assert {("estimeta.pipeline", "synthesize_meta"), ("estimeta", "parse_evidence")} <= reads
    missing = sorted((module, name) for module, name in reads  # a name, or a submodule not yet imported
                     if not hasattr(importlib.import_module(module), name)
                     and importlib.util.find_spec(f"{module}.{name}") is None)
    assert missing == []
