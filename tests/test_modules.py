"""The package's modules meet only at public names."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import estimeta
from estimeta import records

PACKAGE = Path(estimeta.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _imports(path: Path):
    """(module, name) for each `from <module> import <name>` in a file, relative modules as `.x`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            yield from (("." * node.level + (node.module or ""), alias.name) for alias in node.names)


def test_no_module_imports_a_private_name():
    private = [(path.name, module, name) for path in sorted(PACKAGE.glob("*.py"))
               for module, name in _imports(path) if name.startswith("_")]
    assert private == []


def test_records_imports_nothing_from_the_package():
    modules = {module for module, _ in _imports(PACKAGE / "records.py")}
    assert not {m for m in modules if m.startswith(".") or m.split(".")[0] == "estimeta"}


def test_record_readers_are_not_functions_of_the_traced_modules(monkeypatch):
    """The benchmark's tracer keeps a span per call of each public function of its layers until
    the run ends, so the per-field converters, the memo helpers and the verdict key live elsewhere."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import LAYERS

    helpers = {name for name, obj in vars(records).items() if inspect.isfunction(obj)} | {"verdict_key"}
    assert {"value_of", "text_of", "as_number", "forms", "interned", "located"} <= helpers
    for layer in LAYERS:
        module = importlib.import_module(f"estimeta.{layer}")
        defined = {name for name, obj in vars(module).items()
                   if inspect.isfunction(obj) and obj.__module__ == module.__name__}
        assert defined & helpers == set(), layer


def test_one_cholesky_call_site():
    """Every covariance block is judged and factored by one engine function, so feasibility,
    validation and the solve cannot drift apart: the package calls a Cholesky routine once."""
    sites = [(path.name, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "cholesky"]
    assert len(sites) == 1, sites


def test_no_unused_imports():
    """Every name a module imports is read in it, so a deletion cannot leave a dead import.
    `__init__.py` re-exports what it imports and is exempt."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in sorted(imported - read)]
    assert unused == []


def test_no_unused_private_names():
    """Every module-level `_name` (function, class or constant) and every class's `_method` is read
    in its own module, so a deletion cannot strand a private helper."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [m.name for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        unused += [(path.name, name) for name in defined
                   if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unused == []


def test_dataclasses_use_what_only_a_dataclass_gives():
    """A `@dataclass` has a `__post_init__`, a `field(...)` or `eq=False`; a record of fields alone
    is a `NamedTuple`, whose class compiles one method at import where a dataclass compiles several.
    `ComparisonResult` and `StrategyRow` are exempt: tests count their construction by patching
    `__init__`, which a tuple subclass never runs."""
    plain = []
    for path in sorted(PACKAGE.glob("*.py")):
        classes = [n for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(n, ast.ClassDef)
                   and n.name not in {"ComparisonResult", "StrategyRow"}]
        for node in classes:
            decorators = [d for d in node.decorator_list if "dataclass" in ast.unparse(d)]
            if not decorators:
                continue
            post_init = any(isinstance(m, ast.FunctionDef) and m.name == "__post_init__" for m in node.body)
            field_call = any(isinstance(n, ast.Call) and ast.unparse(n.func) == "field" for n in ast.walk(node))
            no_eq = any(k.arg == "eq" and ast.unparse(k.value) == "False"
                        for d in decorators if isinstance(d, ast.Call) for k in d.keywords)
            if not (post_init or field_call or no_eq):
                plain.append((path.name, node.name))
    assert plain == []
