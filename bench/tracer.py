"""Outside-in tracing of estimeta's public functions.

The tracer replaces each public function of the traced modules with a wrapper,
at every module attribute that names it: ``pipeline`` and ``engine`` bind
``is_connected``, ``assemble_gls`` and ``canonical`` with ``from ... import``,
so patching only the defining module would miss their calls.  Nothing inside
the package changes; ``uninstall`` puts every original back.

Most functions record a span (name, parent, start, end, phase) so that self
time can be computed.  Hot helpers, called millions of times, are only
counted.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = ("cli", "ingest", "estimands", "pipeline", "network", "engine")
# Called per string or per field; a span each would cost more than the call.
COUNT_ONLY = {
    "estimands.canonical",
    "estimands.normalize_id",
    "ingest.se_from_ci",
    "ingest.EvidenceBase.arm_summary",
    "ingest.EvidenceBase.estimand_of",
}
# Public methods worth counting; methods are not otherwise wrapped.
METHODS = {"ingest": {"EvidenceBase": ("arm_summary", "estimand_of")}}
# Records each call handles, counted under "<name>.items" after the span ends.
ITEMS = {
    "ingest.parse_evidence": lambda args, base: (
        len(base.trials) + sum(len(t.estimands) for t in base.trials.values())
        + len(base.contrasts) + len(base.arm_summaries)),
    "pipeline.restrict_evidence": lambda args, restriction: len(args[0].contrasts),
}


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at top level
    start: float
    end: float
    phase: object  # "setup" or a round number
    ok: bool = False  # returned without raising


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (phase, name) -> calls
        self.phase: object = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._cells: dict[str, list[int]] = {}  # count-only calls in the current phase

    # --- wrapping ------------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.process_time  # CPU time, as run.py
        items = ITEMS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, stack[-1] if stack else -1, 0.0, 0.0, self.phase)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                span.ok = True
            finally:
                span.end = clock()
                stack.pop()
            if items:
                self.counts[span.phase, name + ".items"] += items(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def set_phase(self, phase) -> None:
        """Close the current phase's counts and start counting for `phase`."""
        for name, cell in self._cells.items():
            self.counts[self.phase, name] += cell[0]
            cell[0] = 0
        self.phase = phase

    def _wrap(self, name: str, fn):
        return self._counted(name, fn) if name in COUNT_ONLY else self._spanned(name, fn)

    def install(self) -> None:
        """Wrap every public function of the traced layers wherever it is bound."""
        modules = [importlib.import_module(f"estimeta.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    self._set(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))
        bound = [m for name, m in sys.modules.items() if name == "estimeta" or name.startswith("estimeta.")]
        for module in bound:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._set(module, attr, wrappers[id(obj)])

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.set_phase(self.phase)
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- summaries -----------------------------------------------------------

    def totals(self) -> dict:
        """Per phase and function: calls, inclusive time and self time.

        Returns {phase: {name: [calls, inclusive_s, self_s]}}.  Count-only
        functions have calls and no times.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict = {}
        for span, children in zip(self.spans, child_time):
            entry = out.setdefault(span.phase, {}).setdefault(span.name, [0, 0.0, 0.0])
            duration = span.end - span.start
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - children
        for (phase, name), calls in self.counts.items():
            out.setdefault(phase, {}).setdefault(name, [0, 0.0, 0.0])[0] += calls
        return out

    def calls_within(self, name: str, ancestor: str) -> tuple[int, int]:
        """(calls of `name` under an `ancestor` call that returned, number of such calls)."""
        inside = 0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent >= 0:
                if self.spans[parent].name == ancestor:
                    inside += self.spans[parent].ok
                    break
                parent = self.spans[parent].parent
        return inside, sum(1 for span in self.spans if span.name == ancestor and span.ok)
