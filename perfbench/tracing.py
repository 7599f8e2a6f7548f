"""Spans around the package's public functions, recorded from outside.

``traced`` rebinds each listed function at every ``milnor_frames``
module that holds it (``milnor_frames.curvature.change_basis`` as well
as ``milnor_frames.lie_core.change_basis``), so calls between package
modules are seen too, and restores the originals on exit.  No package
file is edited.  Spans are recorded only inside an item span, so the
benchmark's own oracle calls stay out of the trace.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "milnor_frames"

LAYERS = {
    "sampling": ("sample_metric",),
    "eigensolve": ("jacobi_eigh",),
    "lie_core": ("change_basis",),
    "curvature": ("levi_civita", "riemann", "ricci_operator", "closed_form_ricci"),
    "frame_reduction": ("validate_gram", "gram_to_group_element", "reduce"),
    "derivations": ("derivation_basis", "conjugated_derivation_basis", "is_derivation"),
    "solvsoliton": ("solvsoliton_solve", "classify_metric"),
}
FUNCTIONS = tuple(f for fns in LAYERS.values() for f in fns)
ITEM = "item"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    item: int


@dataclass
class Tracer:
    """In-memory span recorder; one per traced run."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _item: int | None = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, -1 if self._item is None else self._item)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def item(self, item_id: int):
        """Root span of one work item; package calls inside it are recorded."""
        self._item = item_id
        span = self._open(ITEM)
        try:
            yield
        finally:
            self._close(span)
            self._item = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._item is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper


def _package_modules() -> list:
    importlib.import_module(PACKAGE)
    return [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


def originals() -> dict[str, object]:
    """The listed functions that exist in the package; a removed one is absent."""
    found = {}
    for module, names in LAYERS.items():
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            continue
        for name in names:
            fn = getattr(mod, name, None)
            if callable(fn):
                found[name] = fn
    return found


@contextmanager
def traced(tracer: Tracer):
    """Rebind every listed function to a recording wrapper; restore on exit."""
    wrappers = {id(fn): tracer.wrap(name, fn) for name, fn in originals().items()}
    rebound = []
    try:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                    rebound.append((mod, attr, value))
        yield tracer
    finally:
        for mod, attr, value in reversed(rebound):
            setattr(mod, attr, value)


@dataclass
class LayerStats:
    calls: int = 0
    self_total: float = 0.0
    self_times: list[float] = field(default_factory=list)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def aggregate(spans: list[Span]) -> tuple[dict[str, LayerStats], float, int]:
    """Per-name self-time statistics, the traced wall time (the sum of the
    root item spans) and the number of items."""
    stats: dict[str, LayerStats] = {}
    wall = 0.0
    items = 0
    for s, own in zip(spans, self_times(spans)):
        st = stats.setdefault(s.name, LayerStats())
        st.calls += 1
        st.self_total += own
        st.self_times.append(own)
        if s.parent < 0:
            wall += s.end - s.start
            items += 1
    return stats, wall, items


def write_spans(spans: list[Span], path) -> None:
    """One tab-separated line per span: name, start, end, parent, item."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\titem\n")
        for s in spans:
            fh.write(f"{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.item}\n")
