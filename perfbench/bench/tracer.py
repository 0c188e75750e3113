"""In-memory span recorder that wraps a program's functions from outside.

The benchmark's traced runs patch the public entry points of each layer
(a layer is a ``repro`` module, named without the ``repro.`` prefix) with
thin wrappers that record one span per call: name, start, end, and the
parent span — the enclosing traced call on the same thread or asyncio
task, tracked through a :class:`contextvars.ContextVar`.  Spans stay in
memory and are written out once, when the run ends.

:func:`layer_stats` and :func:`group_busy_s` turn the span list into the
per-layer numbers the benchmark reports: calls, busy time and self time.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections.abc import Callable, Iterable
from typing import Any

__all__ = [
    "Span",
    "Tracer",
    "covered_s",
    "self_times",
    "layer_stats",
    "group_busy_s",
    "group_calls",
    "load_spans",
]

#: module-name prefixes whose bindings are rebound when a function is
#: patched (the program, and this benchmark's own workload modules)
_PATCH_SCOPES = ("repro", "bench")


@dataclasses.dataclass(frozen=True, slots=True)
class Span:
    """One traced call."""

    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def layer_of(module_name: str) -> str:
    """``repro.core.sessions`` -> ``core.sessions``."""
    return module_name[len("repro."):] if module_name.startswith("repro.") else module_name


class _TracedIterator:
    """Iterator proxy: each ``next()`` on the wrapped generator is a span."""

    __slots__ = ("_tracer", "_it", "_name", "_layer")

    def __init__(self, tracer: "Tracer", it, name: str, layer: str) -> None:
        self._tracer = tracer
        self._it = it
        self._name = name
        self._layer = layer

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        with self._tracer.span(self._name, self._layer):
            return next(self._it)


class Tracer:
    """Span recorder plus the patching that feeds it.

    Every ``patch_*`` call is undone by :meth:`uninstall` (also on
    ``with`` exit), so a traced phase leaves the program as it found it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._undo: list[Callable[[], None]] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(Span(sid, name, layer, start, end, parent))

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        Generator functions yield a proxy whose every ``next()`` is a
        span (time spent *inside* the iterator); coroutine functions are
        awaited inside the span.
        """
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                with tracer.span(name, layer):
                    return await fn(*args, **kwargs)

            return async_wrapper
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _TracedIterator(tracer, fn(*args, **kwargs), name, layer)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, layer):
                return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def patch_function(self, module_name: str, attr: str) -> None:
        """Wrap a module-level function everywhere it is bound.

        ``from x import f`` copies the binding into the importer, so the
        defining module alone is not enough: every loaded module of the
        program (and of this benchmark) holding the same object is
        rebound too.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        layer = layer_of(module_name)
        wrapper = self.wrap(original, f"{layer}.{attr}", layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or (
                mod is not module and not mod_name.startswith(_PATCH_SCOPES)
            ):
                continue
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(functools.partial(setattr, mod, key, original))

    def patch_method(self, owner: Any, attr: str) -> None:
        """Wrap a method on a class (all instances) or on one instance."""
        cls = owner if isinstance(owner, type) else type(owner)
        defining = next((c for c in cls.__mro__ if attr in c.__dict__), cls)
        layer = layer_of(defining.__module__)
        name = f"{layer}.{defining.__name__}.{attr}"
        if isinstance(owner, type):
            had_own = attr in owner.__dict__
            original = owner.__dict__[attr] if had_own else getattr(owner, attr)
            if not inspect.isfunction(original):
                raise TypeError(f"{cls.__name__}.{attr} is not a plain method")
            setattr(owner, attr, self.wrap(original, name, layer))
            if had_own:
                self._undo.append(functools.partial(setattr, owner, attr, original))
            else:
                self._undo.append(functools.partial(delattr, owner, attr))
        else:
            bound = getattr(owner, attr)
            setattr(owner, attr, self.wrap(bound, name, layer))
            self._undo.append(functools.partial(delattr, owner, attr))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- output ----------------------------------------------------------

    def dump(self, path: str, header: dict[str, Any] | None = None) -> None:
        """Write the spans as JSON lines after one ``header`` line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header or {}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


def load_spans(path: str) -> tuple[dict[str, Any], list[Span]]:
    """Read a :meth:`Tracer.dump` file back: (header, spans)."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [Span(**json.loads(line)) for line in fh if line.strip()]
    return header, spans


# -- derived numbers ---------------------------------------------------------


def covered_s(lo: float, hi: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered_s(s.start, s.end, children.get(s.sid, ()))
        for s in spans
    }


def _outermost(spans: list[Span], member: Callable[[Span], bool]) -> list[Span]:
    """Member spans with no member ancestor (so nesting is counted once)."""
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        if not member(s):
            continue
        p = s.parent
        while p is not None and p in by_id and not member(by_id[p]):
            p = by_id[p].parent
        if p is None or p not in by_id:
            out.append(s)
    return out


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: ``calls``, ``busy_s`` and ``self_s``.

    Busy time sums the layer's outermost spans (a call nested in another
    call of the same layer is already inside it); self time sums each
    span's duration minus what its children cover.
    """
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[s.sid]
        p = s.parent
        while p is not None and p in by_id and by_id[p].layer != s.layer:
            p = by_id[p].parent
        if p is None or p not in by_id:
            row["busy_s"] += s.duration
    return out


def group_busy_s(spans: list[Span], names: Iterable[str]) -> float:
    """Time inside any of ``names``, nested calls among them counted once."""
    wanted = set(names)
    return sum(s.duration for s in _outermost(spans, lambda x: x.name in wanted))


def group_calls(spans: list[Span], names: Iterable[str]) -> int:
    wanted = set(names)
    return sum(1 for s in spans if s.name in wanted)
