"""Outside-in tracer: spans around the library's public functions.

The library has no spans of its own, so the tracer replaces a function at
every module attribute a caller resolves it through (``normal_basis``
imports ``siegel_power`` by name, ``reciprocity`` calls ``w_group`` as a
module global, ...).  Spans are kept in memory with the request they
belong to and their parent span; self time is a span's duration minus
the part of it that child spans cover.  ``restore`` puts back every
attribute that ``install`` replaced.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = s.duration - covered
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording a span per call; ``note(args, kwargs, result, exc)``
        may return a dict stored on the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                len(tracer.spans),
                tracer._stack[-1] if tracer._stack else None,
                tracer.request,
                name,
                time.perf_counter(),
            )
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if note is not None:
                    span.info = note(args, kwargs, result, exc)

        return traced

    def install(self, package: str, targets):
        """Wrap each (module, function, note) of ``package`` wherever it is bound.

        Every loaded module of the package that holds the original function
        object under any name gets the wrapper under that name.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for module_name, function, note in targets:
            original = getattr(sys.modules[f"{package}.{module_name}"], function)
            wrapper = self.wrap(f"{module_name}.{function}", original, note)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def reset(self):
        self.spans = []
        self._stack = []
