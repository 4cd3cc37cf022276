"""Function-wrapping spans, held in memory, with self time.

A :class:`Tracer` replaces chosen functions with wrappers that record one
span per call: its name, start, end and the span that was open when it
was called.  A function is replaced in every module namespace that holds
a reference to it, so calls made through ``from .model import x`` are
traced as well.  Nothing is written while spans are being recorded.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable, Optional

# A count hook receives (counts, args, result) after the wrapped call has
# returned; the time it takes is excluded from every span's self time.
CountHook = Callable[[Counter, tuple, object], None]


class Span:
    __slots__ = ("name", "start", "end", "parent", "hidden")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.hidden = 0.0  # time spent in count hooks of direct children

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent}


class Tracer:
    """Records spans for wrapped functions until :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook: Optional[CountHook]) -> Callable:
        spans, open_, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
            if hook is not None:
                hook(counts, args, result)
                if span.parent >= 0:
                    spans[span.parent].hidden += clock() - span.end
            return result

        return traced

    def install(self, package: str, targets: dict[str, Optional[CountHook]]) -> None:
        """Wrap each ``module.function`` of ``targets`` (names relative to
        ``package``) everywhere in the package's loaded modules."""
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == package or name.startswith(package + "."))
        ]
        for target, hook in targets.items():
            module_name, func_name = target.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
            wrapper = self._wrap(target, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span], first: int = 0) -> list[float]:
    """Self time of each span from ``first`` on: its duration minus the
    durations of its direct children and the time of their count hooks."""
    selves = [s.end - s.start - s.hidden for s in spans[first:]]
    for span in spans[first:]:
        if span.parent >= first:
            selves[span.parent - first] -= span.end - span.start
    return selves
