"""Span recording around the benchmark's calls into the library.

Spans are recorded from the benchmark side only: a ``Traced`` stand-in
wraps a library module so that each call of one of its public functions
records one span.  Nothing inside the library is instrumented, so a span
covers the whole call, including any library code it reaches.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    error: str | None = None


class Tracer:
    """Keeps spans in memory; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, self.op, perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp), separators=(",", ":")) + "\n")

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (self seconds, calls).

        A span's self time is its duration minus the time its direct
        children cover; children never overlap, since the run has one
        thread.
        """
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.end - sp.start
        out: dict[str, tuple[float, int]] = {}
        for sp in self.spans:
            busy, calls = out.get(sp.name, (0.0, 0))
            out[sp.name] = (busy + (sp.end - sp.start) - child_time[sp.id], calls + 1)
        return out


class Traced:
    """Stand-in for a library module: each public function call is a span.

    The span is named ``<layer>.<function>``.  Classes and constants are
    passed through untouched.
    """

    def __init__(self, module, layer: str, tracer: Tracer) -> None:
        self._module = module
        self._layer = layer
        self._tracer = tracer

    def __getattr__(self, attr: str):
        obj = getattr(self._module, attr)
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            return obj
        name = f"{self._layer}.{attr}"
        tracer = self._tracer

        def call(*args, **kwargs):
            with tracer.span(name):
                return obj(*args, **kwargs)

        return call
