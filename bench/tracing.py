"""In-memory spans recorded around the benchmark's calls into resmat.

A span has a name, start and end (``perf_counter`` seconds), the index of
the span that encloses it, the op it belongs to, and a ``probe`` flag.
Probe spans repeat work that also happens inside another call (for
example an LU factorization the workspace already did), so they are kept
out of an op's replayed-call sum.  Spans stay in memory until the run
ends, when :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | str
    probe: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op: int | str = "setup"
        self.spans: list[Span | None] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def _record(self, name: str, probe: bool):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            yield index
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.op, probe)

    def span(self, name: str):
        """Time one call into the program, as the CLI makes it."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, probe=False)

    def probe(self, name: str):
        """Time a call that repeats work done inside another call."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, probe=True)

    def closed(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        spans = self.closed()
        covered = [0.0] * len(self.spans)
        for s in spans:
            if s.parent is not None:
                covered[s.parent] += s.seconds
        result: dict[str, list[float]] = defaultdict(list)
        for index, s in enumerate(self.spans):
            if s is not None:
                result[s.name].append(s.seconds - covered[index])
        return result

    def children(self, parent: int) -> list[Span]:
        return [s for s in self.closed() if s.parent == parent]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.closed()]) + "\n")


def median_or_zero(values) -> float:
    """Median of the values, or 0.0 for a call the workload never makes."""
    values = list(values)
    return statistics.median(values) if values else 0.0
