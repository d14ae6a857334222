"""In-memory spans for the traced benchmark run.

A span is (name, parent index, start ns, end ns).  Spans are opened by the
benchmark's own harness around calls into the library's public functions;
nothing inside the library is instrumented.  A disabled tracer makes
`span` a no-op so the same body code runs untraced.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: int
    end: int = -1

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, parent, time.perf_counter_ns()))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter_ns()
            self._stack.pop()

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s.parent == -1 and s.name == name]

    def under(self, root: int) -> list[Span]:
        """Every span in the subtree of `root` (spans are stored in open order,
        so a subtree is the contiguous run of descendants after it)."""
        out = []
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent not in inside:
                break
            inside.add(i)
            out.append(self.spans[i])
        return out

    def self_ns(self) -> list[int]:
        """Span duration minus the time covered by its direct children
        (children of one thread never overlap)."""
        own = [s.ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.ns
        return own

    def nesting_errors(self) -> list[str]:
        """Spans left open, children outside their parent, or negative self time."""
        errors = []
        for i, s in enumerate(self.spans):
            if s.end < s.start:
                errors.append(f"span {i} {s.name!r} not closed")
                continue
            if s.parent >= 0:
                p = self.spans[s.parent]
                if not (p.start <= s.start and s.end <= p.end):
                    errors.append(f"span {i} {s.name!r} outside parent {p.name!r}")
        for i, own in enumerate(self.self_ns()):
            if own < 0:
                errors.append(f"span {i} {self.spans[i].name!r} self time {own} ns < 0")
        return errors

    def self_time_table(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self time in ms)."""
        table: dict[str, list] = {}
        for s, own in zip(self.spans, self.self_ns()):
            entry = table.setdefault(s.name, [0, 0.0])
            entry[0] += 1
            entry[1] += own / 1e6
        return {k: (v[0], v[1]) for k, v in sorted(table.items())}

