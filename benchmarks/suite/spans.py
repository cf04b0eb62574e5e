"""Span tracer for the benchmark's traced pass.

The tracer times calls into each layer's functions *from outside*: it
replaces an attribute of a class or module with a timing wrapper for the
duration of the traced pass and restores the original afterwards (the
idiom of ``_kernel_wall_clock`` in ``bench_serving_throughput.py``).  The
program under test is not edited and never sees the tracer.

One span is ``[name, start_s, end_s, parent, op]``: ``parent`` is the index
of the span that was open when this one started (-1 at top level) and
``op`` the identifier of the benchmark operation that caused it.  Spans
stay in memory until the pass ends.  A span's *self time* is its duration
minus the durations of its direct children, so the self times of all the
spans under one operation add up to the operation's wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Optional

#: Name of the span the runner opens around each benchmark operation.
#: Its self time is the part of the operation no wrapped layer covers.
OP_SPAN = "op"


class Tracer:
    """Records nested spans and exact counts at wrapped call boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Exact counts taken at the same boundaries (e.g. bytes moved).
        self.counts: dict[str, float] = {}
        self.op = -1
        self._current = -1
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        count: Optional[Callable[[tuple, object], float]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called *name*.

        ``count(args, result)`` optionally returns a quantity to add to
        ``counts[name]`` per call (measured where the work happens).
        """
        original = getattr(owner, attr)
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._current, self.op]
            parent = self._current
            self._current = len(spans)
            spans.append(record)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                self._current = parent
            if count is not None and self.op >= 0:
                counts[name] = counts.get(name, 0.0) + count(args, result)
            return result

        traced.__wrapped__ = original
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (last wrapped, first restored)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def operation(self, op: int):
        """The root span of one benchmark operation."""
        record = [OP_SPAN, 0.0, 0.0, -1, op]
        self.op = op
        self._current = len(self.spans)
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._current = -1
            self.op = -1

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time (seconds) per span name, over the spans that
        belong to an operation (wrapped calls made between operations,
        such as the runner's own output checks, are left out)."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        totals: dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            if span[4] >= 0:
                totals[span[0]] = totals.get(span[0], 0.0) + seconds
        return totals

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for span in self.spans:
            if span[4] >= 0:
                totals[span[0]] = totals.get(span[0], 0) + 1
        return totals

    def dump(self, path, max_ops: int = 32) -> None:
        """Write the spans of the first *max_ops* operations, plus the
        self-time table over all of them, as JSON."""
        ops_seen: list[int] = []
        kept = []
        index_map: dict[int, int] = {}
        for index, span in enumerate(self.spans):
            if span[4] < 0:
                continue
            if span[4] not in ops_seen:
                if len(ops_seen) == max_ops:
                    break
                ops_seen.append(span[4])
            index_map[index] = len(kept)
            kept.append(span)
        document = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "operations_written": len(ops_seen),
            "spans_recorded": len(self.spans),
            "spans": [
                [span[0], span[1], span[2], index_map.get(span[3], -1), span[4]]
                for span in kept
            ],
            "self_time_s": self.self_times(),
            "calls": self.calls(),
            "counts": self.counts,
        }
        with open(path, "w") as handle:
            json.dump(document, handle)
