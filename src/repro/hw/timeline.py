"""Event timeline of an accelerator run (Figure 2 (d) of the paper).

The micro-engine records one :class:`TimelineEvent` per hardware phase —
filling buffers via DMA, programming and computing on a CIM tile,
accumulating in the digital logic, storing results — so examples and tests
can reconstruct the execution timeline and verify pipelining.

Component naming convention: the single-tile (seed) path records plain
component names (``"dma"``, ``"crossbar"``); the multi-tile scheduler
prefixes them with the tile lane (``"tile0.dma"``, ``"tile2.crossbar"``),
so per-lane busy time and overlap can be checked with :meth:`Timeline.
busy_time` / :meth:`Timeline.by_component`.  Events on *different*
components may overlap in time (that is the point of double buffering and
multi-tile sharding); events on one component never do.  The reported
accelerator latency of a run is the timeline :attr:`Timeline.makespan_s`,
not the sum of event durations.

A timeline keeps the last :data:`TIMELINE_EVENTS` events, one fixed ring,
so a device or serving loop that runs forever does not grow with it; the
views below read what the ring holds.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple

from repro.hw.stats import sequential_sum

#: Events a :class:`Timeline` keeps; the oldest go first.
TIMELINE_EVENTS = 1024


class TimelineEvent(NamedTuple):
    """One hardware activity interval (immutable)."""

    component: str   # "dma", "crossbar", "digital", "micro_engine", "host"
    action: str      # "fill_buffer", "write_crossbar", "compute", ...
    start_s: float
    duration_s: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class Timeline:
    """The last :data:`TIMELINE_EVENTS` :class:`TimelineEvent`, in order."""

    def __init__(self) -> None:
        self.events: deque[TimelineEvent] = deque(maxlen=TIMELINE_EVENTS)

    def record(
        self, component: str, action: str, start_s: float, duration_s: float
    ) -> TimelineEvent:
        if duration_s < 0:
            raise ValueError("event duration must be non-negative")
        event = TimelineEvent(component, action, start_s, duration_s)
        self.events.append(event)
        return event

    def record_run(
        self, component: str, action: str, start_s: float, duration_s: float,
        count: int,
    ) -> float:
        """Record *count* back-to-back events of *duration_s* from
        *start_s*, each starting where the previous ended (one float
        addition per event); returns the end of the last."""
        if duration_s < 0:
            raise ValueError("event duration must be non-negative")
        append = self.events.append
        for _ in range(count):
            append(TimelineEvent(component, action, start_s, duration_s))
            start_s += duration_s
        return start_s

    @property
    def makespan_s(self) -> float:
        """Total span from the first event start to the last event end."""
        if not self.events:
            return 0.0
        start = min(e.start_s for e in self.events)
        end = max(e.end_s for e in self.events)
        return end - start

    def busy_time(self, component: str) -> float:
        """Total busy time of one component (intervals may overlap others)."""
        return sequential_sum(e.duration_s for e in self.events if e.component == component)

    def by_component(self) -> dict[str, list[TimelineEvent]]:
        grouped: dict[str, list[TimelineEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.component, []).append(event)
        return grouped

    def extend(self, events: Iterable[TimelineEvent]) -> None:
        self.events.extend(events)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def render(self, width: int = 60) -> str:
        """ASCII rendering of the timeline (one row per component)."""
        if not self.events:
            return "(empty timeline)"
        makespan = self.makespan_s or 1.0
        origin = min(e.start_s for e in self.events)
        lines = []
        for component, events in sorted(self.by_component().items()):
            row = [" "] * width
            for event in events:
                begin = int((event.start_s - origin) / makespan * (width - 1))
                end = int((event.end_s - origin) / makespan * (width - 1))
                for pos in range(begin, max(begin + 1, end + 1)):
                    if 0 <= pos < width:
                        row[pos] = "#"
            lines.append(f"{component:>12} |{''.join(row)}|")
        return "\n".join(lines)
