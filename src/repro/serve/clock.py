"""The serving layer's clocks: one protocol, two implementations.

Everything in the emulated stack is deterministic, so the simulated
serving tiers do not need real concurrency: they advance one
:class:`VirtualClock` through arrival, batching-window and service events
in order.  Two runs over the same submission sequence therefore produce
identical schedules, timelines and accounting — the property every
serving test and benchmark leans on.

The wall-clock gateway (:mod:`repro.gateway`) runs the same dispatch
machinery against real time: :class:`WallClock` implements the same
:class:`Clock` protocol over ``time.monotonic`` so timestamps, pacing and
latency measurement read identically at both tiers, while ``advance``
becomes an actual sleep (real time cannot be skipped, only waited out).
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Monotonic time in seconds — simulated or real.

    ``advance``/``advance_to`` move time forward: the virtual
    implementation jumps instantly, the wall implementation sleeps.  Both
    are monotonic (moving backwards is a no-op) and both report the
    current time through :attr:`now_s`.
    """

    @property
    def now_s(self) -> float: ...

    def advance(self, delta_s: float) -> float: ...

    def advance_to(self, time_s: float) -> float: ...


def capped_backoff_s(base_s: float, max_s: float, attempt: int) -> float:
    """Capped exponential backoff before retry number *attempt* (1-based):
    ``min(base * 2**(attempt-1), max)``.  The fleet waits it out in
    simulated seconds, the gateway's respawn scheduler in wall seconds."""
    return min(base_s * 2 ** (attempt - 1), max_s)


class VirtualClock:
    """Monotonic simulated time in seconds."""

    def __init__(self, start_s: float = 0.0):
        if start_s < 0:
            raise ValueError("clock cannot start before t=0")
        self._now_s = float(start_s)

    @property
    def now_s(self) -> float:
        return self._now_s

    def advance(self, delta_s: float) -> float:
        """Move time forward by *delta_s* (>= 0); returns the new time."""
        if delta_s < 0:
            raise ValueError(f"cannot advance the clock by {delta_s}")
        self._now_s += delta_s
        return self._now_s

    def advance_to(self, time_s: float) -> float:
        """Move time forward to *time_s*; moving backwards is a no-op
        (events that already happened never rewind the clock)."""
        if time_s > self._now_s:
            self._now_s = time_s
        return self._now_s

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now_s:.9f}s)"


class WallClock:
    """Real monotonic time, zeroed at construction.

    ``now_s`` is seconds since the clock was created (so wall timestamps
    read like virtual ones: a run starts near t=0).  ``advance`` and
    ``advance_to`` *sleep* — real time cannot be skipped — which is what
    the open-loop load generator leans on to pace arrivals.
    """

    def __init__(self) -> None:
        self._epoch = time.monotonic()

    @property
    def now_s(self) -> float:
        return time.monotonic() - self._epoch

    def advance(self, delta_s: float) -> float:
        """Sleep *delta_s* seconds (>= 0); returns the new time."""
        if delta_s < 0:
            raise ValueError(f"cannot advance the clock by {delta_s}")
        if delta_s > 0:
            time.sleep(delta_s)
        return self.now_s

    def advance_to(self, time_s: float) -> float:
        """Sleep until *time_s*; times already past return immediately."""
        remaining = time_s - self.now_s
        if remaining > 0:
            time.sleep(remaining)
        return self.now_s

    def __repr__(self) -> str:
        return f"WallClock(now={self.now_s:.6f}s)"
