"""Arrival-time plans for the wall-clock gateway's open-loop load generator.

An :class:`ArrivalPlan` is a sorted sequence of wall-clock offsets (in
seconds from the start of a run) at which the load generator fires
requests *regardless of completions* — the open-loop discipline, which
measures the latency the offered load actually induces instead of the
closed-loop artefact where a slow server throttles its own load.

Two plan families:

* :func:`poisson_plan` — memoryless arrivals at a fixed rate (seeded
  exponential inter-arrival gaps), the classic open-loop workload;
* :func:`trace_plan` — arrivals resampled from a recorded trace's
  submission times (replay-driven load), with optional
  time **amplification** (compress or stretch the recording's timescale)
  and **jittered resampling** (seeded uniform perturbation of each
  arrival) so one recording generates a family of statistically similar
  workloads rather than a single fixed schedule.  Recorded simulated
  timescales are microsecond-ish, so amplification is also how a
  recording becomes a feasible wall-clock schedule.

Plans are deterministic given their seed: the same seed reproduces the
same schedule bit-for-bit, which the gateway tests and CI lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.schema import Trace, TraceFormatError


@dataclass(frozen=True)
class ArrivalPlan:
    """A sorted schedule of request fire times (seconds from run start)."""

    kind: str                      # "poisson" | "trace"
    times_s: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.times_s:
            raise ValueError("an arrival plan needs at least one arrival")
        if any(t < 0 for t in self.times_s):
            raise ValueError("arrival times cannot be negative")
        if any(
            later < earlier
            for earlier, later in zip(self.times_s, self.times_s[1:])
        ):
            raise ValueError("arrival times must be sorted")

    def __len__(self) -> int:
        return len(self.times_s)

    @property
    def duration_s(self) -> float:
        return self.times_s[-1] - self.times_s[0]

    @property
    def mean_rate_rps(self) -> float:
        """Offered request rate over the plan's span."""
        if self.duration_s == 0.0:
            return float("inf")
        return (len(self.times_s) - 1) / self.duration_s


def poisson_plan(
    num_requests: int, rate_rps: float, seed: int = 0
) -> ArrivalPlan:
    """Open-loop Poisson arrivals: *num_requests* fire times with seeded
    exponential gaps at mean rate *rate_rps*."""
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate_rps, size=num_requests)
    gaps[0] = 0.0  # the first request fires at t=0
    return ArrivalPlan(kind="poisson", times_s=tuple(np.cumsum(gaps).tolist()))


def trace_plan(
    trace: Trace,
    num_requests: int = 0,
    amplify: float = 1.0,
    jitter_s: float = 0.0,
    seed: int = 0,
) -> ArrivalPlan:
    """Arrivals resampled from *trace*'s recorded submission times.

    The recorded arrival offsets (zeroed at the first submission) form
    the base pattern.  ``num_requests`` beyond the pattern length tiles
    the pattern end to end, each repetition shifted by the pattern span
    plus its mean inter-arrival gap (so repetitions do not collide);
    ``num_requests=0`` keeps the recorded length.  ``amplify`` > 1
    compresses time by that factor (a recording at simulated
    microseconds becomes a feasible wall schedule); ``jitter_s`` perturbs
    each arrival by a seeded uniform offset in ``[-jitter_s, +jitter_s]``
    (clamped at zero and re-sorted), turning one recording into a family
    of similar workloads.
    """
    if amplify <= 0:
        raise ValueError("amplify must be positive")
    if jitter_s < 0:
        raise ValueError("jitter_s cannot be negative")
    submissions = trace.submissions()
    if not submissions:
        raise TraceFormatError("trace records no submissions to resample")
    base = np.array(
        sorted(float(event["arrival_s"]) for event in submissions)
    )
    base -= base[0]
    if num_requests < 1:
        num_requests = len(base)
    # Tile the base pattern to the requested length, keeping its rhythm:
    # each repetition restarts one mean gap after the previous one ends.
    span = float(base[-1])
    mean_gap = span / (len(base) - 1) if len(base) > 1 else 1.0
    period = span + mean_gap if span > 0 else max(mean_gap, 1.0)
    repetitions = -(-num_requests // len(base))  # ceil division
    times = np.concatenate(
        [base + repetition * period for repetition in range(repetitions)]
    )[:num_requests]
    times = times / amplify
    if jitter_s > 0.0:
        rng = np.random.default_rng(seed)
        times = times + rng.uniform(-jitter_s, jitter_s, size=len(times))
        times = np.sort(np.clip(times, 0.0, None))
    times = times - times[0]  # the first request always fires at t=0
    return ArrivalPlan(kind="trace", times_s=tuple(times.tolist()))
