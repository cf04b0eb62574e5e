"""Serving metrics: queue depths, batch occupancy, latency percentiles,
compile-cache hit rates.

The registry is passive — the server pushes observations into it as the
event loop progresses — and :meth:`MetricsRegistry.snapshot` folds the
state into one plain dictionary (JSON-ready, used by the benchmark
harness and by operators' dashboards in a real deployment).  Percentiles
are computed on the simulated latencies with linear interpolation, the
same convention as ``numpy.percentile``; everything is deterministic
because the underlying clock is.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Optional


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) without NumPy —
    the registry must stay importable in stripped-down tooling."""
    return _percentile_of_ordered(sorted(values), q)


def _percentile_of_ordered(ordered: list[float], q: float) -> float:
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


class MetricsRegistry:
    """Aggregated serving statistics."""

    def __init__(self) -> None:
        self.submitted = 0
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.batches = 0
        self.fused_batches = 0
        self.batch_size_sum = 0.0
        self.batch_size_max = 0.0
        #: The percentile streams are kept in ascending order as they are
        #: observed (``insort`` places ties after their equals, the order
        #: a stable ``sorted()`` of the arrival list gives), so a snapshot
        #: reads percentiles by index and never touches the history.
        self.ordered_latencies_s: list[float] = []
        #: Left-to-right sum of the latencies in arrival order (the
        #: snapshot's mean is pinned by golden traces, so it is not left
        #: to builtin ``sum()``).
        self.latency_sum_s = 0.0
        self.latency_max_s = -math.inf
        self.ordered_queueing_delays_s: list[float] = []
        self.ordered_tenant_latencies_s: dict[str, list[float]] = {}
        self.compile_cache_hits = 0
        self.compile_cache_misses = 0
        self.peak_queue_depth = 0
        self.peak_queue_tenant: Optional[str] = None
        # Fleet health (populated only by the fleet tier).
        self.device_states: dict[int, str] = {}
        self.retries = 0
        self.migrations = 0
        self.faults_injected = 0
        self.faults_by_op: dict[str, int] = {}
        self.faults_recovered = 0
        self.faults_unrecovered = 0
        # Gateway resilience (populated only by the wall-clock tier).
        self.hangs_detected = 0
        self.respawns = 0
        self.spares_promoted = 0
        self.slots_quarantined = 0
        self.deadline_shed = 0
        self.deadline_expired = 0
        self.corrupt_frames = 0
        self.late_frames_ignored = 0

    # ------------------------------------------------------------------
    # Observations pushed by the server
    # ------------------------------------------------------------------
    def observe_submit(self) -> None:
        self.submitted += 1

    def observe_admission(self, admitted: bool) -> None:
        if admitted:
            self.admitted += 1
        else:
            self.rejected += 1

    def observe_queue_depth(self, tenant: str, depth: int) -> None:
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth
            self.peak_queue_tenant = tenant

    def observe_batch(self, size: int, fused: bool) -> None:
        self.batches += 1
        self.batch_size_sum += size
        if size > self.batch_size_max:
            self.batch_size_max = float(size)
        if fused:
            self.fused_batches += 1

    def observe_completion(
        self, tenant: str, latency_s: float, queueing_delay_s: float
    ) -> None:
        self.completed += 1
        insort(self.ordered_latencies_s, latency_s)
        self.latency_sum_s += latency_s
        if latency_s > self.latency_max_s:
            self.latency_max_s = latency_s
        insort(self.ordered_queueing_delays_s, queueing_delay_s)
        insort(self.ordered_tenant_latencies_s.setdefault(tenant, []), latency_s)

    def observe_failure(self) -> None:
        self.failed += 1

    # ------------------------------------------------------------------
    # Fleet-tier observations
    # ------------------------------------------------------------------
    def observe_device_state(self, device_id: int, state: str) -> None:
        self.device_states[device_id] = state

    def observe_fault(self, op: str) -> None:
        self.faults_injected += 1
        self.faults_by_op[op] = self.faults_by_op.get(op, 0) + 1

    def observe_retry(self) -> None:
        self.retries += 1

    def observe_migration(self) -> None:
        self.migrations += 1

    def observe_recovery(self) -> None:
        """A previously-faulted request was eventually served to success."""
        self.faults_recovered += 1

    def observe_unrecovered(self) -> None:
        """A faulted request exhausted its retries (or had no device left)."""
        self.faults_unrecovered += 1

    def observe_compile(self, hits_delta: int, misses_delta: int) -> None:
        self.compile_cache_hits += hits_delta
        self.compile_cache_misses += misses_delta

    # ------------------------------------------------------------------
    # Gateway-resilience observations (wall-clock tier only)
    # ------------------------------------------------------------------
    def observe_hang_detected(self) -> None:
        """The watchdog declared a worker wedged and killed it."""
        self.hangs_detected += 1

    def observe_respawn(self) -> None:
        """A dead worker slot was refilled with a fresh process."""
        self.respawns += 1

    def observe_spare_promoted(self) -> None:
        """A pre-spawned hot spare took over a dead worker's slot."""
        self.spares_promoted += 1

    def observe_slot_quarantined(self) -> None:
        """A crash-looping worker slot exhausted its respawn budget."""
        self.slots_quarantined += 1

    def observe_deadline_shed(self) -> None:
        """A request's deadline passed before dispatch (never ran)."""
        self.deadline_shed += 1

    def observe_deadline_expired(self) -> None:
        """A request's deadline expired while it was in flight."""
        self.deadline_expired += 1

    def observe_corrupt_frame(self) -> None:
        """A worker shipped an undecodable response frame."""
        self.corrupt_frames += 1

    def observe_late_frame(self) -> None:
        """A response frame arrived from a worker already declared dead."""
        self.late_frames_ignored += 1

    # ------------------------------------------------------------------
    @property
    def mean_batch_occupancy(self) -> float:
        """Mean requests per dispatch batch (1.0 = no coalescing)."""
        if not self.batches:
            return 0.0
        return self.batch_size_sum / self.batches

    @property
    def compile_cache_hit_rate(self) -> float:
        total = self.compile_cache_hits + self.compile_cache_misses
        if total == 0:
            return 0.0
        return self.compile_cache_hits / total

    def latency_percentile_s(self, q: float) -> float:
        return _percentile_of_ordered(self.ordered_latencies_s, q)

    # ------------------------------------------------------------------
    def snapshot(self, queue_depths: Optional[dict[str, int]] = None) -> dict:
        """One JSON-ready view of every serving metric."""
        snap: dict = {
            "requests": {
                "submitted": self.submitted,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
            },
            "batching": {
                "batches": self.batches,
                "fused_batches": self.fused_batches,
                "mean_occupancy": round(self.mean_batch_occupancy, 3),
                "max_size": self.batch_size_max if self.batches else 0,
            },
            "queues": {
                "current_depths": dict(queue_depths or {}),
                "peak_depth": self.peak_queue_depth,
                "peak_tenant": self.peak_queue_tenant,
            },
            "compile_cache": {
                "hits": self.compile_cache_hits,
                "misses": self.compile_cache_misses,
                "hit_rate": round(self.compile_cache_hit_rate, 4),
            },
        }
        if self.device_states:
            states = list(self.device_states.values())
            snap["fleet"] = {
                "devices": {
                    str(device_id): state
                    for device_id, state in sorted(self.device_states.items())
                },
                "up": states.count("up"),
                "quarantined": states.count("quarantined"),
                "drained": states.count("drained"),
                "retries": self.retries,
                "migrations": self.migrations,
                "faults_injected": self.faults_injected,
                "faults_by_op": dict(sorted(self.faults_by_op.items())),
                "faults_recovered": self.faults_recovered,
                "faults_unrecovered": self.faults_unrecovered,
            }
        resilience = {
            "hangs_detected": self.hangs_detected,
            "respawns": self.respawns,
            "spares_promoted": self.spares_promoted,
            "slots_quarantined": self.slots_quarantined,
            "deadline_shed": self.deadline_shed,
            "deadline_expired": self.deadline_expired,
            "corrupt_frames": self.corrupt_frames,
            "late_frames_ignored": self.late_frames_ignored,
        }
        if any(resilience.values()):
            # Only when something fired: the simulated tiers never touch
            # these counters and their golden snapshots must stay stable.
            snap["resilience"] = resilience
        if self.ordered_latencies_s:
            snap["latency_s"] = {
                "p50": self.latency_percentile_s(50),
                "p99": self.latency_percentile_s(99),
                "mean": self.latency_sum_s / len(self.ordered_latencies_s),
                "max": self.latency_max_s,
            }
            snap["queueing_delay_s"] = {
                "p50": _percentile_of_ordered(self.ordered_queueing_delays_s, 50),
                "p99": _percentile_of_ordered(self.ordered_queueing_delays_s, 99),
            }
            snap["tenant_latency_p99_s"] = {
                tenant: _percentile_of_ordered(ordered, 99)
                for tenant, ordered in sorted(self.ordered_tenant_latencies_s.items())
            }
        return snap
