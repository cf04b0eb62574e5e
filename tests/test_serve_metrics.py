"""The metrics registry's ordered streams: ``snapshot()`` is exact and flat.

The registry keeps every percentile stream in ascending order as it is
observed and carries running sum / max / count, so a snapshot reads its
numbers by index.  These tests pin the two halves of that bargain: the
snapshot equals, to the last bit, what the arrival-order history gives
through the public ``percentile()``, ``max`` and a left-to-right mean;
and taking one touches nothing whose length grows with the history.
"""

from __future__ import annotations

import builtins
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.metrics as metrics_mod
from repro.serve.metrics import MetricsRegistry, percentile

#: Few distinct values, so ties (and repeated zeros) are the common case.
durations = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)
tenants = st.sampled_from([f"tenant-{index}" for index in range(7)])
observations = st.lists(
    st.one_of(
        st.tuples(st.just("completion"), tenants, durations, durations),
        st.tuples(st.just("batch"), st.integers(1, 64), st.booleans()),
    ),
    max_size=120,
)


def reference_snapshot(history) -> dict:
    """The latency / queueing / batching sections rebuilt from the
    arrival-order history, the way the registry used to compute them."""
    latencies = [event[2] for event in history if event[0] == "completion"]
    delays = [event[3] for event in history if event[0] == "completion"]
    sizes = [float(event[1]) for event in history if event[0] == "batch"]
    by_tenant: dict[str, list[float]] = {}
    for event in history:
        if event[0] == "completion":
            by_tenant.setdefault(event[1], []).append(event[2])
    expected: dict = {
        "batching": {
            "batches": len(sizes),
            "fused_batches": sum(
                1 for event in history if event[0] == "batch" and event[2]
            ),
            "mean_occupancy": round(sum(sizes) / len(sizes), 3) if sizes else 0.0,
            "max_size": max(sizes) if sizes else 0,
        }
    }
    if latencies:
        total = 0.0
        for latency_s in latencies:
            total += latency_s
        expected["latency_s"] = {
            "p50": percentile(latencies, 50),
            "p99": percentile(latencies, 99),
            "mean": total / len(latencies),
            "max": max(latencies),
        }
        expected["queueing_delay_s"] = {
            "p50": percentile(delays, 50),
            "p99": percentile(delays, 99),
        }
        expected["tenant_latency_p99_s"] = {
            tenant: percentile(values, 99)
            for tenant, values in sorted(by_tenant.items())
        }
    return expected


def observe(registry: MetricsRegistry, event) -> None:
    if event[0] == "completion":
        registry.observe_completion(event[1], event[2], event[3])
    else:
        registry.observe_batch(event[1], event[2])


def assert_same_bits(actual, expected) -> None:
    """Equal, and floats equal as bit patterns (``repr`` separates
    ``0.0`` from ``-0.0`` and ``16`` from ``16.0``)."""
    assert actual == expected
    assert repr(actual) == repr(expected)


@settings(max_examples=150, deadline=None)
@given(observations)
def test_snapshot_equals_the_arrival_order_reference(history):
    registry = MetricsRegistry()
    for count, event in enumerate(history, start=1):
        observe(registry, event)
        if count in (1, 2, len(history)):
            snap = registry.snapshot()
            expected = reference_snapshot(history[:count])
            for section, values in expected.items():
                assert_same_bits(snap[section], values)
            for section in ("latency_s", "queueing_delay_s", "tenant_latency_p99_s"):
                assert (section in snap) == (section in expected)
    if not history:
        assert "latency_s" not in registry.snapshot()


def test_snapshot_equals_the_reference_on_a_long_seeded_run():
    rng = random.Random(23)
    history = []
    for _ in range(3000):
        if rng.random() < 0.2:
            history.append(("batch", rng.randint(1, 16), rng.random() < 0.5))
        else:
            history.append((
                "completion",
                f"tenant-{rng.randrange(40)}",
                rng.choice([0.0, 1e-3, rng.random()]),
                rng.choice([0.0, rng.random() * 1e-2]),
            ))
    registry = MetricsRegistry()
    for event in history:
        observe(registry, event)
    snap = registry.snapshot()
    for section, values in reference_snapshot(history).items():
        assert_same_bits(snap[section], values)
    assert registry.latency_percentile_s(90) == percentile(
        [event[2] for event in history if event[0] == "completion"], 90
    )


def test_snapshot_touches_nothing_that_grows_with_history(monkeypatch):
    """After 20 000 observations, no ``sorted`` / ``max`` / ``sum`` call
    made during ``snapshot()`` sees more items than there are tenants."""
    num_tenants = 5
    rng = random.Random(7)
    registry = MetricsRegistry()
    for index in range(20_000):
        registry.observe_completion(
            f"tenant-{index % num_tenants}", rng.random(), rng.random() * 0.1
        )
        if index % 4 == 0:
            registry.observe_batch(1 + index % 16, fused=index % 8 == 0)
    for device_id in range(num_tenants):
        registry.observe_device_state(device_id, "up")
        registry.observe_fault(f"op-{device_id}")

    longest = []

    def guarded(name):
        builtin = getattr(builtins, name)

        def call(*args, **kwargs):
            # Two or more positional arguments are the items themselves.
            items = list(args[0]) if len(args) == 1 else list(args)
            longest.append((len(items), name))
            return builtin(items, **kwargs) if len(args) == 1 else builtin(*args, **kwargs)

        return call

    for name in ("sorted", "max", "sum"):
        monkeypatch.setattr(metrics_mod, name, guarded(name), raising=False)
    snap = registry.snapshot({f"tenant-{i}": 0 for i in range(num_tenants)})
    assert snap["requests"]["completed"] == 20_000
    assert len(snap["tenant_latency_p99_s"]) == num_tenants
    assert longest, "the shadows were never called: the guard guards nothing"
    assert max(longest)[0] <= num_tenants, max(longest)


def test_percentile_stays_public_and_sorts_its_input():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
