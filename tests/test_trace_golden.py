"""Golden-trace differential gates (PR 7 satellite).

The fixtures under ``tests/traces/`` are recordings of the canonical
scenarios in :mod:`repro.trace.scenarios` at their pinned seeds.
Replaying them through *today's* code and diffing bit-for-bit is the
cross-version regression gate: any change that moves a response byte, a
wear integer, an energy ``fsum`` or a scheduling decision fails here.

When an intentional behavior change lands, re-record per docs/trace.md::

    PYTHONPATH=src python -m repro.cli serve --scenario <name> \
        --record tests/traces/<name>.jsonl
"""

from __future__ import annotations

import copy
from pathlib import Path

import numpy as np
import pytest

from repro.trace import (
    SCENARIOS,
    Trace,
    TraceReplayer,
    decode_array,
    diff_traces,
    load_trace,
)

TRACES_DIR = Path(__file__).parent / "traces"

FIXTURES = {
    "serve_multitenant": TRACES_DIR / "serve_multitenant.jsonl",
    "fleet_faultstorm": TRACES_DIR / "fleet_faultstorm.jsonl",
}


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def golden(request):
    """(scenario name, loaded trace, replay result) — replayed once per
    fixture, shared across the module's assertions."""
    name = request.param
    trace = load_trace(FIXTURES[name])
    return name, trace, TraceReplayer(trace).replay()


def test_fixtures_exist_and_load():
    for name, path in FIXTURES.items():
        assert path.exists(), f"missing golden fixture {path}"
        trace = load_trace(path)
        assert trace.kind in ("serve", "fleet")


def test_golden_replay_is_bit_identical(golden):
    name, _, result = golden
    assert result.identical, (
        f"golden trace {name!r} no longer replays bit-identically:\n"
        + result.diff.summary()
    )


def test_golden_responses_bit_identical_arrays(golden):
    """Beyond the diff verdict: decode the recorded and replayed result
    payloads and compare the raw bytes directly."""
    _, trace, result = golden
    recorded = trace.responses()
    replayed = result.replayed.responses()
    assert recorded.keys() == replayed.keys()
    compared = 0
    for request_id, response in recorded.items():
        for array_name, payload in (response.get("result") or {}).items():
            expected = decode_array(payload)
            actual = decode_array(replayed[request_id]["result"][array_name])
            assert expected.dtype == actual.dtype
            assert expected.tobytes() == actual.tobytes()
            compared += 1
    assert compared > 0, "fixture has no completed responses to compare"


def test_golden_bills_match_exactly(golden):
    """Integer wear by ==, fsum energies by exact float equality —
    replay determinism means the same IEEE doubles, not 'close'."""
    _, trace, result = golden
    for tenant, bill in trace.tenant_bills().items():
        replayed = result.replayed.tenant_bills()[tenant]
        assert bill["wear_bytes"] == replayed["wear_bytes"]
        assert bill["macs"] == replayed["macs"]
        assert bill["dma_bytes"] == replayed["dma_bytes"]
        assert bill["energy_j"] == replayed["energy_j"]
        assert bill["accelerator_energy_j"] == replayed["accelerator_energy_j"]
    for device_id, bill in trace.device_bills().items():
        replayed = result.replayed.device_bills()[device_id]
        assert bill["physical_cell_writes"] == replayed["physical_cell_writes"]
        assert bill["billed_wear_bytes"] == replayed["billed_wear_bytes"]
        assert bill["compensated_wear_bytes"] == replayed["compensated_wear_bytes"]
        assert bill["physical_energy_j"] == replayed["physical_energy_j"]
        assert bill["billed_energy_j"] == replayed["billed_energy_j"]
        assert bill["partition_ok"] and replayed["partition_ok"]


def test_golden_fixture_matches_pinned_scenario(golden):
    """The committed fixture is the scenario at its pinned seed — a
    fresh recording must reproduce the fixture, not just replay it (so
    the fixture cannot drift from the generator)."""
    name, trace, _ = golden
    fresh = SCENARIOS[name]()
    diff = diff_traces(trace, fresh)
    assert diff.identical, (
        f"scenario {name!r} no longer reproduces its committed fixture "
        f"(re-record if the change is intentional):\n" + diff.summary()
    )
    # The diff compares values; the fixture is pinned as bytes.
    assert fresh.dumps() == FIXTURES[name].read_text()


@pytest.mark.parametrize(
    "kind, key, retype",
    [
        ("header", "schema_version", float),       # 2 vs 2.0
        ("tenant_bill", "completed", float),       # an integer bill field
        ("device_bill", "partition_ok", int),      # true vs 1
    ],
)
def test_trace_diff_is_type_strict(kind, key, retype):
    """A value that differs only in its JSON type is a mismatch: ``==``
    would call ``0`` and ``0.0``, or ``true`` and ``1``, the same."""
    trace = load_trace(FIXTURES["fleet_faultstorm"])
    events = copy.deepcopy(trace.events)
    event = next(event for event in events if event["event"] == kind)
    retyped = retype(event[key])
    assert retyped == event[key] and type(retyped) is not type(event[key])
    event[key] = retyped
    diff = diff_traces(trace, Trace(events))
    assert diff.count() == 1, diff.summary()
    assert f"{event[key]!r}" in diff.summary() and key in diff.summary()


def test_serve_fixture_covers_every_terminal_path():
    trace = load_trace(FIXTURES["serve_multitenant"])
    statuses = {r["status"] for r in trace.responses().values()}
    assert statuses == {"completed", "rejected", "failed"}


def test_fleet_fixture_is_a_real_storm():
    """The fleet fixture must keep exercising the interesting machinery:
    injected faults, a drained device, a compensation, migrations."""
    trace = load_trace(FIXTURES["fleet_faultstorm"])
    assert len(trace.of_kind("fault")) >= 2
    states = {b["device_id"]: b["state"] for b in trace.device_bills().values()}
    assert "drained" in states.values()
    assert sum(b["compensations"] for b in trace.device_bills().values()) >= 1
    assert sum(r["migrations"] for r in trace.responses().values()) >= 1
    assert all(r["status"] == "completed" for r in trace.responses().values())


def test_fleet_results_are_exact_integer_float32(golden):
    """Cross-machine bit-identity rests on integer-valued float32
    payloads; guard the property the fixtures are built on."""
    _, trace, _ = golden
    for submission in trace.submissions():
        for array_name, payload in submission["arrays"].items():
            array = decode_array(payload)
            assert array.dtype == np.float32
            np.testing.assert_array_equal(array, np.trunc(array))
