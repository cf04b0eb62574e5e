"""The gateway's headline gate: wall-clock vs VirtualClock, bit-exact (PR 9).

Drives the golden serving trace through both modes and requires
bit-identical responses, usage, bills and accounting — plus coverage of
the diff machinery itself (a perturbed run must be caught, a fleet trace
must be refused) and the ``repro gateway`` CLI entrypoints.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main as repro_main
from repro.gateway.differential import (
    BILL_FIELDS,
    DIFF_SECTIONS,
    diff_runs,
    gateway_config_from_trace,
    reference_run,
    run_differential,
)
from repro.trace.schema import TraceFormatError, load_trace

GOLDEN = "tests/traces/serve_multitenant.jsonl"
FLEET = "tests/traces/fleet_faultstorm.jsonl"


@pytest.fixture(scope="module")
def golden_trace():
    return load_trace(GOLDEN)


@pytest.fixture(scope="module")
def differential(golden_trace):
    """One full differential, shared across this module's assertions."""
    return run_differential(golden_trace, num_workers=2)


class TestDifferential:
    def test_modes_are_bit_identical(self, differential):
        assert differential.identical, differential.diff.summary()
        assert differential.num_requests == 12
        assert "identical" in differential.diff.summary()

    def test_both_partitions_reconcile(self, differential):
        assert all(differential.reference.partition.values())
        assert all(differential.gateway.partition.values())

    def test_usage_and_bills_are_populated(self, differential):
        # The diff passing must not be vacuous: completed requests were
        # billed in both modes, with every compared field present.
        assert differential.reference.usage
        assert differential.reference.usage.keys() == differential.gateway.usage.keys()
        for tenant, bill in differential.reference.tenant_bills.items():
            assert set(BILL_FIELDS) <= set(bill), tenant
        assert differential.reference.tenant_bills.keys() == {
            "acme",
            "free-tier",
            "globex",
        }

    def test_perturbed_usage_is_caught(self, golden_trace, differential):
        tampered = copy.deepcopy(differential.gateway)
        rid = next(iter(tampered.usage))
        tampered.usage[rid]["accelerator_energy_j"] *= 1.0 + 1e-15
        diff = diff_runs(golden_trace, differential.reference, tampered)
        assert not diff.identical
        assert any("accelerator_energy_j" in m for m in diff.mismatches["usage"])

    def test_perturbed_result_bytes_are_caught(self, golden_trace, differential):
        tampered = copy.deepcopy(differential.gateway)
        rid = next(
            rid
            for rid, response in tampered.responses.items()
            if response["status"] == "completed" and response["result"]
        )
        name = next(iter(tampered.responses[rid]["result"]))
        tampered.responses[rid]["result"][name] = (
            tampered.responses[rid]["result"][name] + 1
        )
        diff = diff_runs(golden_trace, differential.reference, tampered)
        assert not diff.identical
        assert diff.mismatches["responses"]  # the mode-vs-mode leg
        assert diff.mismatches["recorded_responses"]  # the recording leg

    def test_missing_request_is_caught(self, golden_trace, differential):
        tampered = copy.deepcopy(differential.gateway)
        rid = next(iter(tampered.responses))
        del tampered.responses[rid]
        diff = diff_runs(golden_trace, differential.reference, tampered)
        assert any(
            f"request {rid}" in m for m in diff.mismatches["responses"]
        )

    def test_sections_are_stable(self):
        assert DIFF_SECTIONS == (
            "responses",
            "usage",
            "tenant_bills",
            "accounting",
            "recorded_responses",
        )


class TestTraceGating:
    def test_fleet_trace_refused(self):
        fleet = load_trace(FLEET)
        with pytest.raises(TraceFormatError, match="'serve' trace"):
            reference_run(fleet)
        with pytest.raises(TraceFormatError, match="'serve' trace"):
            gateway_config_from_trace(fleet)

    def test_config_mirrors_the_recording(self, golden_trace):
        config = gateway_config_from_trace(golden_trace, num_workers=3)
        assert config.num_workers == 3
        assert config.worker.num_tiles == int(golden_trace.config.get("num_tiles", 1))
        assert config.max_pending is None  # quotas off in diff mode


class TestCli:
    def test_repro_gateway_diff(self, capsys):
        assert repro_main(["gateway", "--diff", GOLDEN]) == 0
        out = capsys.readouterr().out
        assert "bit-for-bit" in out

    def test_repro_gateway_loadgen(self, capsys, tmp_path):
        output = tmp_path / "report.json"
        code = repro_main(
            [
                "gateway",
                "--requests", "16",
                "--rate", "400",
                "--workers", "2",
                "--output", str(output),
            ]
        )
        assert code == 0
        report = json.loads(output.read_text())
        assert report["offered"] == 16
        assert report["completed"] == 16
        assert report["partition_ok"] is True
        assert report["interrupted"] is False
        assert "p50" in capsys.readouterr().out

    def test_repro_gateway_trace_arrivals_need_a_trace(self, capsys):
        assert repro_main(["gateway", "--arrivals", "trace"]) == 2
