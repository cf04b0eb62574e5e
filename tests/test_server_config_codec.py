"""The serving-configuration codec: ``encode_server_config`` /
``decode_server_config`` in :mod:`repro.trace.schema`.

One codec writes a :class:`~repro.serve.server.ServerConfig` or
:class:`~repro.fleet.server.FleetConfig` into a trace header and into
the gateway's worker wire, and reads it back for the replayer, the pool
workers and the differential.  These tests pin that it loses no field,
that a new field cannot be added without a codec key, and that the
golden headers keep their bytes.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.compiler.options import CompileOptions
from repro.fleet.faults import CapacityDegrade, DeviceKill, FaultPlan, OpFaultRule
from repro.fleet.server import FleetConfig
from repro.gateway.differential import gateway_config_from_trace
from repro.gateway.server import GatewayConfig
from repro.gateway.worker import build_worker_server
from repro.serve.admission import TenantQuota
from repro.serve.server import ServerConfig
from repro.trace.replayer import TraceReplayer
from repro.trace.schema import (
    TraceFormatError,
    decode_server_config,
    encode_fault_plan,
    encode_server_config,
    load_trace,
)

TRACES = Path(__file__).parent / "traces"
GOLDEN = {
    "serve": TRACES / "serve_multitenant.jsonl",
    "fleet": TRACES / "fleet_faultstorm.jsonl",
}

COMPILE_OPTIONS = CompileOptions(
    offload_kinds=("gemv", "gemm"),
    pipeline="no-fusion",
    enable_tiling=True,
    crossbar_rows=64,
    min_macs_per_write=8.0,
    enable_compile_cache=False,
    dump_ir_after=("lower",),
)

SERVE = ServerConfig(
    num_tiles=3,
    batch_window_s=2.5e-4,
    max_batch_size=7,
    default_quota=TenantQuota(max_queue_depth=5, weight=1.5, wear_budget_bytes=1e6),
    compile_options=COMPILE_OPTIONS,
    crossbar_rows=32,
    crossbar_cols=48,
    crossbar_mode="quantized",
)

FLEET = FleetConfig(
    **{f.name: getattr(SERVE, f.name) for f in fields(ServerConfig)},
    num_devices=4,
    placement="least-loaded",
    initial_wear_bytes=(0, 12_345, 6_789),
    max_attempts=2,
    retry_backoff_base_s=1e-5,
    retry_backoff_max_s=3e-4,
    fault_plan=FaultPlan(
        kills=[DeviceKill(device_id=1, at_s=2e-4)],
        degrades=[CapacityDegrade(device_id=2, at_s=1e-4, factor=0.5)],
        op_rules=[OpFaultRule("dma", probability=0.25, device_id=3, max_faults=2)],
        seed=11,
    ),
    tighten_admission=False,
)


def _comparable(config) -> dict:
    """Every field of *config*; the fault plan (a stateful object without
    ``==``) by its encoding."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    if "fault_plan" in values:
        values["fault_plan"] = encode_fault_plan(values["fault_plan"])
    return values


@pytest.mark.parametrize("kind, config", [("serve", SERVE), ("fleet", FLEET)])
def test_every_field_round_trips_at_non_default_values(kind, config):
    default = type(config)()
    for f in fields(config):
        assert _comparable(config)[f.name] != _comparable(default)[f.name], f.name
    encoded = json.loads(json.dumps(encode_server_config(config)))
    decoded = decode_server_config(kind, encoded)
    assert type(decoded) is type(config)
    assert _comparable(decoded) == _comparable(config)


@pytest.mark.parametrize("cls", [ServerConfig, FleetConfig])
def test_every_field_has_a_codec_key(cls):
    encoded = encode_server_config(cls())
    assert set(encoded) == {f.name for f in fields(cls)}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_encoder_reproduces_the_golden_header_bytes(kind):
    path = GOLDEN[kind]
    header_line = path.read_text().splitlines()[0]
    header = json.loads(header_line)
    config = decode_server_config(kind, header["config"])
    rebuilt = {**header, "config": encode_server_config(config)}
    assert json.dumps(rebuilt, separators=(",", ":")) == header_line


def test_decoder_refuses_missing_keys_and_bad_values():
    encoded = encode_server_config(SERVE)
    # A header recorded while every lease was scrubbed still reads.
    assert decode_server_config("serve", {**encoded, "scrub_leases": True}) == SERVE
    for key in ("default_quota", "compile_options"):
        partial = {k: v for k, v in encoded.items() if k != key}
        with pytest.raises(TraceFormatError, match="does not rebuild"):
            decode_server_config("serve", partial)
    with pytest.raises(TraceFormatError, match="does not rebuild a fleet"):
        decode_server_config("fleet", encoded)  # no fault_plan key
    fleet = encode_server_config(FLEET)
    with pytest.raises(TraceFormatError, match="at least one device"):
        decode_server_config("fleet", {**fleet, "num_devices": 0})


def test_gateway_worker_is_the_replayed_config_with_the_lease_shape():
    trace = load_trace(GOLDEN["serve"])
    server = TraceReplayer(trace).build_server()
    try:
        replayed = server.config
    finally:
        server.shutdown()
    worker = gateway_config_from_trace(trace).worker
    fixed = {"max_batch_size": 1, "batch_window_s": 0.0, "default_quota": TenantQuota()}
    assert {name: getattr(worker, name) for name in fixed} == fixed
    assert worker == replace(replayed, **fixed)
    assert worker != replayed  # the fixture's lease shape differs


def test_worker_wire_builds_the_configured_server():
    config = GatewayConfig(worker=replace(SERVE, compile_options=CompileOptions()))
    server = build_worker_server(config.worker_wire())
    try:
        assert server.config == config.worker
        assert server.compile_cache.disk_dir is None
    finally:
        server.shutdown()
    assert GatewayConfig().worker == ServerConfig(max_batch_size=1, batch_window_s=0.0)
