"""Record one serving run into a replayable trace.

:class:`TraceRecorder` attaches to a live
:class:`~repro.serve.server.CimServer` or
:class:`~repro.fleet.server.FleetServer` *before* any quota or
submission, and captures everything needed to re-drive the run through a
fresh server:

* the server configuration (including the seeded fault plan) goes into
  the trace header;
* ``submit`` / ``set_quota`` calls are wrapped so every submission is
  recorded with its kernel source, parameters and full array payloads;
* the :class:`~repro.serve.dispatch.LeaseExecutor` fault-hook seam is
  wrapped (chaining to any hook already installed, e.g. the fleet's
  fault injector) so per-attempt, per-commit and per-fault events land
  in the trace with their device-clock timestamps;
* :meth:`finalize` — after the caller has drained the server — records
  every request's terminal state and result, the per-tenant bills, the
  per-device physical/billed/compensated ledgers with their partition
  verdicts, and one metrics snapshot.

Attaching is observation-only: the wrapped hooks re-raise injected
faults unchanged and never advance any clock, so a recorded run is
bit-identical to an unrecorded one.  (On a server without a fault plan
the recorder's hook enables the executor's commit stage, which is a
no-op when nothing raises.)
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.fleet.server import FleetConfig
from repro.serve.errors import DeviceFault
from repro.serve.request import RequestHandle, RequestStatus
from repro.serve.server import ServerConfig, ServingLoop
from repro.trace.schema import (
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    Trace,
    TraceFormatError,
    build_trace,
    dedupe_payload,
    encode_array,
    encode_compile_options,
    encode_fault_plan,
    encode_quota,
)


class TraceRecorder:
    """Capture one server run as a versioned, replayable event stream.

    ``schema_version`` selects the on-disk format (default: the current
    :data:`~repro.trace.schema.SCHEMA_VERSION`).  Version 2 deduplicates
    array payloads by content hash; recording at version 1 keeps every
    payload in full — the replayer uses this to re-record a replay at the
    source trace's version, so old fixtures diff cleanly forever.
    """

    def __init__(self, schema_version: int = SCHEMA_VERSION) -> None:
        if schema_version not in SUPPORTED_VERSIONS:
            raise TraceFormatError(
                f"cannot record schema_version {schema_version}; "
                f"supported: {sorted(SUPPORTED_VERSIONS)}"
            )
        self.schema_version = schema_version
        self.events: list[dict] = []
        self.handles: list[RequestHandle] = []
        self._server: Optional[ServingLoop] = None
        self._finalized = False
        self._seen_payloads: set[str] = set()

    def _encode_payload(self, value) -> dict:
        payload = encode_array(np.asarray(value))
        if self.schema_version >= 2:
            payload = dedupe_payload(payload, self._seen_payloads)
        return payload

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, server: ServingLoop) -> ServingLoop:
        """Hook *server* for recording; returns the server for chaining.

        Must be called on a fresh server, before any ``set_quota`` or
        ``submit`` — the header snapshots the configuration, and only
        wrapped calls are recorded.
        """
        if self._server is not None:
            raise TraceFormatError("recorder is already attached to a server")
        if not isinstance(server, ServingLoop):
            raise TraceFormatError(
                f"cannot record a {type(server).__name__}; expected "
                "CimServer or FleetServer"
            )
        config = server.config
        header = {
            "event": "header",
            "schema_version": self.schema_version,
            "kind": "fleet" if isinstance(config, FleetConfig) else "serve",
            "config": self._encode_config(config),
        }
        if server.metrics.submitted or server.admission.quotas:
            raise TraceFormatError(
                "recorder must attach before any quota or submission"
            )
        self._server = server
        self.events.append(header)
        self._wrap_submit(server)
        self._wrap_set_quota(server)
        for device in server.devices:
            self._wrap_lease_hook(device.lease_executor, device.device_id)
        return server

    def _encode_config(self, config: ServerConfig) -> dict:
        encoded = {
            "num_tiles": config.num_tiles,
            "batch_window_s": config.batch_window_s,
            "max_batch_size": config.max_batch_size,
            "scrub_leases": config.scrub_leases,
            "crossbar_rows": config.crossbar_rows,
            "crossbar_cols": config.crossbar_cols,
            "crossbar_mode": config.crossbar_mode,
            "default_quota": encode_quota(config.default_quota),
            "compile_options": encode_compile_options(config.compile_options),
        }
        if not isinstance(config, FleetConfig):
            return encoded
        if not isinstance(config.placement, str):
            raise TraceFormatError(
                "cannot record a custom PlacementPolicy instance; use one "
                "of the named placement policies for replayable runs"
            )
        return {
            "num_devices": config.num_devices,
            **encoded,
            "placement": config.placement,
            "initial_wear_bytes": [int(w) for w in config.initial_wear_bytes],
            "max_attempts": config.max_attempts,
            "retry_backoff_base_s": config.retry_backoff_base_s,
            "retry_backoff_max_s": config.retry_backoff_max_s,
            "tighten_admission": config.tighten_admission,
            "fault_plan": encode_fault_plan(config.fault_plan),
        }

    # ------------------------------------------------------------------
    def _wrap_submit(self, server) -> None:
        original = server.submit

        def submit(tenant, kernel, params=None, arrays=None, arrival_s=None):
            if not isinstance(kernel, str):
                raise TraceFormatError(
                    "only mini-C source kernels can be recorded (got "
                    f"{type(kernel).__name__}); pass the source string when "
                    "recording a trace"
                )
            handle = original(tenant, kernel, params, arrays, arrival_s)
            self.handles.append(handle)
            self.events.append(
                {
                    "event": "submit",
                    "request_id": handle.request_id,
                    "tenant": tenant,
                    "source": kernel,
                    "params": {
                        key: _plain(value)
                        for key, value in (params or {}).items()
                    },
                    "arrays": {
                        name: self._encode_payload(value)
                        for name, value in (arrays or {}).items()
                    },
                    "arrival_s": handle.arrival_s,
                }
            )
            return handle

        server.submit = submit

    def _wrap_set_quota(self, server) -> None:
        original = server.set_quota

        def set_quota(tenant, quota):
            original(tenant, quota)
            self.events.append(
                {
                    "event": "quota",
                    "tenant": tenant,
                    "quota": encode_quota(quota),
                }
            )

        server.set_quota = set_quota

    def _wrap_lease_hook(self, lease_executor, device_id: int) -> None:
        original = lease_executor.fault_hook

        def hook(stage, request):
            event = {
                "event": "attempt" if stage == "attempt" else "commit",
                "request_id": request.seq,
                "tenant": request.tenant,
                "device_id": device_id,
                "attempt": request.handle.attempts,
                "at_s": lease_executor.clock.now_s,
            }
            if original is not None:
                try:
                    original(stage, request)
                except DeviceFault as fault:
                    self.events.append(
                        {
                            **event,
                            "event": "fault",
                            "stage": stage,
                            "op": fault.op,
                            "fatal": fault.fatal,
                            "reason": str(fault),
                        }
                    )
                    raise
            self.events.append(event)

        lease_executor.fault_hook = hook

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self) -> Trace:
        """Record terminal states, ledgers and metrics; seal the trace.

        Call after the run is fully drained.  Idempotent in effect: a
        second call raises instead of double-recording.
        """
        if self._server is None:
            raise TraceFormatError("recorder was never attached to a server")
        if self._finalized:
            raise TraceFormatError("trace has already been finalized")
        self._finalized = True
        server = self._server
        for handle in self.handles:
            self.events.append(_response_event(handle, self._encode_payload))
        for tenant, bill in tenant_bills(server.ledger).items():
            self.events.append({"event": "tenant_bill", "tenant": tenant, **bill})
        self.events.extend(self._device_bill_events(server))
        self.events.append(
            {"event": "metrics", "snapshot": _plain_tree(server.metrics.snapshot())}
        )
        return build_trace(self.events)

    def _device_bill_events(self, server: ServingLoop) -> list[dict]:
        ledger = server.ledger
        partition = ledger.verify_fleet_partition(
            {device.device_id: device.system.accelerator for device in server.devices}
        )
        events = []
        for device in server.devices:
            device_id = device.device_id
            accelerator = device.system.accelerator
            usages = ledger.device_usages(device_id)
            comps = ledger.device_compensations(device_id)
            housekeeping = math.fsum(
                energy
                for energy, dev in zip(
                    ledger.housekeeping_energy_j_records,
                    ledger.housekeeping_device_ids,
                )
                if dev == device_id
            )
            events.append(
                {
                    "event": "device_bill",
                    "device_id": device_id,
                    "state": device.state.value,
                    "physical_cell_writes": int(accelerator.total_cell_writes()),
                    "physical_macs": int(accelerator.total_macs()),
                    "physical_energy_j": accelerator.total_energy_j(),
                    "billed_wear_bytes": int(sum(u.wear_bytes for u in usages)),
                    "billed_energy_j": math.fsum(
                        u.accelerator_energy_j for u in usages
                    ),
                    "compensated_wear_bytes": int(
                        sum(c.wear_bytes for c in comps)
                    ),
                    "compensated_energy_j": math.fsum(
                        c.accelerator_energy_j for c in comps
                    ),
                    "compensations": len(comps),
                    "housekeeping_energy_j": housekeeping,
                    "partition_ok": bool(all(partition.values())),
                }
            )
        return events

    def save(self, path) -> Trace:
        """Finalize (if needed) and write the trace to *path*."""
        trace = self.finalize() if not self._finalized else build_trace(self.events)
        trace.save(path)
        return trace


# ----------------------------------------------------------------------
#: Tenant-bill fields: integer counters (compared by ``==``) and fsum
#: energies / service time (compared by exact float equality).
BILL_FIELDS = (
    "completed",
    "rejected",
    "wear_bytes",
    "crossbar_write_ops",
    "gemv_count",
    "macs",
    "dma_bytes",
    "energy_j",
    "accelerator_energy_j",
    "service_s",
)


def tenant_bills(ledger) -> dict[str, dict]:
    """Every tenant's bill as JSON-plain fields, in tenant-name order."""
    return {
        tenant: {
            name: _plain(getattr(ledger.tenants[tenant], name))
            for name in BILL_FIELDS
        }
        for tenant in sorted(ledger.tenants)
    }


def _response_event(handle: RequestHandle, encode_payload) -> dict:
    event = {
        "event": "response",
        "request_id": handle.request_id,
        "tenant": handle.tenant,
        "status": handle.status.value,
        "arrival_s": handle.arrival_s,
        "admitted_s": handle.admitted_s,
        "dispatched_s": handle.dispatched_s,
        "completed_s": handle.completed_s,
        "batch_id": handle.batch_id,
        "batch_size": handle.batch_size,
        "device_id": handle.device_id,
        "attempts": handle.attempts,
        "migrations": handle.migrations,
        "reason": handle.reject_reason,
    }
    if handle.status is RequestStatus.COMPLETED:
        event["result"] = {
            name: encode_payload(value) for name, value in handle.result().items()
        }
    return event


def _plain(value):
    """Coerce numpy scalars to JSON-native Python numbers."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _plain_tree(value):
    if isinstance(value, dict):
        return {str(key): _plain_tree(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain_tree(item) for item in value]
    return _plain(value)
