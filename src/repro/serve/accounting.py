"""Per-tenant accounting: latency, energy and crossbar wear.

Every dispatched request produces one :class:`RequestUsage` record, built
from the :class:`~repro.codegen.executor.ExecutionReport` of its attempt
(:meth:`MeasuredWork.from_report`) or, at the gateway, from the usage
dict its worker shipped (:meth:`MeasuredWork.from_wire`).  The records
*partition* the device's activity: each accelerator run, each charged
host instruction and each programmed crossbar cell belongs to exactly
one request, so per-tenant sums reconcile exactly with the device's own
work record (:class:`~repro.hw.stats.AcceleratorRunStats`) — integer
counters by ``==``, energy roll-ups via :func:`math.fsum` (correctly
rounded, hence order-independent over the same records).
:func:`partition_checks` is that reconciliation, the only one in the
package; the serving loop, the fleet and the gateway all call it.

Wear is expressed in bytes written to the crossbar (one byte per
programmed 8-bit cell, the same convention as
:mod:`repro.eval.lifetime`), which plugs straight into the Eq. 1 lifetime
model of :mod:`repro.hw.endurance`: a tenant's implied device lifetime is
``cell_endurance * crossbar_size / tenant_write_traffic``, and admission
quotas are expressed as byte budgets derived from a minimum acceptable
lifetime (:func:`repro.hw.endurance.wear_budget_bytes`).

At the fleet tier every record carries a ``device_id``, and work a device
performed for an attempt that was then lost to an injected fault (the
device died before the response left it) is *compensated*: recorded as a
:class:`FaultCompensation` attributed to the fault, never billed to the
tenant.  Per-device physical ledgers then still partition exactly —
``tenant bills + compensations == device totals`` on every device — with
no lost and no double-billed work even when requests are retried across
devices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping, Optional

from repro.hw.endurance import EnduranceTracker, system_lifetime_years
from repro.hw.stats import WORK_COUNTERS, AcceleratorRunStats


@dataclass(frozen=True, kw_only=True)
class MeasuredWork:
    """What one attempt physically cost its device, measured around it as
    ledger deltas: the part a tenant's bill (:class:`RequestUsage`) and a
    fault's (:class:`FaultCompensation`) share, which is also the part
    :func:`partition_checks` reconciles with the device's work record."""

    offload_energy_j: float = 0.0     # driver calls, copies, flushes, polling
    accelerator_energy_j: float = 0.0
    crossbar_cell_writes: int = 0
    crossbar_write_ops: int = 0
    gemv_count: int = 0
    macs: int = 0
    dma_bytes: int = 0

    @property
    def wear_bytes(self) -> int:
        """Crossbar write volume (one byte per programmed 8-bit cell)."""
        return self.crossbar_cell_writes

    @classmethod
    def from_report(cls, report, **identity):
        """The record of the attempt *report* measured; *identity* supplies
        the fields that are not device work (who, when, where)."""
        work = report.accelerator
        return cls(
            offload_energy_j=report.offload_energy_j,
            accelerator_energy_j=work.energy_j,
            **{name: getattr(work, name) for name in WORK_COUNTERS},
            **identity,
        )

    @classmethod
    def from_wire(cls, usage: Mapping[str, float], **identity):
        """The record a gateway worker measured: every field *identity*
        does not supply is read from the response's ``usage`` dict, which
        is keyed by these field names."""
        measured = {
            f.name: usage[f.name] for f in fields(cls) if f.name not in identity
        }
        measured.update((name, int(measured[name])) for name in WORK_COUNTERS)
        return cls(**measured, **identity)


@dataclass(frozen=True, kw_only=True)
class RequestUsage(MeasuredWork):
    """Measured resource usage of one dispatched request."""

    request_id: int
    tenant: str
    batch_id: int
    arrival_s: float
    completed_s: float
    service_s: float                  # simulated wall time spent serving it
    latency_s: float                  # arrival -> completion (incl. queueing)
    host_energy_j: float              # host-resident loop nests
    #: Fleet tier: device that performed (and is debited for) the work.
    device_id: int = 0

    @property
    def energy_j(self) -> float:
        return self.host_energy_j + self.offload_energy_j + self.accelerator_energy_j


@dataclass(frozen=True, kw_only=True)
class FaultCompensation(MeasuredWork):
    """Physical work a device performed for an attempt lost to a fault.

    The work happened (the device's wear counters and energy ledger moved)
    but the tenant is never billed for it — the request was retried and
    billed exactly once, on the attempt that actually produced its
    response.  Compensation records keep the per-device partition exact:
    they absorb the faulted attempt's measured deltas on the fault's side
    of the ledger.  A worker that died with its attempt shipped no deltas;
    its compensation keeps the zero defaults and is the audit trail only.
    """

    request_id: int
    tenant: str
    device_id: int
    batch_id: int
    at_s: float                       # device time the fault surfaced
    reason: str                       # str(fault), e.g. "LeaseAborted: ..."
    op: str                           # faulted operation class

    @property
    def energy_j(self) -> float:
        return self.offload_energy_j + self.accelerator_energy_j


@dataclass
class TenantAccount:
    """Running account of one tenant's usage."""

    tenant: str
    usages: list[RequestUsage] = field(default_factory=list)
    rejected: int = 0

    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return len(self.usages)

    @property
    def energy_j(self) -> float:
        return math.fsum(u.energy_j for u in self.usages)

    @property
    def accelerator_energy_j(self) -> float:
        return math.fsum(u.accelerator_energy_j for u in self.usages)

    @property
    def service_s(self) -> float:
        return math.fsum(u.service_s for u in self.usages)

    @property
    def wear_bytes(self) -> int:
        return sum(u.wear_bytes for u in self.usages)

    @property
    def crossbar_write_ops(self) -> int:
        return sum(u.crossbar_write_ops for u in self.usages)

    @property
    def gemv_count(self) -> int:
        return sum(u.gemv_count for u in self.usages)

    @property
    def macs(self) -> int:
        return sum(u.macs for u in self.usages)

    @property
    def dma_bytes(self) -> int:
        return sum(u.dma_bytes for u in self.usages)

    def latencies_s(self) -> list[float]:
        return [u.latency_s for u in self.usages]

    # ------------------------------------------------------------------
    def endurance_tracker(self, crossbar_size_bytes: float) -> EnduranceTracker:
        """This tenant's wear folded into the Eq. 1 tracker of
        :mod:`repro.hw.endurance` (write volume over busy service time)."""
        tracker = EnduranceTracker(crossbar_size_bytes=crossbar_size_bytes)
        for usage in self.usages:
            tracker.record_kernel(float(usage.wear_bytes), usage.service_s)
        return tracker

    def implied_lifetime_years(
        self,
        cell_endurance_writes: float,
        crossbar_size_bytes: float,
        elapsed_s: Optional[float] = None,
    ) -> float:
        """Device lifetime (years) if the whole crossbar saw only this
        tenant's write traffic.  With ``elapsed_s`` the traffic is averaged
        over that wall-clock window (the serving view: a tenant that is
        mostly idle wears the device less); otherwise over the tenant's
        busy service time (the worst-case sustained view)."""
        if elapsed_s is None:
            return self.endurance_tracker(crossbar_size_bytes).lifetime_years(
                cell_endurance_writes
            )
        if elapsed_s <= 0:
            return float("inf")
        traffic = self.wear_bytes / elapsed_s
        if traffic == 0.0:
            return float("inf")
        return system_lifetime_years(
            cell_endurance_writes, crossbar_size_bytes, traffic
        )


class AccountingLedger:
    """All tenants' accounts plus the device roll-up they partition."""

    def __init__(self, crossbar_size_bytes: float):
        self.crossbar_size_bytes = crossbar_size_bytes
        self.tenants: dict[str, TenantAccount] = {}
        #: Host-side housekeeping the server performs between requests
        #: (releasing lease buffers), charged to the device ledger but not
        #: to any single tenant request.
        self.housekeeping_energy_j_records: list[float] = []
        #: Device that performed each housekeeping record (parallel list).
        self.housekeeping_device_ids: list[int] = []
        #: Work lost to injected faults — reconciled here, never billed.
        self.compensations: list[FaultCompensation] = []

    # ------------------------------------------------------------------
    def account(self, tenant: str) -> TenantAccount:
        if tenant not in self.tenants:
            self.tenants[tenant] = TenantAccount(tenant=tenant)
        return self.tenants[tenant]

    def record(self, usage: RequestUsage) -> None:
        self.account(usage.tenant).usages.append(usage)

    def record_rejection(self, tenant: str) -> None:
        self.account(tenant).rejected += 1

    def record_housekeeping(self, energy_j: float, device_id: int = 0) -> None:
        if energy_j != 0.0:
            self.housekeeping_energy_j_records.append(energy_j)
            self.housekeeping_device_ids.append(device_id)

    def record_compensation(self, compensation: FaultCompensation) -> None:
        self.compensations.append(compensation)

    # ------------------------------------------------------------------
    # Device totals (the partition view)
    # ------------------------------------------------------------------
    def all_usages(self) -> list[RequestUsage]:
        return [u for account in self.tenants.values() for u in account.usages]

    def device_usages(self, device_id: int) -> list[RequestUsage]:
        return [u for u in self.all_usages() if u.device_id == device_id]

    def device_compensations(self, device_id: int) -> list[FaultCompensation]:
        return [c for c in self.compensations if c.device_id == device_id]

    @property
    def device_energy_j(self) -> float:
        """Total energy across every request of every tenant plus server
        housekeeping and fault compensations.  ``fsum`` over the
        underlying records makes this identical to summing the per-tenant
        accounts in any order."""
        return math.fsum(
            [u.energy_j for u in self.all_usages()]
            + [c.energy_j for c in self.compensations]
            + self.housekeeping_energy_j_records
        )

    @property
    def device_accelerator_energy_j(self) -> float:
        return math.fsum(
            [u.accelerator_energy_j for u in self.all_usages()]
            + [c.accelerator_energy_j for c in self.compensations]
        )

    @property
    def device_wear_bytes(self) -> int:
        return sum(u.wear_bytes for u in self.all_usages()) + sum(
            c.wear_bytes for c in self.compensations
        )

    @property
    def device_crossbar_write_ops(self) -> int:
        return sum(u.crossbar_write_ops for u in self.all_usages()) + sum(
            c.crossbar_write_ops for c in self.compensations
        )

    @property
    def device_gemv_count(self) -> int:
        return sum(u.gemv_count for u in self.all_usages()) + sum(
            c.gemv_count for c in self.compensations
        )

    @property
    def device_macs(self) -> int:
        return sum(u.macs for u in self.all_usages()) + sum(
            c.macs for c in self.compensations
        )

    @property
    def housekeeping_energy_j(self) -> float:
        return math.fsum(self.housekeeping_energy_j_records)

    @property
    def compensated_energy_j(self) -> float:
        return math.fsum(c.energy_j for c in self.compensations)

    @property
    def compensated_wear_bytes(self) -> int:
        return sum(c.wear_bytes for c in self.compensations)

    # ------------------------------------------------------------------
    def verify_partition(self, accelerator) -> dict[str, bool]:
        """:func:`partition_checks` for a one-device server (device 0)."""
        return self.verify_fleet_partition({0: accelerator})

    def verify_fleet_partition(self, accelerators: Mapping[int, object]) -> dict[str, bool]:
        """:func:`partition_checks` against live devices: ``accelerators``
        maps ``device_id`` to the device's accelerator, whose running
        totals are its hardware ledger of record."""
        return partition_checks(
            self, {d: accelerator.totals for d, accelerator in accelerators.items()}
        )


def partition_checks(
    ledger: AccountingLedger, totals: Mapping[int, AcceleratorRunStats]
) -> dict[str, bool]:
    """The exactly-once reconciliation, for every tier: on *every* device,
    billed tenant work plus fault compensations equals the work record
    the device itself accumulated (``totals[device_id]``), and the
    per-device records exhaust the ledger (nothing lost, nothing
    double-billed, no record on an unknown device).

    Integer counters compare by ``==``.  Energies compare to float
    precision: the ledger side is an order-independent ``fsum``, the
    device side a running sum in run order.  Compensated
    (faulted-attempt) work counts toward the device — it physically
    performed it — but never toward a tenant.
    """
    checks: dict[str, bool] = {}
    for device_id in sorted(totals):
        device = totals[device_id]
        records = ledger.device_usages(device_id) + ledger.device_compensations(device_id)
        for name in WORK_COUNTERS:
            checks[f"device{device_id}.{name}"] = (
                sum(getattr(record, name) for record in records) == getattr(device, name)
            )
        checks[f"device{device_id}.energy_j"] = math.isclose(
            math.fsum(record.accelerator_energy_j for record in records),
            device.energy_j,
            rel_tol=1e-9,
            abs_tol=1e-18,
        )
    checks["no_orphan_records"] = all(
        record.device_id in totals
        for record in ledger.all_usages() + ledger.compensations
    )
    checks["wear_total"] = ledger.device_wear_bytes == sum(
        device.crossbar_cell_writes for device in totals.values()
    )
    checks["energy_total"] = math.isclose(
        ledger.device_accelerator_energy_j,
        math.fsum(device.energy_j for device in totals.values()),
        rel_tol=1e-9,
        abs_tol=1e-18,
    )
    return checks
