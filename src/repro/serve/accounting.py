"""Per-tenant accounting: latency, energy and crossbar wear.

Every dispatched request produces one :class:`RequestUsage` record, built
from the :class:`~repro.codegen.executor.ExecutionReport` of its attempt
(:meth:`MeasuredWork.from_report`) or, at the gateway, from the usage
dict its worker shipped (:meth:`MeasuredWork.from_wire`).  The records
*partition* the device's activity: each accelerator run, each charged
host instruction and each programmed crossbar cell belongs to exactly
one request, so per-tenant sums reconcile exactly with the device's own
work record (:class:`~repro.hw.stats.AcceleratorRunStats`) — integer
counters by ``==``, float roll-ups exactly (:class:`ExactSum`, the
correctly rounded sum :func:`math.fsum` makes, hence order-independent
over the same records).  The ledger keeps no records: it folds each into
running :class:`Tally` totals per tenant and device as it is committed,
so a loop that runs forever holds a fixed amount of accounting, and a
verifier that needs the records attaches to :attr:`AccountingLedger.
on_record` (:meth:`AccountingLedger.observe`).  :class:`Tally` is the
only way records become totals — every bill, device ledger, admission
budget and trace roll-up reads one, and :func:`fold` is a tally over a
list — and :func:`partition_checks` is the only reconciliation; the
serving loop, the fleet and the gateway all call it.

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
from typing import ContextManager, Iterable, Mapping, NamedTuple, Optional, Sequence

from repro.hw.endurance import EnduranceTracker, system_lifetime_years
from repro.hw.stats import WORK_COUNTERS, AcceleratorRunStats
from repro.observers import Observers


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


class Housekeeping(NamedTuple):
    """One housekeeping charge (a lease-buffer release) as a record
    :func:`fold` can total: host energy a device spent for no tenant."""

    energy_j: float
    device_id: int


#: Fields a :class:`Tally` totals as integers; every other field is a float.
COUNTERS = frozenset((*WORK_COUNTERS, "wear_bytes"))

#: What the ledger keeps of each kind of record: the fields the readers of
#: its totals (bills, budgets, partition checks, trace and eval roll-ups)
#: ask for, and no others.
USAGE_TOTALS = (*WORK_COUNTERS, "wear_bytes", "energy_j", "accelerator_energy_j", "service_s")
COMPENSATION_TOTALS = (*WORK_COUNTERS, "wear_bytes", "energy_j", "accelerator_energy_j")
HOUSEKEEPING_TOTALS = ("energy_j",)


class ExactSum:
    """A running sum of finite floats with no rounding at all.

    Every double is an integer multiple of a power of two, so the sum is
    kept as ``units / 2**shift`` with integer *units* (*shift* grows to the
    finest addend seen).  :meth:`value` rounds it once, by integer true
    division, which is correctly rounded: the same double :func:`math.fsum`
    returns for the same multiset of addends, whatever their order and
    however they were split into partial sums and merged.
    """

    __slots__ = ("units", "shift")

    def __init__(self) -> None:
        self.units = 0
        self.shift = 0

    def add(self, value: float) -> None:
        numerator, denominator = value.as_integer_ratio()
        self._add(numerator, denominator.bit_length() - 1)

    def merge(self, other: "ExactSum") -> None:
        self._add(other.units, other.shift)

    def _add(self, units: int, shift: int) -> None:
        if shift > self.shift:
            self.units <<= shift - self.shift
            self.shift = shift
        self.units += units << (self.shift - shift)

    def value(self) -> float:
        return self.units / (1 << self.shift)


class Tally:
    """Running totals of the fields *names* over the records added: what
    the ledger keeps instead of the records.  A counter (:data:`COUNTERS`)
    sums as an integer; any other field is an :class:`ExactSum`.  Tallies
    of disjoint record sets merge exactly (:meth:`of`), so a total over any
    union of them — a device's bills plus its compensations, every
    tenant's bills — is the one :func:`math.fsum` over the union would be.
    """

    __slots__ = ("names", "count", "counters", "sums")

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        #: Records added (or merged in).
        self.count = 0
        self.counters = dict.fromkeys([n for n in self.names if n in COUNTERS], 0)
        self.sums = {n: ExactSum() for n in self.names if n not in COUNTERS}

    @classmethod
    def of(cls, parts: Iterable["Tally"], *names: str) -> "Tally":
        """One tally of *names* over all the records *parts* hold."""
        total = cls(names)
        for part in parts:
            total.count += part.count
            for name in total.counters:
                total.counters[name] += part.counters[name]
            for name, value in total.sums.items():
                value.merge(part.sums[name])
        return total

    def add(self, record) -> None:
        self.count += 1
        counters = self.counters
        for name in counters:
            counters[name] += getattr(record, name)
        for name, total in self.sums.items():
            total.add(getattr(record, name))

    def read(self) -> dict[str, float]:
        """Each field's total, in the order the tally was given its names."""
        counters, sums = self.counters, self.sums
        return {
            name: int(counters[name]) if name in counters else sums[name].value()
            for name in self.names
        }


def fold(records: Iterable, *names: str) -> dict[str, float]:
    """Each field in *names* totalled over *records*, by a :class:`Tally`:
    counters exactly as integers, a float field as the correctly rounded
    sum of all of *records* (what :func:`math.fsum` returns), hence the
    same double for any order of the same records."""
    tally = Tally(names)
    for record in records:
        tally.add(record)
    return tally.read()


def _tally_for(tallies: dict[int, Tally], device_id: int, names: Sequence[str]) -> Tally:
    tally = tallies.get(device_id)
    if tally is None:
        tally = tallies[device_id] = Tally(names)
    return tally


@dataclass
class TenantAccount:
    """Running account of one tenant's usage: the records folded at
    commit, per device that served them."""

    tenant: str
    rejected: int = 0
    #: ``device_id`` -> this tenant's bills on that device (:data:`USAGE_TOTALS`).
    by_device: dict[int, Tally] = field(default_factory=dict)
    #: Busy service time, summed in record order (Eq. 1's sustained view).
    busy_s: float = 0.0

    # ------------------------------------------------------------------
    def add(self, usage: RequestUsage) -> None:
        _tally_for(self.by_device, usage.device_id, USAGE_TOTALS).add(usage)
        self.busy_s += usage.service_s

    @property
    def completed(self) -> int:
        """Usage records billed (completed or failed requests)."""
        return Tally.of(self.by_device.values()).count

    def totals(self, *names: str) -> dict[str, float]:
        """:func:`fold` of *names* over every usage this tenant was billed."""
        return Tally.of(self.by_device.values(), *names).read()

    # ------------------------------------------------------------------
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
        wear_bytes = self.totals("wear_bytes")["wear_bytes"]
        if elapsed_s is None:
            tracker = EnduranceTracker(
                crossbar_size_bytes=crossbar_size_bytes,
                total_bytes_written=float(wear_bytes),
                total_execution_time_s=self.busy_s,
            )
            return tracker.lifetime_years(cell_endurance_writes)
        if elapsed_s <= 0:
            return float("inf")
        traffic = wear_bytes / elapsed_s
        if traffic == 0.0:
            return float("inf")
        return system_lifetime_years(
            cell_endurance_writes, crossbar_size_bytes, traffic
        )


class LedgerLog:
    """The records a ledger committed while this log was attached
    (:meth:`AccountingLedger.observe`), by kind, in commit order."""

    def __init__(self) -> None:
        self.usages: list[RequestUsage] = []
        self.compensations: list[FaultCompensation] = []
        self.housekeeping: list[Housekeeping] = []

    def __call__(self, record) -> None:
        if isinstance(record, RequestUsage):
            self.usages.append(record)
        elif isinstance(record, FaultCompensation):
            self.compensations.append(record)
        else:
            self.housekeeping.append(record)


class AccountingLedger:
    """All tenants' accounts plus the device roll-up they partition, as
    running totals: no record outlives its commit."""

    def __init__(self, crossbar_size_bytes: float):
        self.crossbar_size_bytes = crossbar_size_bytes
        self.tenants: dict[str, TenantAccount] = {}
        #: Work lost to injected faults, per device — reconciled, never billed.
        self._compensations: dict[int, Tally] = {}
        #: Host-side housekeeping the server performs between requests
        #: (releasing lease buffers), per device: charged to the device
        #: ledger but not to any single tenant request.
        self._housekeeping: dict[int, Tally] = {}
        #: Every record, as it is committed, to whoever is attached.
        self.on_record = Observers()

    # ------------------------------------------------------------------
    def account(self, tenant: str) -> TenantAccount:
        if tenant not in self.tenants:
            self.tenants[tenant] = TenantAccount(tenant=tenant)
        return self.tenants[tenant]

    def record(self, usage: RequestUsage) -> None:
        self.account(usage.tenant).add(usage)
        self.on_record.emit(usage)

    def record_rejection(self, tenant: str) -> None:
        self.account(tenant).rejected += 1

    def record_housekeeping(self, energy_j: float, device_id: int = 0) -> None:
        if energy_j != 0.0:
            record = Housekeeping(energy_j, device_id)
            _tally_for(self._housekeeping, device_id, HOUSEKEEPING_TOTALS).add(record)
            self.on_record.emit(record)

    def record_compensation(self, compensation: FaultCompensation) -> None:
        _tally_for(
            self._compensations, compensation.device_id, COMPENSATION_TOTALS
        ).add(compensation)
        self.on_record.emit(compensation)

    def observe(self) -> ContextManager[LedgerLog]:
        """A :class:`LedgerLog` of the records committed while the block runs."""
        return self.on_record.attached(LedgerLog())

    # ------------------------------------------------------------------
    # Running totals (the partition view); ``None`` = every device
    # ------------------------------------------------------------------
    def usage_tallies(self, device_id: Optional[int] = None) -> list[Tally]:
        return [
            tally
            for account in self.tenants.values()
            for device, tally in account.by_device.items()
            if device_id is None or device == device_id
        ]

    def compensation_tallies(self, device_id: Optional[int] = None) -> list[Tally]:
        return _of_device(self._compensations, device_id)

    def housekeeping_tallies(self, device_id: Optional[int] = None) -> list[Tally]:
        return _of_device(self._housekeeping, device_id)

    def device_ids(self) -> set[int]:
        """Devices any bill or compensation was recorded on."""
        return {
            device for account in self.tenants.values() for device in account.by_device
        } | set(self._compensations)

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


def _of_device(tallies: dict[int, Tally], device_id: Optional[int]) -> list[Tally]:
    if device_id is None:
        return list(tallies.values())
    return [tallies[device_id]] if device_id in tallies else []


def partition_checks(
    ledger: AccountingLedger, totals: Mapping[int, AcceleratorRunStats]
) -> dict[str, bool]:
    """The exactly-once reconciliation, for every tier: on *every* device,
    billed tenant work plus fault compensations equals the work record
    the device itself accumulated (``totals[device_id]``), and the
    per-device records exhaust the ledger (nothing lost, nothing
    double-billed, no record on an unknown device).

    Integer counters compare by ``==``.  Energies compare to float
    precision: the ledger side is an order-independent exact sum, the
    device side a running sum in run order.  Compensated
    (faulted-attempt) work counts toward the device — it physically
    performed it — but never toward a tenant.
    """
    checks: dict[str, bool] = {}
    for device_id in sorted(totals):
        device = totals[device_id]
        work = Tally.of(
            ledger.usage_tallies(device_id) + ledger.compensation_tallies(device_id),
            *WORK_COUNTERS,
            "accelerator_energy_j",
        ).read()
        for name in WORK_COUNTERS:
            checks[f"device{device_id}.{name}"] = work[name] == getattr(device, name)
        checks[f"device{device_id}.energy_j"] = math.isclose(
            work["accelerator_energy_j"], device.energy_j, rel_tol=1e-9, abs_tol=1e-18
        )
    checks["no_orphan_records"] = ledger.device_ids() <= set(totals)
    billed = Tally.of(
        ledger.usage_tallies() + ledger.compensation_tallies(),
        "wear_bytes", "accelerator_energy_j",
    ).read()
    physical = fold(totals.values(), "crossbar_cell_writes", "energy_j")
    checks["wear_total"] = billed["wear_bytes"] == physical["crossbar_cell_writes"]
    checks["energy_total"] = math.isclose(
        billed["accelerator_energy_j"], physical["energy_j"], rel_tol=1e-9, abs_tol=1e-18
    )
    return checks
