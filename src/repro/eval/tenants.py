"""Per-tenant serving statistics in the paper's evaluation currency.

Folds a :class:`~repro.serve.server.CimServer`'s accounting ledger into
rows that speak the evaluation's language: energy, wear expressed through
the Eq. 1 lifetime model of :mod:`repro.hw.endurance`, and latency
percentiles.  The rows let a tenant bill ("you cost us X joules and Y
years of device life") be read straight off a serving run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hw.endurance import SECONDS_PER_YEAR
from repro.serve.accounting import fold
from repro.serve.metrics import percentile

#: Figure 5's mid-range PCM cell endurance (writes) — the default scale
#: on which tenant wear is expressed as device lifetime.
DEFAULT_CELL_ENDURANCE_WRITES = 25e6


@dataclass(frozen=True)
class TenantUsageRow:
    """One tenant's serving bill."""

    tenant: str
    completed: int
    rejected: int
    energy_j: float
    wear_bytes: int
    wear_share: float               # fraction of the device's total wear
    p50_latency_s: Optional[float]
    p99_latency_s: Optional[float]
    #: Device lifetime (years) if the crossbar saw only this tenant's
    #: write traffic, averaged over the full serving run.
    implied_lifetime_years: float


def tenant_usage_rows(
    server,
    cell_endurance_writes: float = DEFAULT_CELL_ENDURANCE_WRITES,
) -> list[TenantUsageRow]:
    """Per-tenant rows of *server*'s ledger (sorted by tenant name)."""
    ledger = server.ledger
    elapsed_s = server.clock.now_s
    device_wear = fold(ledger.all_usages() + ledger.compensations, "wear_bytes")["wear_bytes"]
    rows = []
    for tenant in sorted(ledger.tenants):
        account = ledger.tenants[tenant]
        bill = fold(account.usages, "energy_j", "wear_bytes")
        latencies = account.latencies_s()
        rows.append(
            TenantUsageRow(
                tenant=tenant,
                completed=account.completed,
                rejected=account.rejected,
                energy_j=bill["energy_j"],
                wear_bytes=bill["wear_bytes"],
                wear_share=(
                    bill["wear_bytes"] / device_wear if device_wear else 0.0
                ),
                p50_latency_s=percentile(latencies, 50) if latencies else None,
                p99_latency_s=percentile(latencies, 99) if latencies else None,
                implied_lifetime_years=account.implied_lifetime_years(
                    cell_endurance_writes,
                    ledger.crossbar_size_bytes,
                    elapsed_s=elapsed_s if elapsed_s > 0 else None,
                ),
            )
        )
    return rows


@dataclass(frozen=True)
class FleetDeviceRow:
    """One fleet device's health and wear summary."""

    device_id: int
    state: str                      # "up" | "quarantined" | "drained"
    leases: int
    served: int                     # requests billed on this device
    busy_s: float
    wear_bytes: int                 # pre-fleet age + this run's writes
    compensated_wear_bytes: int     # faulted-attempt wear (never billed)
    energy_j: float
    #: Eq. 1 lifetime (years) left if the run's write rate were sustained.
    implied_lifetime_years: float


def fleet_device_rows(
    fleet,
    cell_endurance_writes: float = DEFAULT_CELL_ENDURANCE_WRITES,
) -> list[FleetDeviceRow]:
    """Per-device rows of a :class:`~repro.fleet.server.FleetServer` run.

    The fleet's implied lifetime is the *minimum* of these rows' — the
    fleet dies with its most-worn device — which is exactly the quantity
    wear-aware placement maximises.
    """
    elapsed_s = fleet.clock.now_s
    rows = []
    for device in fleet.devices:
        usages = fleet.ledger.device_usages(device.device_id)
        comps = fleet.ledger.device_compensations(device.device_id)
        run = fold(usages + comps, "wear_bytes", "energy_j")
        if elapsed_s > 0 and run["wear_bytes"] > 0:
            rate_bytes_per_year = run["wear_bytes"] / elapsed_s * SECONDS_PER_YEAR
        else:
            rate_bytes_per_year = 0.0
        rows.append(
            FleetDeviceRow(
                device_id=device.device_id,
                state=device.state.value,
                leases=device.leases,
                served=len(usages),
                busy_s=device.busy_s,
                wear_bytes=device.total_wear_bytes,
                compensated_wear_bytes=fold(comps, "wear_bytes")["wear_bytes"],
                energy_j=run["energy_j"],
                implied_lifetime_years=device.implied_lifetime_years(
                    cell_endurance_writes, rate_bytes_per_year
                ),
            )
        )
    return rows


def fleet_implied_lifetime_years(rows: list[FleetDeviceRow]) -> float:
    """Eq. 1 lifetime of the fleet = lifetime of its most-worn device."""
    if not rows:
        return float("inf")
    return min(row.implied_lifetime_years for row in rows)


def format_fleet_table(rows: list[FleetDeviceRow]) -> str:
    """ASCII rendering of the per-device fleet summary."""
    header = (
        f"{'device':>6} {'state':<12} {'leases':>6} {'srv':>5} "
        f"{'busy [s]':>10} {'wear [B]':>10} {'comp [B]':>9} "
        f"{'energy [J]':>12} {'lifetime [y]':>13}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lifetime = (
            "inf"
            if row.implied_lifetime_years == float("inf")
            else f"{row.implied_lifetime_years:.3f}"
        )
        lines.append(
            f"{row.device_id:>6} {row.state:<12} {row.leases:>6} "
            f"{row.served:>5} {row.busy_s:>10.3e} {row.wear_bytes:>10} "
            f"{row.compensated_wear_bytes:>9} {row.energy_j:>12.3e} "
            f"{lifetime:>13}"
        )
    return "\n".join(lines)


def format_tenant_table(rows: list[TenantUsageRow]) -> str:
    """ASCII rendering of the per-tenant bills."""
    header = (
        f"{'tenant':<12} {'done':>5} {'rej':>4} {'energy [J]':>12} "
        f"{'wear [B]':>10} {'share':>6} {'p99 lat [s]':>12} {'lifetime [y]':>13}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        p99 = f"{row.p99_latency_s:.3e}" if row.p99_latency_s is not None else "-"
        lifetime = (
            "inf"
            if row.implied_lifetime_years == float("inf")
            else f"{row.implied_lifetime_years:.3f}"
        )
        lines.append(
            f"{row.tenant:<12} {row.completed:>5} {row.rejected:>4} "
            f"{row.energy_j:>12.3e} {row.wear_bytes:>10} "
            f"{row.wear_share:>6.2f} {p99:>12} {lifetime:>13}"
        )
    return "\n".join(lines)
