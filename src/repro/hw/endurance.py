"""PCM endurance tracking and the system-lifetime model (Eq. 1).

The paper models system lifetime as::

    SystemLifetime = CellEndurance * S / B          (Eq. 1)

where ``CellEndurance`` is the number of writes a PCM cell sustains, ``S``
is the crossbar size in bytes (512 KB in the paper's Figure 5), and ``B`` is
the write traffic in bytes/second generated by the kernel, assuming writes
are spread uniformly over the crossbar (ideal wear levelling).  TDO-CIM
improves lifetime at compile time by reducing ``B`` — writing shared
operands only once (fusion / smart mapping) and reusing tiles (tiling +
interchange).
"""

from __future__ import annotations

from dataclasses import dataclass

SECONDS_PER_YEAR = 365.25 * 24 * 3600.0


def system_lifetime_years(
    cell_endurance_writes: float,
    crossbar_size_bytes: float,
    write_traffic_bytes_per_s: float,
) -> float:
    """Equation (1) of the paper, returned in years.

    ``write_traffic_bytes_per_s`` is the kernel's sustained crossbar write
    traffic (total bytes written divided by kernel execution time).  A zero
    traffic returns infinity (the crossbar is never rewritten).
    """
    if cell_endurance_writes <= 0 or crossbar_size_bytes <= 0:
        raise ValueError("endurance and crossbar size must be positive")
    if write_traffic_bytes_per_s < 0:
        raise ValueError("write traffic cannot be negative")
    if write_traffic_bytes_per_s == 0:
        return float("inf")
    lifetime_s = (
        cell_endurance_writes * crossbar_size_bytes / write_traffic_bytes_per_s
    )
    return lifetime_s / SECONDS_PER_YEAR


def wear_budget_bytes(
    cell_endurance_writes: float,
    crossbar_size_bytes: float,
    min_lifetime_years: float,
    horizon_s: float,
    share: float = 1.0,
) -> float:
    """Crossbar write volume a workload may spend over *horizon_s* seconds
    without pushing the Eq. 1 device lifetime below *min_lifetime_years*.

    Inverting Eq. 1: sustaining ``lifetime >= min_lifetime_years`` bounds
    the write traffic at ``endurance * size / lifetime_s`` bytes/second;
    over a *horizon_s* window that is a byte budget.  ``share`` scales the
    budget to one tenant's fraction of the device (the serving layer's
    admission controller expresses per-tenant wear quotas this way, so a
    quota of "this tenant may cost us at most 1/8th of a 10-year device"
    becomes a concrete byte count).
    """
    if cell_endurance_writes <= 0 or crossbar_size_bytes <= 0:
        raise ValueError("endurance and crossbar size must be positive")
    if min_lifetime_years <= 0:
        raise ValueError("minimum lifetime must be positive")
    if horizon_s <= 0:
        raise ValueError("budget horizon must be positive")
    if not 0.0 < share <= 1.0:
        raise ValueError("tenant share must be in (0, 1]")
    max_traffic = (
        cell_endurance_writes
        * crossbar_size_bytes
        / (min_lifetime_years * SECONDS_PER_YEAR)
    )
    return share * max_traffic * horizon_s


@dataclass
class EnduranceTracker:
    """Aggregates crossbar write traffic over a simulated execution."""

    crossbar_size_bytes: float = 512 * 1024  # Figure 5 uses a 512 KB crossbar
    total_bytes_written: float = 0.0
    total_execution_time_s: float = 0.0

    def record_kernel(self, bytes_written: float, execution_time_s: float) -> None:
        if bytes_written < 0 or execution_time_s < 0:
            raise ValueError("negative write volume or execution time")
        self.total_bytes_written += bytes_written
        self.total_execution_time_s += execution_time_s

    @property
    def write_traffic_bytes_per_s(self) -> float:
        if self.total_execution_time_s == 0:
            return 0.0
        return self.total_bytes_written / self.total_execution_time_s

    def lifetime_years(self, cell_endurance_writes: float) -> float:
        return system_lifetime_years(
            cell_endurance_writes,
            self.crossbar_size_bytes,
            self.write_traffic_bytes_per_s,
        )

    def lifetime_curve(
        self, endurance_points_writes: list[float]
    ) -> list[tuple[float, float]]:
        """Lifetime (years) for each endurance value — one Figure 5 series."""
        return [
            (endurance, self.lifetime_years(endurance))
            for endurance in endurance_points_writes
        ]
