"""One member of a serving loop's device set.

A :class:`Device` is everything one emulated device needs to serve
leases — the :class:`~repro.serve.dispatch.LeaseExecutor` the loop wired
to its shared ledger/metrics/timeline, and through it the device's
:class:`~repro.system.system.CimSystem` (accelerator + runtime + BLAS;
private unless the caller provides one) and
:class:`~repro.serve.clock.VirtualClock`.  Given its own clock (the
fleet configuration) devices serve leases in *parallel* simulated time —
the loop clock only tracks arrivals and batching windows; handed the
loop's clock (the single-device configuration) a lease advances the
server's time directly.

The device also carries the state the placement policies and the fault
machinery read: lifecycle (:class:`DeviceState`), accumulated busy time,
capacity factor (shrunk by :class:`~repro.fleet.faults.CapacityDegrade`
events) and total crossbar wear.  ``initial_wear_bytes`` models a device
that joined the fleet already aged — heterogeneous fleets are where
wear-aware placement pays off (see ``tests/test_simulated_magnitudes.py``).
"""

from __future__ import annotations

import enum

from repro.serve.dispatch import LeaseExecutor


class DeviceState(enum.Enum):
    """Lifecycle of a device."""

    #: Healthy: eligible for placement.
    UP = "up"
    #: Failed: no new leases; in-flight work is being migrated away.
    QUARANTINED = "quarantined"
    #: Failed and fully evacuated; terminal.
    DRAINED = "drained"


class Device:
    """One emulated CIM device inside a serving loop
    (:class:`~repro.serve.server.CimServer` has one,
    :class:`~repro.fleet.server.FleetServer` has N)."""

    def __init__(
        self,
        lease_executor: LeaseExecutor,
        owns_system: bool = True,
        initial_wear_bytes: int = 0,
    ):
        if initial_wear_bytes < 0:
            raise ValueError("initial_wear_bytes cannot be negative")
        self.lease_executor = lease_executor
        self.device_id = lease_executor.device_id
        self.system = lease_executor.system
        self.executor = lease_executor.executor
        self.clock = lease_executor.clock
        # A caller-provided system outlives the device: shutdown releases
        # its leased buffers but leaves its runtime session usable.
        self._owns_system = owns_system
        self.state = DeviceState.UP
        self.capacity_factor = 1.0
        self.initial_wear_bytes = initial_wear_bytes
        self.busy_s = 0.0
        self.leases = 0
        self.system.runtime.cim_init(0)

    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        return self.state is DeviceState.UP

    @property
    def total_wear_bytes(self) -> int:
        """Lifetime-model wear: bytes ever written to this device's
        crossbars (pre-fleet age included)."""
        return self.initial_wear_bytes + self.system.accelerator.total_cell_writes()

    def implied_lifetime_years(
        self, cell_endurance: float, writes_per_year_bytes: float
    ) -> float:
        """Eq. 1 lifetime this device would reach if its *current* wear
        rate were sustained at ``writes_per_year_bytes``; the device's
        accumulated wear is deducted from the endurance budget first."""
        tile = self.system.accelerator.tile
        size_bytes = tile.rows * tile.cols
        total_budget = cell_endurance * size_bytes
        remaining = max(0.0, total_budget - self.total_wear_bytes)
        if writes_per_year_bytes <= 0:
            return float("inf")
        return remaining / writes_per_year_bytes

    # ------------------------------------------------------------------
    def quarantine(self) -> None:
        if self.state is DeviceState.UP:
            self.state = DeviceState.QUARANTINED

    def drain(self) -> None:
        if self.state is not DeviceState.DRAINED:
            self.state = DeviceState.DRAINED

    def degrade(self, factor: float) -> None:
        """Shrink usable lease capacity; degradations compound."""
        self.capacity_factor *= factor

    def shutdown(self) -> None:
        if self._owns_system:
            self.system.runtime.cim_shutdown()
        else:
            self.system.runtime.free_all()

    def __repr__(self) -> str:
        return (
            f"Device(id={self.device_id}, state={self.state.value}, "
            f"wear={self.total_wear_bytes}B, busy={self.busy_s:.6f}s)"
        )


__all__ = ["Device", "DeviceState"]
