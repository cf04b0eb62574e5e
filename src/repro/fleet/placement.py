"""Lease placement policies for the fleet tier.

A placement policy picks which healthy device serves the next lease.
All policies are deterministic (ties break on device id) so fleet runs
replay exactly.

* :class:`RoundRobinPlacement` — classic rotation; ignores device state
  entirely.  The baseline the benchmark measures against.
* :class:`LeastLoadedPlacement` — the device whose simulated clock is
  furthest behind (shortest queue of committed work) wins; maximises
  parallelism, ignores wear.
* :class:`WearAwarePlacement` — orders devices by *effective* accumulated
  crossbar wear (wear divided by remaining capacity factor, so degraded
  devices age faster in the ranking), then by load.  Because Eq. 1 fleet
  lifetime is the lifetime of the **most-worn** device, levelling wear
  across a heterogeneous fleet directly extends the fleet's implied
  lifetime — the effect ``tests/test_simulated_magnitudes.py`` pins (75x).
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.serve.device import Device


class PlacementPolicy(Protocol):
    """Strategy interface: pick one device from the healthy set."""

    name: str

    def choose(self, devices: Sequence[Device], now_s: float) -> Device:
        ...


def _require_devices(devices: Sequence[Device]) -> None:
    if not devices:
        raise ValueError("placement called with no healthy devices")


class RoundRobinPlacement:
    """Rotate through healthy devices in id order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, devices: Sequence[Device], now_s: float) -> Device:
        _require_devices(devices)
        ordered = sorted(devices, key=lambda d: d.device_id)
        device = ordered[self._cursor % len(ordered)]
        self._cursor += 1
        return device


class LeastLoadedPlacement:
    """Send the lease to the device that will start it soonest."""

    name = "least-loaded"

    def choose(self, devices: Sequence[Device], now_s: float) -> Device:
        _require_devices(devices)
        # A device can start the lease at max(now, its own clock); less
        # committed work first, id breaks ties.
        return min(
            devices,
            key=lambda d: (max(now_s, d.clock.now_s), d.busy_s, d.device_id),
        )


class WearAwarePlacement:
    """Level accumulated crossbar wear across the fleet.

    Primary key: effective wear (total programmed bytes scaled by the
    inverse capacity factor — a degraded device has fewer healthy cells
    absorbing the same writes).  Secondary: pending load, so the policy
    degenerates to least-loaded among equally-worn devices rather than
    serialising on one of them.
    """

    name = "wear-aware"

    def choose(self, devices: Sequence[Device], now_s: float) -> Device:
        _require_devices(devices)
        return min(
            devices,
            key=lambda d: (
                d.total_wear_bytes / d.capacity_factor,
                max(now_s, d.clock.now_s),
                d.device_id,
            ),
        )


_POLICIES = {
    RoundRobinPlacement.name: RoundRobinPlacement,
    LeastLoadedPlacement.name: LeastLoadedPlacement,
    WearAwarePlacement.name: WearAwarePlacement,
}


def make_placement(spec: "str | PlacementPolicy") -> PlacementPolicy:
    """Resolve a policy name (``"wear-aware"`` etc.) or pass through an
    already-built policy object."""
    if isinstance(spec, str):
        try:
            return _POLICIES[spec]()
        except KeyError:
            raise ValueError(
                f"unknown placement policy {spec!r}; "
                f"choose from {sorted(_POLICIES)}"
            ) from None
    return spec


__all__ = [
    "PlacementPolicy",
    "RoundRobinPlacement",
    "LeastLoadedPlacement",
    "WearAwarePlacement",
    "make_placement",
]
