"""Fault-tolerant multi-device fleet tier (see :mod:`repro.fleet.server`)."""

from repro.fleet.faults import CapacityDegrade, DeviceKill, FaultPlan, OpFaultRule
from repro.fleet.placement import (
    LeastLoadedPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    WearAwarePlacement,
    make_placement,
)
from repro.fleet.server import FleetConfig, FleetServer

# The device type is the serving loop's; the fleet-facing name is kept.
from repro.serve.device import Device as FleetDevice
from repro.serve.device import DeviceState

__all__ = [
    "CapacityDegrade",
    "DeviceKill",
    "DeviceState",
    "FaultPlan",
    "FleetConfig",
    "FleetDevice",
    "FleetServer",
    "LeastLoadedPlacement",
    "OpFaultRule",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "WearAwarePlacement",
    "make_placement",
]
