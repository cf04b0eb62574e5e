"""Host (dual-core Arm-A7) performance and energy model.

The paper profiles the host baseline with Gem5 full-system simulation and
charges 128 pJ per instruction (cache included).  Here the host is modelled
analytically: the cost model walks a program's loop nests, derives dynamic
instruction counts from per-statement operation counts times polyhedral trip
counts, and converts them to time and energy.  There is no separate cache
model: the per-instruction energy already includes the caches.
"""

from repro.host.cpu import ArmA7Core, HostCPU
from repro.host.cost_model import HostCostModel, HostExecutionEstimate

__all__ = [
    "ArmA7Core",
    "HostCPU",
    "HostCostModel",
    "HostExecutionEstimate",
]
