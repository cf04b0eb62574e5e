"""Full-system integration: shared memory, system bus, and configuration.

This package corresponds to the paper's emulated platform (Figure 2 (a)): a
host, main memory, and the CIM accelerator connected through a system bus,
with the software stack of Figure 3 layered on top.  :class:`CimSystem`
assembles everything and is the single entry point the code generator's
executor and the evaluation harness use.

:class:`SystemConfig` carries the Table I hardware parameters plus the
simulation knobs: ``num_tiles`` (multi-tile offload sharding, default 1),
``crossbar_rows``/``crossbar_cols`` geometry overrides, ``double_buffering``
(DMA/compute pipelining), and the ``batch_gemv`` dispatch flag.
"""

from repro.system.memory import SharedMemory, MemoryRegion
from repro.system.bus import SystemBus
from repro.system.config import SystemConfig
from repro.system.system import CimSystem

__all__ = ["SharedMemory", "MemoryRegion", "SystemBus", "SystemConfig", "CimSystem"]
