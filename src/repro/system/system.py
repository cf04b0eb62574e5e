"""Assembly of the full emulated platform.

:class:`CimSystem` wires together the shared memory, the system bus, the CIM
accelerator, the kernel driver, the user-space runtime and the host cost
model — the complete hardware/software stack of Figures 2 (a) and 3.  The
code generator's executor and the evaluation harness only ever talk to this
object.
"""

from __future__ import annotations

from typing import Optional

from repro.driver.driver import CimDriver, HostOverheadLedger
from repro.host.cost_model import HostCostModel
from repro.host.cpu import HostCPU
from repro.hw.accelerator import CIMAccelerator
from repro.runtime.api import CimRuntime
from repro.runtime.blas import CimBlas
from repro.system.bus import SystemBus
from repro.system.config import SystemConfig
from repro.system.memory import SharedMemory


class CimSystem:
    """The emulated host + CIM accelerator platform."""

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig.paper_default()
        self.memory = SharedMemory(self.config.memory_bytes, self.config.cma_bytes)
        self.bus = SystemBus()
        self.accelerator = CIMAccelerator(
            self.memory,
            energy_model=self.config.cim,
            crossbar_config=self.config.crossbar_config(),
            config=self.config.accelerator_config(),
        )
        self.pmio_window = self.bus.attach_accelerator(self.accelerator)
        self.host_cpu = HostCPU(self.config.host)
        self.host_overhead = HostOverheadLedger(self.config.host)
        self.driver = CimDriver(
            self.accelerator,
            self.memory,
            host_model=self.config.host,
            overhead=self.host_overhead,
        )
        self.runtime = CimRuntime(self.driver)
        self.blas = CimBlas(self.runtime)
        self.host_cost_model = HostCostModel(self.config.host)

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Clear all accumulated statistics (buffers stay allocated)."""
        self.accelerator.reset_stats()
        self.host_overhead.reset()
        self.memory.reset_stats()

    # ------------------------------------------------------------------
    @property
    def crossbar(self):
        return self.accelerator.tile.crossbar

    def __repr__(self) -> str:
        cim = self.config.cim
        return (
            f"CimSystem(crossbar={cim.crossbar_rows}x{cim.crossbar_cols}@"
            f"{cim.cell_bits}b, mode={self.config.crossbar_mode}, "
            f"mem={self.config.memory_bytes >> 20} MiB)"
        )
