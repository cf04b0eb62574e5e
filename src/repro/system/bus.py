"""System bus connecting host, main memory and the CIM accelerator.

The bus routes port-mapped IO accesses from the host to the accelerator's
context registers and counts transactions.  Data traffic between the
accelerator and memory flows through the accelerator's DMA engine (which
talks to :class:`~repro.system.memory.SharedMemory` directly); the bus only
models the control path, as in the paper's Gem5 configuration where the
accelerator sits on the system crossbar as a DMA-capable device.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.context_regs import Register


@dataclass
class PmioWindow:
    """A port-mapped IO window claimed by a device."""

    name: str
    base: int
    size: int
    device: object  # must expose mmio_read / mmio_write

    def contains(self, address: int) -> bool:
        return self.base <= address < self.base + self.size


class BusError(RuntimeError):
    """Access to an unmapped PMIO address."""


class SystemBus:
    """Routes PMIO accesses and keeps transaction statistics."""

    #: Default base address of the CIM accelerator's register window.
    CIM_PMIO_BASE = 0x4000_0000
    #: One 64-bit word per register.
    REGISTER_STRIDE = 8

    def __init__(self) -> None:
        self.windows: list[PmioWindow] = []
        self.pmio_reads = 0
        self.pmio_writes = 0

    # ------------------------------------------------------------------
    def attach_accelerator(self, accelerator, base: int = CIM_PMIO_BASE) -> PmioWindow:
        """Map an accelerator's register file into the PMIO space."""
        size = len(Register) * self.REGISTER_STRIDE
        window = PmioWindow("cim", base, size, accelerator)
        self.windows.append(window)
        return window

    def _find_window(self, address: int) -> PmioWindow:
        for window in self.windows:
            if window.contains(address):
                return window
        raise BusError(f"no device mapped at PMIO address 0x{address:x}")

    # ------------------------------------------------------------------
    def pmio_read(self, address: int) -> int:
        window = self._find_window(address)
        register = (address - window.base) // self.REGISTER_STRIDE
        self.pmio_reads += 1
        return window.device.mmio_read(register)

    def pmio_write(self, address: int, value: int) -> None:
        window = self._find_window(address)
        register = (address - window.base) // self.REGISTER_STRIDE
        self.pmio_writes += 1
        window.device.mmio_write(register, value)

    def register_address(self, window: PmioWindow, register: Register) -> int:
        return window.base + int(register) * self.REGISTER_STRIDE
