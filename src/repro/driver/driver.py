"""The kernel-space CIM driver.

Responsibilities (Section II-E and Figure 3 of the paper):

* allocate/release physically-contiguous shared-memory buffers via CMA;
* translate user virtual addresses to physical addresses for the device;
* expose the accelerator's context registers through an ioctl interface;
* enforce shared-memory coherence by flushing the host caches before the
  accelerator is started (the accelerator itself uses un-cacheable
  accesses);
* let the host wait for completion by polling the status register.

Every entry point charges host-side instructions to the system's host
energy/time ledger, because the paper explicitly counts the driver overhead
as part of the CIM configuration's energy ("the energy numbers incorporate
the energy spent on the driver (host side) and in the accelerator").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.driver.address_translation import PageTable
from repro.driver.cma import CMAAllocator, CMABlock
from repro.driver.ioctl import IoctlCommand
from repro.hw.accelerator import CIMAccelerator
from repro.hw.context_regs import Command, Register, Status
from repro.hw.energy import HostEnergyModel
from repro.hw.stats import StatCounter


class DriverError(RuntimeError):
    """Invalid driver usage (bad handle, device busy, ...)."""


@dataclass
class HostOverheadLedger:
    """Host-side instructions, energy and time charged by the driver/runtime."""

    model: HostEnergyModel = field(default_factory=HostEnergyModel)
    instructions: float = 0.0
    energy_j: float = 0.0
    time_s: float = 0.0

    def charge_instructions(self, instructions: float) -> None:
        if instructions < 0:
            raise ValueError("cannot charge negative instructions")
        self.instructions += instructions
        self.energy_j += self.model.instruction_energy(instructions)
        self.time_s += self.model.instruction_time(instructions)

    def charge_wait(self, wall_time_s: float, poll_interval_s: float = 1e-6) -> None:
        """Charge the periodic status polling during an accelerator run.

        The host is assumed to sleep/do other work between polls (the paper
        notes it "can either wait on spinlock or continue with other tasks");
        only the poll instructions are charged, but the wall-clock time of
        the wait still elapses on the host timeline.
        """
        if wall_time_s < 0:
            raise ValueError("negative wait time")
        polls = max(1, int(wall_time_s / poll_interval_s))
        instructions = polls * self.model.spin_poll_instructions
        self.instructions += instructions
        self.energy_j += self.model.instruction_energy(instructions)
        self.time_s += wall_time_s

    def reset(self) -> None:
        self.instructions = 0.0
        self.energy_j = 0.0
        self.time_s = 0.0


class CimDriver:
    """Kernel-side driver for the CIM accelerator."""

    def __init__(
        self,
        accelerator: CIMAccelerator,
        memory,
        host_model: Optional[HostEnergyModel] = None,
        overhead: Optional[HostOverheadLedger] = None,
    ):
        self.accelerator = accelerator
        self.memory = memory
        self.host_model = host_model or HostEnergyModel()
        self.overhead = overhead or HostOverheadLedger(self.host_model)
        cma_region = memory.cma_region
        self.cma = CMAAllocator(cma_region.base, cma_region.size)
        self.page_table = PageTable()
        self.counters = StatCounter()
        # virtual base -> CMABlock
        self._buffers: dict[int, CMABlock] = {}
        self.initialised = False

    # ------------------------------------------------------------------
    # Device management
    # ------------------------------------------------------------------
    def open(self) -> None:
        """Open the device node (module load / first open)."""
        self.overhead.charge_instructions(self.host_model.ioctl_instructions)
        self.counters.add("driver.open")
        self.initialised = True

    def _require_open(self) -> None:
        if not self.initialised:
            raise DriverError("CIM driver used before open()")

    # ------------------------------------------------------------------
    # Buffer management (CIM_ALLOC / CIM_FREE)
    # ------------------------------------------------------------------
    def alloc(self, size: int) -> tuple[int, int]:
        """Allocate a contiguous buffer; returns (virtual, physical) bases."""
        self._require_open()
        self.overhead.charge_instructions(self.host_model.cma_alloc_instructions)
        self.counters.add("driver.ioctl", 1)
        self.counters.add("driver.alloc", 1)
        block = self.cma.alloc(size)
        virtual = self.page_table.map(block.address, block.size)
        self._buffers[virtual] = block
        return virtual, block.address

    def free(self, virtual: int) -> None:
        self._require_open()
        self.overhead.charge_instructions(self.host_model.ioctl_instructions)
        self.counters.add("driver.ioctl", 1)
        block = self._buffers.pop(virtual, None)
        if block is None:
            raise DriverError(f"free of unknown CIM buffer 0x{virtual:x}")
        self.page_table.unmap(virtual)
        self.cma.free(block.address)

    def translate(self, virtual: int, size: int = 1) -> int:
        """Virtual-to-physical translation used when programming registers."""
        return self.page_table.translate(virtual, size)

    def buffer_size(self, virtual: int) -> int:
        block = self._buffers.get(virtual)
        if block is None:
            raise DriverError(f"unknown CIM buffer 0x{virtual:x}")
        return block.size

    # ------------------------------------------------------------------
    # Register access and kernel submission
    # ------------------------------------------------------------------
    def write_register(self, register: Register, value: int) -> None:
        self._require_open()
        self.counters.add("driver.reg_write", 1)
        self.accelerator.mmio_write(register, value)

    def read_register(self, register: Register) -> int:
        self._require_open()
        self.counters.add("driver.reg_read", 1)
        return self.accelerator.mmio_read(register)

    def submit(self, registers: dict[Register, int], flush_bytes: int) -> None:
        """Program a kernel descriptor and start the accelerator.

        ``registers`` are the descriptor registers this launch writes, as
        one register-file update; a re-trigger of the descriptor the
        registers still hold passes none, and the ioctl then writes
        ``COMMAND.START`` only.  Its host charges (the ioctl and the cache
        flush) are the same either way.

        ``flush_bytes`` is the total size of the shared buffers involved; the
        driver flushes the corresponding cache lines before triggering so the
        accelerator's un-cacheable reads observe the host's writes.
        """
        self._require_open()
        if self.accelerator.registers.status() is Status.BUSY:
            raise DriverError("CIM accelerator is busy")
        # One ioctl round trip carries the whole descriptor.
        self.overhead.charge_instructions(self.host_model.ioctl_instructions)
        self.counters.add("driver.ioctl", 1)
        self.counters.add("driver.submit", 1)
        self._flush_caches(flush_bytes)
        if registers:
            self.counters.add("driver.reg_write", len(registers))
            self.accelerator.registers.write_descriptor(registers)
        self.write_register(Register.COMMAND, int(Command.START))

    def query_info(self) -> dict:
        """CIM_QUERY ioctl: structural information about the device.

        The runtime uses this to size shard-aware workloads without
        hard-coding the accelerator build (tile count, crossbar geometry).
        """
        self._require_open()
        self.overhead.charge_instructions(self.host_model.ioctl_instructions)
        self.counters.add("driver.ioctl", 1)
        self.counters.add("driver.query", 1)
        tile = self.accelerator.tile
        return {
            "num_tiles": self.accelerator.num_tiles,
            "crossbar_rows": tile.rows,
            "crossbar_cols": tile.cols,
            "cell_bits": tile.crossbar.config.cell_bits,
        }

    def wait(self) -> Status:
        """Poll the status register until the accelerator leaves BUSY."""
        self._require_open()
        self.overhead.charge_instructions(self.host_model.ioctl_instructions)
        self.counters.add("driver.ioctl", 1)
        status = self.accelerator.registers.status()
        # The functional model completes synchronously inside START, so the
        # status is already DONE/ERROR; charge the polling that would have
        # happened during the accelerator's latency.
        last_run = self.accelerator.last_run
        wall_time = last_run.latency_s if last_run is not None else 0.0
        self.overhead.charge_wait(wall_time)
        self.counters.add("driver.wait", 1)
        if status is Status.ERROR:
            raise DriverError("CIM accelerator reported an error")
        return status

    # ------------------------------------------------------------------
    def _flush_caches(self, flush_bytes: int) -> None:
        """Charge the cache-maintenance cost of flushing *flush_bytes*."""
        if flush_bytes <= 0:
            return
        lines = (flush_bytes + self.host_model.cache_line_bytes - 1) // (
            self.host_model.cache_line_bytes
        )
        instructions = lines * self.host_model.flush_instructions_per_line
        self.overhead.charge_instructions(instructions)
        self.counters.add("driver.flush_lines", lines)

    # ------------------------------------------------------------------
    def ioctl(self, command: IoctlCommand, **kwargs):
        """Generic ioctl dispatcher (thin veneer over the typed methods)."""
        if command is IoctlCommand.CIM_ALLOC:
            return self.alloc(kwargs["size"])
        if command is IoctlCommand.CIM_FREE:
            return self.free(kwargs["virtual"])
        if command is IoctlCommand.CIM_WRITE_REG:
            self.overhead.charge_instructions(self.host_model.ioctl_instructions)
            return self.write_register(kwargs["register"], kwargs["value"])
        if command is IoctlCommand.CIM_READ_REG:
            self.overhead.charge_instructions(self.host_model.ioctl_instructions)
            return self.read_register(kwargs["register"])
        if command is IoctlCommand.CIM_SUBMIT:
            return self.submit(kwargs["registers"], kwargs.get("flush_bytes", 0))
        if command is IoctlCommand.CIM_WAIT:
            return self.wait()
        if command is IoctlCommand.CIM_FLUSH:
            return self._flush_caches(kwargs["size"])
        if command is IoctlCommand.CIM_RESET:
            self.accelerator.reset_stats()
            return None
        if command is IoctlCommand.CIM_QUERY:
            return self.query_info()
        raise DriverError(f"unknown ioctl command {command!r}")
