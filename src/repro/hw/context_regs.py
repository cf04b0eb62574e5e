"""Memory-mapped context registers of the CIM accelerator.

The accelerator exposes a register file through a port-mapped IO interface
(Section II-D).  The host-side driver writes kernel parameters (operand
physical addresses, matrix dimensions, scaling factors, operation code) into
the context registers, then writes the COMMAND register to trigger
execution; the accelerator reports completion through the STATUS register,
which the host polls.
"""

from __future__ import annotations

import enum
from typing import Callable, Mapping, Optional


class Register(enum.IntEnum):
    """Register offsets (word-indexed) of the context register file."""

    COMMAND = 0x00
    STATUS = 0x01
    OPCODE = 0x02
    ADDR_A = 0x03
    ADDR_B = 0x04
    ADDR_C = 0x05
    ADDR_D = 0x06          # second output / batched operand table
    DIM_M = 0x07
    DIM_N = 0x08
    DIM_K = 0x09
    ALPHA = 0x0A           # fixed-point encoded scalar
    BETA = 0x0B
    FLAGS = 0x0C           # bit0: transA, bit1: transB, bit2: double-buffering
    BATCH_COUNT = 0x0D
    ELEM_SIZE = 0x0E
    IRQ_ENABLE = 0x0F


class Opcode(enum.IntEnum):
    """Operations the micro-engine understands."""

    NOP = 0
    GEMV = 1
    GEMM = 2
    GEMM_BATCHED = 3
    CONV2D = 4


class Command(enum.IntEnum):
    IDLE = 0
    START = 1
    RESET = 2


class Status(enum.IntEnum):
    IDLE = 0
    BUSY = 1
    DONE = 2
    ERROR = 3


class Flags(enum.IntFlag):
    NONE = 0
    TRANS_A = 1
    TRANS_B = 2
    DOUBLE_BUFFER = 4


#: Fixed-point scale used to pass alpha/beta through integer registers.
SCALAR_FIXED_POINT_SCALE = 1 << 16


def encode_scalar(value: float) -> int:
    """Encode a float scalar into the fixed-point register format."""
    return int(round(value * SCALAR_FIXED_POINT_SCALE))


def decode_scalar(raw: int) -> float:
    return raw / SCALAR_FIXED_POINT_SCALE


#: The statuses by register value (the enum's own lookup is slow enough to
#: show on the launch path, which reads the status twice).
_STATUSES = {int(status): status for status in Status}


class ContextRegisterFile:
    """The accelerator's register file with a trigger callback.

    Writing ``Command.START`` to the COMMAND register invokes the callback
    installed by the accelerator (which runs the micro-engine); this mirrors
    the PMIO behaviour of the modelled hardware.

    ``descriptor_version`` counts writes to every register other than
    COMMAND: while it is unchanged, the registers still hold the kernel
    descriptor of the last start, and a bare START re-runs it.
    """

    def __init__(self, on_start: Optional[Callable[[], None]] = None):
        self._regs: dict[int, int] = {int(reg): 0 for reg in Register}
        self._on_start = on_start
        self.reads = 0
        self.writes = 0
        self.descriptor_version = 0

    # ------------------------------------------------------------------
    def read(self, register: Register | int) -> int:
        self.reads += 1
        return self._regs.get(int(register), 0)

    def write(self, register: Register | int, value: int) -> None:
        self.writes += 1
        register = int(register)
        if register not in self._regs:
            raise KeyError(f"write to unknown context register 0x{register:02x}")
        self._regs[register] = int(value)
        if register != Register.COMMAND:
            self.descriptor_version += 1
        elif int(value) == int(Command.START):
            if self._on_start is None:
                raise RuntimeError("COMMAND.START written but no handler installed")
            self._regs[int(Register.STATUS)] = int(Status.BUSY)
            self._on_start()

    def write_descriptor(self, values: Mapping[Register | int, int]) -> None:
        """Write a kernel descriptor — registers other than COMMAND — as one
        update.  Each register counts as one write, as with :meth:`write`."""
        update = {int(register): int(value) for register, value in values.items()}
        rejected = [reg for reg in update if reg not in self._regs or reg == Register.COMMAND]
        if rejected:
            raise KeyError(f"descriptor write to register(s) {rejected}")
        self._regs.update(update)
        self.writes += len(values)
        self.descriptor_version += len(values)

    # Convenience wrappers used by the micro-engine -----------------------
    def status(self) -> Status:
        value = self._regs[int(Register.STATUS)]
        return _STATUSES[value] if value in _STATUSES else Status(value)

    def set_status(self, status: Status) -> None:
        self._regs[int(Register.STATUS)] = int(status)

    def opcode(self) -> Opcode:
        return Opcode(self._regs[int(Register.OPCODE)])

    def flags(self) -> Flags:
        return Flags(self._regs[int(Register.FLAGS)])

    def snapshot(self) -> dict[str, int]:
        """Readable dump of the register file (for debugging and tests)."""
        return {reg.name: self._regs[int(reg)] for reg in Register}
