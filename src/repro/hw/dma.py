"""DMA engine: moves operand data between shared memory and the CIM tile.

The accelerator accesses the shared global memory exclusively through its
DMA unit with un-cacheable requests (Section II-E), which keeps it coherent
with the host without hardware snooping.  The model charges a per-byte
energy and a bandwidth-limited latency per transfer and keeps aggregate
counters for the evaluation layer.
"""

from __future__ import annotations

import numpy as np

from repro.hw.energy import CimEnergyModel


class DMAEngine:
    """Bandwidth- and energy-accounted shared-memory access."""

    def __init__(self, memory, energy_model: CimEnergyModel | None = None):
        """``memory`` is a :class:`repro.system.memory.SharedMemory` (or any
        object with its ``read``, ``view`` and ``write`` methods)."""
        self.memory = memory
        self.energy_model = energy_model or CimEnergyModel()
        self.total_bytes = 0
        self.total_energy_j = 0.0
        self.total_time_s = 0.0

    # ------------------------------------------------------------------
    def read(self, address: int, size_bytes: int) -> bytes:
        """Fetch *size_bytes* from shared memory into the accelerator."""
        payload = self.memory.read(address, size_bytes)
        self._account(size_bytes)
        return payload

    def write(self, address: int, payload: bytes | np.ndarray) -> int:
        """Store accelerator data back to shared memory."""
        size = self.memory.write(address, payload)
        self._account(size)
        return size

    def read_array(self, address: int, count: int, dtype=np.float32) -> np.ndarray:
        """A typed, read-only window onto shared memory (nothing is copied;
        see :meth:`repro.system.memory.SharedMemory.view`)."""
        dtype = np.dtype(dtype)
        size = count * dtype.itemsize
        window = self.memory.view(address, size).view(dtype)
        self._account(size)
        return window

    def write_array(self, address: int, array: np.ndarray) -> int:
        return self.write(address, np.ascontiguousarray(array).view(np.uint8).ravel())

    # ------------------------------------------------------------------
    def _account(self, size_bytes: int) -> None:
        self.total_bytes += size_bytes
        self.total_energy_j += size_bytes * self.energy_model.dma_energy_per_byte_j
        self.total_time_s += size_bytes / self.energy_model.dma_bandwidth_bytes_per_s

    def reset_stats(self) -> None:
        self.total_bytes = 0
        self.total_energy_j = 0.0
        self.total_time_s = 0.0
