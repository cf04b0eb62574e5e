"""Simulated physical main memory with named regions.

The memory is byte-addressable and backed by a NumPy ``uint8`` array.  The
default layout reserves a CMA (contiguous memory allocator) region at the
top of the physical address space, matching how the paper's driver obtains
physically-contiguous buffers for the accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MemoryRegion:
    """A named physical address range."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int, size: int = 1) -> bool:
        return self.base <= address and address + size <= self.end


class MemoryAccessError(RuntimeError):
    """Out-of-range or misaligned physical memory access."""


class WriteWatch:
    """Whether ``[start, end)`` was written since the watch began (see
    :meth:`SharedMemory.watch`)."""

    __slots__ = ("start", "end", "written")

    def __init__(self, start: int, end: int):
        self.start, self.end, self.written = start, end, False


class SharedMemory:
    """Byte-addressable simulated DRAM shared by host and accelerator."""

    def __init__(self, size_bytes: int = 64 * 1024 * 1024, cma_bytes: int = 32 * 1024 * 1024):
        if size_bytes <= 0:
            raise ValueError("memory size must be positive")
        if cma_bytes > size_bytes:
            raise ValueError("CMA region cannot exceed total memory")
        self.size_bytes = size_bytes
        self._data = np.zeros(size_bytes, dtype=np.uint8)
        self.regions = {
            "system": MemoryRegion("system", 0, size_bytes - cma_bytes),
            "cma": MemoryRegion("cma", size_bytes - cma_bytes, cma_bytes),
        }
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._watches: list[WriteWatch] = []

    # ------------------------------------------------------------------
    @property
    def cma_region(self) -> MemoryRegion:
        return self.regions["cma"]

    def _check(self, address: int, size: int) -> None:
        if address < 0 or size < 0 or address + size > self.size_bytes:
            raise MemoryAccessError(
                f"access of {size} B at 0x{address:x} outside memory of "
                f"{self.size_bytes} B"
            )

    # ------------------------------------------------------------------
    def view(self, address: int, size: int) -> np.ndarray:
        """A read-only window onto *size* bytes, without copying them.

        Counted as one read, exactly like :meth:`read`.  The window aliases
        the memory: it shows later writes, so a caller that keeps it past
        the next write must copy it.
        """
        window = self.window(address, size)
        self.reads += 1
        self.bytes_read += size
        return window

    def window(self, address: int, size: int) -> np.ndarray:
        """:meth:`view` without counting the read: for a reader that keeps
        the window across accesses and counts every access itself."""
        self._check(address, size)
        window = self._data[address : address + size]
        window.flags.writeable = False
        return window

    def read(self, address: int, size: int) -> bytes:
        return self.view(address, size).tobytes()

    def write(self, address: int, payload: bytes | bytearray | np.ndarray) -> int:
        """Copy *payload* (raw bytes, or an array of byte values) into
        memory — the only copy made.  Returns the byte count."""
        if isinstance(payload, np.ndarray):
            data = payload.astype(np.uint8, copy=False).reshape(-1)
        else:
            data = np.frombuffer(payload, dtype=np.uint8)
        self._check(address, data.size)
        self.writes += 1
        self.bytes_written += data.size
        self._data[address : address + data.size] = data
        if self._watches:
            self._mark_written(address, address + data.size)
        return data.size

    # Typed helpers --------------------------------------------------------
    def read_array(self, address: int, count: int, dtype=np.float32) -> np.ndarray:
        dtype = np.dtype(dtype)
        raw = self.read(address, count * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).copy()

    def write_array(self, address: int, array: np.ndarray) -> int:
        contiguous = np.ascontiguousarray(array)
        return self.write(address, contiguous.view(np.uint8).ravel())

    def fill(self, address: int, size: int, value: int = 0) -> None:
        self._check(address, size)
        self._data[address : address + size] = value
        self._mark_written(address, address + size)

    # Write watches ----------------------------------------------------------
    def watch(self, address: int, size: int) -> WriteWatch:
        """Watch ``[address, address + size)``: the watch's ``written``
        turns True at the first :meth:`write` or :meth:`fill` that overlaps
        it.  A reader that keeps a copy of the range learns for free that
        the copy is still current.  End it with :meth:`unwatch`."""
        self._check(address, size)
        watch = WriteWatch(address, address + size)
        self._watches.append(watch)
        return watch

    def unwatch(self, watch: WriteWatch) -> None:
        self._watches.remove(watch)

    def _mark_written(self, start: int, end: int) -> None:
        for watch in self._watches:
            if start < watch.end and watch.start < end:
                watch.written = True

    def reset_stats(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
