"""Contiguous memory allocator (CMA) model.

The paper's runtime allocates accelerator buffers through the Linux CMA
APIs: allocations are physically contiguous, not limited to page-sized
chunks, and need no per-buffer management in the driver's fast path.  This
module implements a first-fit allocator with coalescing frees over the CMA
region of the simulated physical memory.
"""

from __future__ import annotations

from dataclasses import dataclass


class CMAError(RuntimeError):
    """Allocation failure or invalid free."""


@dataclass(frozen=True)
class CMABlock:
    """One allocated block."""

    address: int
    size: int


class CMAAllocator:
    """First-fit allocator over a contiguous physical range."""

    def __init__(self, base: int, size: int, alignment: int = 64):
        if size <= 0:
            raise ValueError("CMA region size must be positive")
        if alignment <= 0 or (alignment & (alignment - 1)) != 0:
            raise ValueError("alignment must be a positive power of two")
        self.base = base
        self.size = size
        self.alignment = alignment
        # Free list of (address, size), sorted by address, non-overlapping.
        self._free: list[tuple[int, int]] = [(base, size)]
        self._allocated: dict[int, int] = {}
        self.peak_usage = 0
        self.total_allocations = 0
        self.failed_allocations = 0

    # ------------------------------------------------------------------
    def _align_up(self, value: int) -> int:
        mask = self.alignment - 1
        return (value + mask) & ~mask

    def alloc(self, size: int) -> CMABlock:
        """Allocate a physically-contiguous block of at least *size* bytes."""
        if size <= 0:
            raise CMAError("allocation size must be positive")
        size = self._align_up(size)
        for index, (addr, free_size) in enumerate(self._free):
            aligned = self._align_up(addr)
            padding = aligned - addr
            if free_size - padding >= size:
                # Carve the block out of this free range.
                remaining_front = padding
                remaining_back = free_size - padding - size
                replacement: list[tuple[int, int]] = []
                if remaining_front > 0:
                    replacement.append((addr, remaining_front))
                if remaining_back > 0:
                    replacement.append((aligned + size, remaining_back))
                self._free[index : index + 1] = replacement
                self._allocated[aligned] = size
                self.total_allocations += 1
                self.peak_usage = max(self.peak_usage, self.used_bytes)
                return CMABlock(aligned, size)
        self.failed_allocations += 1
        raise CMAError(
            f"cannot allocate {size} B from CMA region "
            f"({self.free_bytes} B free, fragmented into {len(self._free)} ranges)"
        )

    def free(self, address: int) -> None:
        """Release a previously allocated block (coalescing neighbours)."""
        size = self._allocated.pop(address, None)
        if size is None:
            raise CMAError(f"free of unallocated CMA address 0x{address:x}")
        self._free.append((address, size))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for addr, block_size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == addr:
                prev_addr, prev_size = merged[-1]
                merged[-1] = (prev_addr, prev_size + block_size)
            else:
                merged.append((addr, block_size))
        self._free = merged

    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return sum(self._allocated.values())

    @property
    def free_bytes(self) -> int:
        return sum(size for _, size in self._free)

    @property
    def live_allocations(self) -> int:
        return len(self._allocated)

    def owns(self, address: int) -> bool:
        return address in self._allocated
