"""Virtual-to-physical address translation in the CIM driver.

The accelerator only understands physical addresses, while the user-space
runtime works with virtual addresses (Section II-E).  The driver keeps a
page-granular mapping of the CMA buffers it handed out and translates the
virtual addresses of runtime calls before writing them into the context
registers.  Contiguity is guaranteed by the CMA allocator, so a single
(base, size) mapping per buffer suffices — but translation is still modelled
page by page so misuse (crossing an unmapped page) is caught.
"""

from __future__ import annotations

from dataclasses import dataclass


class TranslationError(RuntimeError):
    """Virtual address not mapped (or range crosses an unmapped page)."""


@dataclass(frozen=True)
class Mapping:
    virtual_base: int
    physical_base: int
    size: int

    def contains(self, virtual: int, size: int = 1) -> bool:
        return self.virtual_base <= virtual and virtual + size <= self.virtual_base + self.size


class PageTable:
    """Simple region-based virtual address space for CIM buffers."""

    #: Virtual addresses of CIM buffers start here (an arbitrary window that
    #: cannot collide with physical addresses used in the simulation).
    VIRTUAL_BASE = 0x1_0000_0000

    def __init__(self, page_size: int = 4096):
        if page_size <= 0 or (page_size & (page_size - 1)) != 0:
            raise ValueError("page size must be a positive power of two")
        self.page_size = page_size
        self._mappings: list[Mapping] = []
        self._next_virtual = self.VIRTUAL_BASE
        self.translations = 0

    # ------------------------------------------------------------------
    def map(self, physical_base: int, size: int) -> int:
        """Create a new virtual mapping for a physical range; returns the
        virtual base address."""
        if size <= 0:
            raise ValueError("mapping size must be positive")
        pages = (size + self.page_size - 1) // self.page_size
        mapped_size = pages * self.page_size
        virtual_base = self._next_virtual
        self._next_virtual += mapped_size + self.page_size  # guard page
        mapping = Mapping(virtual_base, physical_base, mapped_size)
        self._mappings.append(mapping)
        return virtual_base

    def unmap(self, virtual_base: int) -> None:
        for index, mapping in enumerate(self._mappings):
            if mapping.virtual_base == virtual_base:
                del self._mappings[index]
                return
        raise TranslationError(f"unmap of unknown virtual address 0x{virtual_base:x}")

    def translate(self, virtual: int, size: int = 1) -> int:
        """Translate a virtual address (checking the whole range is mapped)."""
        self.translations += 1
        for mapping in self._mappings:
            if mapping.contains(virtual, size):
                return mapping.physical_base + (virtual - mapping.virtual_base)
        raise TranslationError(
            f"virtual address 0x{virtual:x} (+{size} B) is not mapped"
        )

    def is_mapped(self, virtual: int, size: int = 1) -> bool:
        return any(m.contains(virtual, size) for m in self._mappings)
