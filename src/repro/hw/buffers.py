"""Row/column/output SRAM buffers of the CIM tile.

The digital interface of the tile (Section II-B of the paper) consists of
row buffers, column buffers, and output buffers.  During a write the column
buffers hold the data to be programmed and the row buffers the row-enable
mask; during a compute the row buffers latch the input vector and the column
buffers supply the column-enable mask.  Every byte moved in or out of a
buffer is charged at Table I's 5.4 pJ/byte figure by the tile.  The buffers
are much smaller than an operand tile and the hardware streams data through
them, so only their byte traffic is modelled, not their content.
"""

from __future__ import annotations


class SRAMBuffer:
    """A small SRAM buffer's byte-access counters."""

    def __init__(self, name: str, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("buffer capacity must be positive")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.bytes_written = 0
        self.bytes_read = 0

    @property
    def total_accessed_bytes(self) -> int:
        return self.bytes_written + self.bytes_read

    def reset_stats(self) -> None:
        self.bytes_written = 0
        self.bytes_read = 0

    def __repr__(self) -> str:
        return (
            f"SRAMBuffer({self.name}, {self.capacity_bytes} B, "
            f"w={self.bytes_written}, r={self.bytes_read})"
        )
