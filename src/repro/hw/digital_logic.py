"""Digital post-processing block of the CIM tile.

The crossbar realises an 8-bit logical cell with two adjacent 4-bit PCM
devices: one column holds the 4 most-significant bits, its neighbour the 4
least-significant bits.  The digital logic block recombines the two partial
dot products with a weighted sum (``msb * 16 + lsb``), applies scalar
post-processing (alpha/beta scaling, accumulation into the output buffer)
and performs reduction functions.  Table I charges 40 pJ per GEMV for the
weighted sum plus 2.11 pJ per additional ALU operation; this module counts
those operations so the tile can convert them to energy.
"""

from __future__ import annotations

import numpy as np


class DigitalLogic:
    """Counts and performs the scalar digital work of the tile."""

    def __init__(self) -> None:
        self.weighted_sums = 0
        self.alu_ops = 0

    # ------------------------------------------------------------------
    def weighted_column_sum(
        self, msb_partial: np.ndarray, lsb_partial: np.ndarray, device_bits: int
    ) -> np.ndarray:
        """Combine MSB/LSB column results into full-resolution values."""
        msb = np.asarray(msb_partial, dtype=np.float64)
        lsb = np.asarray(lsb_partial, dtype=np.float64)
        if msb.shape != lsb.shape:
            raise ValueError("MSB/LSB partial results must have the same shape")
        self.weighted_sums += 1
        # One multiply-add per element beyond the per-GEMV weighted-sum budget.
        self.alu_ops += msb.size
        return msb * float(1 << device_bits) + lsb

    def reduce_sum(self, values: np.ndarray) -> float:
        """Scalar reduction (sum) in the digital block."""
        values = np.asarray(values, dtype=np.float64)
        self.alu_ops += max(0, values.size - 1)
        return float(values.sum())

    def reset_stats(self) -> None:
        self.weighted_sums = 0
        self.alu_ops = 0
