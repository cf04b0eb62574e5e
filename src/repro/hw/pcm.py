"""Phase-change-memory device model.

A PCM device stores information in the resistance of a chalcogenide volume
(Figure 1 of the paper): a *reset* pulse melts and quenches the material into
a high-resistance amorphous state, a *set* pulse recrystallises it into a
low-resistance state, and intermediate partial-crystallisation levels encode
multi-bit values.  Reads use a low-amplitude pulse that does not disturb the
state.

The array model tracks, per device:

* the programmed level (``0 .. 2**bits - 1``),
* the cumulative number of *program* operations (endurance wear),

and converts levels to conductances for the analog MVM model.  Programming
pulses only count as wear when the level actually changes (program-and-verify
skips redundant writes), which is also how the endurance benchmarks interpret
"writes".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PCMDeviceParams:
    """Physical parameters of one PCM device."""

    bits: int = 4
    # Conductance range in siemens (typical for IBM doped-GST devices).
    g_min: float = 0.1e-6
    g_max: float = 20.0e-6
    # Programming pulse characteristics (informational; latency/energy are
    # accounted at the crossbar level from Table I).
    set_pulse_ns: float = 1000.0
    reset_pulse_ns: float = 50.0
    read_pulse_ns: float = 10.0
    # Nominal endurance in programming cycles (the paper quotes 1e6 - 1e8).
    endurance_cycles: float = 1e7

    @property
    def levels(self) -> int:
        return 1 << self.bits

    def level_to_conductance(self, level: np.ndarray | int) -> np.ndarray | float:
        """Map a programmed level to a device conductance (linear spacing)."""
        fraction = np.asarray(level, dtype=np.float64) / (self.levels - 1)
        return self.g_min + fraction * (self.g_max - self.g_min)

    def conductance_to_level(self, conductance: np.ndarray | float) -> np.ndarray:
        fraction = (np.asarray(conductance, dtype=np.float64) - self.g_min) / (
            self.g_max - self.g_min
        )
        levels = np.rint(np.clip(fraction, 0.0, 1.0) * (self.levels - 1))
        return levels.astype(np.int64)


class PCMCellArray:
    """A 2-D array of PCM devices with wear tracking."""

    def __init__(self, rows: int, cols: int, params: PCMDeviceParams | None = None):
        if rows <= 0 or cols <= 0:
            raise ValueError("PCM array dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.params = params or PCMDeviceParams()
        # Levels are validated against the device range before they are
        # stored, so the narrowest unsigned type holds them.
        self.levels = np.zeros(
            (rows, cols), dtype=np.min_scalar_type(self.params.levels - 1)
        )
        self.write_counts = np.zeros((rows, cols), dtype=np.int64)
        self.total_program_ops = 0

    # ------------------------------------------------------------------
    # Programming and reading
    # ------------------------------------------------------------------
    def program(
        self,
        values: np.ndarray,
        row_offset: int = 0,
        col_offset: int = 0,
        count_unchanged: bool = False,
    ) -> int:
        """Program a block of devices to the given levels.

        Returns the number of devices whose state actually changed (the wear
        increment).  ``count_unchanged`` forces every targeted device to be
        counted, modelling a controller without program-and-verify.
        """
        values = np.asarray(values)
        if values.dtype.kind not in "iu":
            values = values.astype(np.int64)
        if values.ndim != 2:
            raise ValueError("program() expects a 2-D block of levels")
        max_level = self.params.levels - 1
        lowest, highest = values.min(), values.max()
        if lowest < 0 or highest > max_level:
            raise ValueError(
                f"levels out of range 0..{max_level}: [{lowest}, {highest}]"
            )
        r0, c0 = row_offset, col_offset
        r1, c1 = r0 + values.shape[0], c0 + values.shape[1]
        if r1 > self.rows or c1 > self.cols or r0 < 0 or c0 < 0:
            raise ValueError("programmed block exceeds array bounds")
        if count_unchanged:
            self.write_counts[r0:r1, c0:c1] += 1
            n_changed = values.size
        else:
            changed = self.levels[r0:r1, c0:c1] != values
            self.write_counts[r0:r1, c0:c1] += changed
            n_changed = int(changed.sum())
        self.total_program_ops += n_changed
        self.levels[r0:r1, c0:c1] = values
        return n_changed

    def read(self, row_offset: int = 0, col_offset: int = 0,
             rows: int | None = None, cols: int | None = None) -> np.ndarray:
        """Read back programmed levels (non-destructive)."""
        rows = self.rows - row_offset if rows is None else rows
        cols = self.cols - col_offset if cols is None else cols
        return self.levels[
            row_offset : row_offset + rows, col_offset : col_offset + cols
        ].copy()

    def conductances(self) -> np.ndarray:
        """Conductance matrix of the whole array (siemens)."""
        return self.params.level_to_conductance(self.levels)

    # ------------------------------------------------------------------
    # Wear statistics
    # ------------------------------------------------------------------
    @property
    def max_cell_writes(self) -> int:
        return int(self.write_counts.max(initial=0))

    @property
    def mean_cell_writes(self) -> float:
        return float(self.write_counts.mean()) if self.write_counts.size else 0.0

    def worn_out_fraction(self, endurance_cycles: float | None = None) -> float:
        """Fraction of devices past their endurance limit."""
        limit = endurance_cycles or self.params.endurance_cycles
        if self.write_counts.size == 0:
            return 0.0
        return float((self.write_counts >= limit).mean())

    def reset_wear(self) -> None:
        self.write_counts[:] = 0
        self.total_program_ops = 0
