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

Wear is kept as block records: a write that pulses every cell of a block
(``count_unchanged=True``, the crossbar's case) adds one to the pulse
count of its ``(r0, r1, c0, c1)`` rectangle in a pending map, and the map
is folded into the per-cell counts only when wear is read, on
:meth:`PCMCellArray.reset_wear`, or when it holds more than
:data:`MAX_PENDING_BLOCKS` distinct rectangles.  Integer addition
commutes, so the counts read back are those of per-cell increments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Distinct pending wear rectangles a cell array holds before it folds them.
MAX_PENDING_BLOCKS = 128


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
        self._levels = np.zeros(
            (rows, cols), dtype=np.min_scalar_type(self.params.levels - 1)
        )
        #: Set by an owner that stores levels lazily (the crossbar): called
        #: before the levels are read or written.
        self._store_deferred_levels: Callable[[], None] | None = None
        self._counts = np.zeros((rows, cols), dtype=np.int64)
        #: ``(r0, r1, c0, c1) -> pulses`` not yet folded into ``_counts``.
        self._pending: dict[tuple[int, int, int, int], int] = {}
        self.total_program_ops = 0

    @property
    def levels(self) -> np.ndarray:
        """The programmed level of every device."""
        if self._store_deferred_levels is not None:
            self._store_deferred_levels()
        return self._levels

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
        levels = self.levels
        if count_unchanged:
            levels[r0:r1, c0:c1] = values
            return self._pulse(r0, r1, c0, c1)
        changed = levels[r0:r1, c0:c1] != values
        self._counts[r0:r1, c0:c1] += changed
        n_changed = int(changed.sum())
        self.total_program_ops += n_changed
        levels[r0:r1, c0:c1] = values
        return n_changed

    def _pulse(self, r0: int, r1: int, c0: int, c1: int) -> int:
        """Count one programming pulse on every device of the block
        (the wear of ``program(count_unchanged=True)``, for an owner that
        stores the levels itself)."""
        key = (r0, r1, c0, c1)
        pending = self._pending
        pending[key] = pending.get(key, 0) + 1
        if len(pending) > MAX_PENDING_BLOCKS:
            self._fold_wear()
        pulses = (r1 - r0) * (c1 - c0)
        self.total_program_ops += pulses
        return pulses

    def _fold_wear(self) -> None:
        counts = self._counts
        for (r0, r1, c0, c1), pulses in self._pending.items():
            counts[r0:r1, c0:c1] += pulses
        self._pending.clear()

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
    def write_counts(self) -> np.ndarray:
        """Per-device program-operation counts (int64)."""
        if self._pending:
            self._fold_wear()
        return self._counts

    @property
    def max_cell_writes(self) -> int:
        return int(self.write_counts.max(initial=0))

    @property
    def mean_cell_writes(self) -> float:
        return float(self.write_counts.mean())

    def worn_out_fraction(self, endurance_cycles: float | None = None) -> float:
        """Fraction of devices past their endurance limit."""
        if endurance_cycles is None:
            endurance_cycles = self.params.endurance_cycles
        return float((self.write_counts >= endurance_cycles).mean())

    def reset_wear(self) -> None:
        self._pending.clear()
        self._counts[:] = 0
        self.total_program_ops = 0
