"""Memristive crossbar model: analog matrix-vector multiplication.

The crossbar stores a matrix as device conductances and computes, in one
step, the dot product of an input voltage vector with every column
(Figure 2 (c) of the paper: ``I = v . G``).  A logical 8-bit cell is realised
with two adjacent 4-bit PCM devices — one column of most-significant nibbles
and one of least-significant nibbles — whose partial results the digital
logic recombines with a weighted sum.

Two numeric modes are supported:

* ``ideal`` — operands are kept at full floating-point precision.  Wear,
  energy and latency are still accounted as if the values had been
  programmed at 8-bit resolution.  Integration tests use this mode so the
  offloaded program matches the host reference to floating-point rounding
  (batched GEMV dispatch maps to one BLAS matmul per programmed tile — for
  a convolution, one for the whole image — which may round a few ULPs
  differently from per-vector products; disable
  ``SystemConfig.batch_gemv`` for the exact sequential dispatch).
* ``quantized`` — operands are quantised to signed 8-bit fixed point (with a
  per-write scale factor), split into 4-bit MSB/LSB device levels, multiplied
  in the "analog" domain, digitised by the shared ADC and recombined
  digitally.  This mode exposes the accuracy impact of the analog substrate
  and is exercised by dedicated tests and an ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.hw.adc import ADCConfig, ADCStage
from repro.hw.digital_logic import DigitalLogic
from repro.hw.pcm import PCMCellArray, PCMDeviceParams


@dataclass(frozen=True)
class CrossbarConfig:
    """Geometry and numeric configuration of one crossbar."""

    rows: int = 256
    cols: int = 256
    cell_bits: int = 8
    device_bits: int = 4
    mode: str = "ideal"  # "ideal" or "quantized"
    pcm: PCMDeviceParams = field(default_factory=PCMDeviceParams)
    adc: ADCConfig = field(default_factory=ADCConfig)

    def __post_init__(self) -> None:
        if self.mode not in ("ideal", "quantized"):
            raise ValueError(f"unknown crossbar mode {self.mode!r}")
        if self.cell_bits % self.device_bits != 0:
            raise ValueError("cell_bits must be a multiple of device_bits")

    @property
    def devices_per_cell(self) -> int:
        return self.cell_bits // self.device_bits

    @property
    def capacity_bytes(self) -> int:
        return self.rows * self.cols * self.cell_bits // 8


@dataclass
class WriteReport:
    """Result of programming a block of the crossbar."""

    cells_targeted: int = 0
    cells_changed: int = 0
    rows_touched: int = 0


@dataclass
class GemvReport:
    """Result of one analog GEMV (or a batch of GEMVs)."""

    rows_active: int = 0
    cols_active: int = 0
    macs: int = 0
    adc_conversions: int = 0
    gemv_count: int = 1


class Crossbar:
    """One memristive crossbar with wear tracking and counters."""

    def __init__(self, config: Optional[CrossbarConfig] = None):
        self.config = config or CrossbarConfig()
        cfg = self.config
        # Physical devices: MSB plane and LSB plane (two 4-bit devices per
        # logical 8-bit cell, as adjacent columns in the real layout).
        self.msb_plane = PCMCellArray(cfg.rows, cfg.cols, cfg.pcm)
        self.lsb_plane = PCMCellArray(cfg.rows, cfg.cols, cfg.pcm)
        self.adc = ADCStage(cfg.adc)
        self.digital = DigitalLogic()
        # Full-precision shadow of the stored values (used in ideal mode and
        # for read-back checks in quantized mode).
        self._values = np.zeros((cfg.rows, cfg.cols), dtype=np.float64)
        self._scale = 1.0
        # Lifetime counters.
        self.total_cell_writes = 0
        self.total_gemvs = 0
        self.total_macs = 0
        self.total_rows_written = 0

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def write(
        self,
        matrix: np.ndarray,
        row_offset: int = 0,
        col_offset: int = 0,
    ) -> WriteReport:
        """Program a block of the crossbar with *matrix* (float values)."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("crossbar write expects a 2-D matrix")
        rows, cols = matrix.shape
        cfg = self.config
        if row_offset + rows > cfg.rows or col_offset + cols > cfg.cols:
            raise ValueError(
                f"write of {rows}x{cols} at ({row_offset},{col_offset}) exceeds "
                f"crossbar {cfg.rows}x{cfg.cols}"
            )
        # Quantise to 8-bit levels for the physical planes, offset by 128
        # into the unsigned range 1..255; the scale is shared across the
        # whole crossbar (the micro-engine writes one operand tile at a
        # time, so this matches its usage).  A block with no magnitude to
        # scale by -- all zeros, or holding a NaN -- is programmed as zeros.
        max_abs = float(max(matrix.max(), -matrix.min())) if matrix.size else 0.0
        scale = max_abs / 127.0 if max_abs > 0 else 1.0
        if not 0.0 < scale < np.inf:
            raise ValueError(f"operand magnitude {max_abs} cannot be quantised")
        if max_abs > 0:
            scaled = matrix / scale
            np.rint(scaled, out=scaled)
            scaled += 128.0
            levels = scaled.astype(np.uint8)
        else:
            levels = np.full(matrix.shape, 128, dtype=np.uint8)
        self._values[row_offset : row_offset + rows, col_offset : col_offset + cols] = (
            matrix
        )
        self._scale = scale
        # Wear is counted per programming pulse (no program-and-verify skip):
        # the paper's endurance analysis counts every write issued to a cell.
        self.msb_plane.program(
            levels >> cfg.device_bits, row_offset, col_offset, count_unchanged=True
        )
        self.lsb_plane.program(
            levels & ((1 << cfg.device_bits) - 1), row_offset, col_offset,
            count_unchanged=True,
        )
        report = WriteReport(
            cells_targeted=rows * cols,
            cells_changed=rows * cols,  # logical 8-bit cells programmed
            rows_touched=rows,
        )
        self.total_cell_writes += report.cells_changed
        self.total_rows_written += rows
        return report

    def read_values(self) -> np.ndarray:
        """Full-precision read-back of the stored matrix (shadow copy)."""
        return self._values.copy()

    def stored_quantised(self) -> np.ndarray:
        """The values as represented by the physical 8-bit cells."""
        cfg = self.config
        levels = (
            self.msb_plane.levels.astype(np.int64) << cfg.device_bits
        ) | self.lsb_plane.levels.astype(np.int64)
        return (levels - 128) * self._scale

    # ------------------------------------------------------------------
    # Analog compute
    # ------------------------------------------------------------------
    def gemv(
        self,
        x: np.ndarray,
        rows_active: Optional[int] = None,
        cols_active: Optional[int] = None,
    ) -> tuple[np.ndarray, GemvReport]:
        """Compute ``y = x @ G`` over the active sub-array.

        ``x`` has one entry per active row; the result has one entry per
        active column.  In quantized mode the input vector is quantised to
        8 bits, the two device planes produce partial sums, and the digital
        logic recombines and de-quantises them.
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        result, report = self.gemv_batch(x[np.newaxis, :], rows_active, cols_active)
        report.gemv_count = 1
        return result[0], report

    def gemv_batch(
        self,
        x: np.ndarray,
        rows_active: Optional[int] = None,
        cols_active: Optional[int] = None,
    ) -> tuple[np.ndarray, GemvReport]:
        """Compute ``Y = X @ G`` for a batch of input vectors in one step.

        ``x`` has shape ``(n_vectors, rows_active)``; the result has shape
        ``(n_vectors, cols_active)``.  This is the batch of per-vector
        :meth:`gemv` calls in one dispatch.  In ``quantized`` mode the
        per-vector input scale, the MSB/LSB device-plane partial products,
        the ADC and the digital recombination are applied vectorized across
        the whole batch; the device levels are small integers, so the
        float64 partial sums are exact and the batch is *bit-identical* to
        the sequential path.  In ``ideal`` mode one matmul replaces
        ``n_vectors`` vector products — BLAS may round the batched matmul
        differently from per-vector products, so results agree to within a
        few ULPs (not bitwise).  Wear, MAC, GEMV and ADC accounting matches
        ``n_vectors`` sequential calls exactly in both modes.
        """
        cfg = self.config
        rows_active = cfg.rows if rows_active is None else rows_active
        cols_active = cfg.cols if cols_active is None else cols_active
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("batched GEMV expects a 2-D input (vectors as rows)")
        n_vectors = x.shape[0]
        if x.shape[1] != rows_active:
            raise ValueError(
                f"input vector{'s have' if n_vectors != 1 else ' has'} "
                f"{x.shape[1]} entries, expected {rows_active}"
            )
        if rows_active > cfg.rows or cols_active > cfg.cols:
            raise ValueError("active region exceeds crossbar geometry")

        report = GemvReport(
            rows_active=rows_active,
            cols_active=cols_active,
            macs=n_vectors * rows_active * cols_active,
            adc_conversions=n_vectors
            * self.adc.conversion_rounds(cols_active)
            * cfg.adc.columns_per_adc,
            gemv_count=n_vectors,
        )
        self.total_gemvs += n_vectors
        self.total_macs += report.macs
        if n_vectors == 0:
            return np.zeros((0, cols_active)), report

        if cfg.mode == "ideal":
            values = self._values[:rows_active, :cols_active]
            if n_vectors == 1:
                # Keep the single-vector call on the historical dgemv path
                # so lone GEMVs stay bit-for-bit stable.
                result = (x[0] @ values)[np.newaxis, :]
            else:
                result = x @ values
            return result, report

        # Quantized mode, vectorized over the batch (one scale per vector).
        x_max = (
            np.max(np.abs(x), axis=1) if x.shape[1] else np.zeros(n_vectors)
        )
        x_scale = np.where(x_max > 0, x_max / 127.0, 1.0)
        xq_f = np.rint(x / x_scale[:, None])
        msb = self.msb_plane.levels[:rows_active, :cols_active].astype(np.float64)
        lsb = self.lsb_plane.levels[:rows_active, :cols_active].astype(np.float64)
        # Analog partial dot products (per device plane), then ADC.
        msb_partial = xq_f @ msb
        lsb_partial = xq_f @ lsb
        full_scale = 127.0 * (self.config.pcm.levels - 1) * rows_active
        msb_partial = self.adc.convert(msb_partial, full_scale)
        lsb_partial = self.adc.convert(lsb_partial, full_scale)
        combined = self.digital.weighted_column_sum(
            msb_partial, lsb_partial, cfg.device_bits
        )
        self.digital.weighted_sums += n_vectors - 1  # one per logical GEMV
        # Remove the +128 unsigned offset: subtract 128 * sum(xq) per column.
        offset_term = 128.0 * xq_f.sum(axis=1, keepdims=True)
        self.digital.alu_ops += n_vectors * cols_active
        combined = combined - offset_term
        # De-quantise.
        result = combined * self._scale * x_scale[:, None]
        return result, report

    # ------------------------------------------------------------------
    # Wear
    # ------------------------------------------------------------------
    @property
    def max_cell_writes(self) -> int:
        """Worst-case wear across both device planes (per logical cell)."""
        return max(self.msb_plane.max_cell_writes, self.lsb_plane.max_cell_writes)

    def write_counts(self) -> np.ndarray:
        """Per-logical-cell write counts (max over the two device planes)."""
        return np.maximum(self.msb_plane.write_counts, self.lsb_plane.write_counts)
