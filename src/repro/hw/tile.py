"""The CIM tile: crossbar plus digital periphery (Figure 2 (b)).

The tile bundles the crossbar, the row/column/output buffers, the shared
ADC stage and the digital logic block, and converts the raw operation counts
of those components into energy using the Table I model.  The micro-engine
charges every operation to the tile; the tile hides the MSB/LSB column
pairing and the buffer staging (byte counts, see :mod:`repro.hw.buffers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hw.buffers import SRAMBuffer
from repro.hw.crossbar import Crossbar, CrossbarConfig, WriteReport
from repro.hw.energy import CimEnergyModel
from repro.hw.stats import Charges, EnergyLedger, StatCounter, memoized


@dataclass(frozen=True)
class TileOperationCost:
    """Energy and latency of one tile-level operation."""

    energy_j: float
    latency_s: float


class CIMTile:
    """One CIM tile with energy/latency accounting."""

    def __init__(
        self,
        crossbar_config: Optional[CrossbarConfig] = None,
        energy_model: Optional[CimEnergyModel] = None,
    ):
        self.energy_model = energy_model or CimEnergyModel()
        config = crossbar_config or CrossbarConfig(
            rows=self.energy_model.crossbar_rows,
            cols=self.energy_model.crossbar_cols,
            cell_bits=self.energy_model.cell_bits,
            device_bits=self.energy_model.device_bits,
        )
        self.crossbar = Crossbar(config)
        buffer_bytes = self.energy_model.io_buffer_bytes
        self.row_buffer = SRAMBuffer("row", buffer_bytes)
        self.column_buffer = SRAMBuffer("column", buffer_bytes)
        self.output_buffer = SRAMBuffer("output", buffer_bytes)
        self.energy = EnergyLedger()
        self.counters = StatCounter()
        #: ``shape -> (charges, cost)`` of :meth:`charge_gemv`, recorded at
        #: the shape's first dispatch and replayed after that.
        self._gemv_charges: dict[tuple, tuple[Charges, TileOperationCost]] = {}

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.crossbar.config.rows

    @property
    def cols(self) -> int:
        return self.crossbar.config.cols

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def write_matrix(
        self, matrix: np.ndarray, row_offset: int = 0, col_offset: int = 0
    ) -> TileOperationCost:
        """Program an operand tile into the crossbar.

        The data passes through the column buffers (write data) and the row
        buffers (row-enable mask), then each touched row is programmed.
        """
        report: WriteReport = self.crossbar.write(matrix, row_offset, col_offset)
        model = self.energy_model
        # Buffer traffic: one byte per 8-bit cell staged, one mask byte per row.
        staged_bytes = report.cells_targeted + report.rows_touched
        self.column_buffer.bytes_written += report.cells_targeted
        self.row_buffer.bytes_written += report.rows_touched
        energy = (
            report.cells_changed * model.write_energy_per_cell_j
            + staged_bytes * model.buffer_energy_per_byte_j
        )
        latency = report.rows_touched * model.write_latency_per_row_s
        self.energy.add("cim.crossbar_write", report.cells_changed * model.write_energy_per_cell_j)
        self.energy.add("cim.buffers", staged_bytes * model.buffer_energy_per_byte_j)
        self.counters.add("cim.cell_writes", report.cells_changed)
        self.counters.add("cim.rows_written", report.rows_touched)
        self.counters.add("cim.crossbar_write_ops", 1)
        return TileOperationCost(energy, latency)

    def gemv(
        self,
        x: np.ndarray,
        rows_active: Optional[int] = None,
        cols_active: Optional[int] = None,
    ) -> tuple[np.ndarray, TileOperationCost]:
        """One analog matrix-vector product over the active sub-array."""
        x = np.asarray(x, dtype=np.float64).ravel()
        result, cost = self.gemv_batch(x[np.newaxis, :], rows_active, cols_active)
        return result[0], cost

    def gemv_batch(
        self,
        x: np.ndarray,
        rows_active: Optional[int] = None,
        cols_active: Optional[int] = None,
    ) -> tuple[np.ndarray, TileOperationCost]:
        """A batch of analog GEMVs over the same programmed operand.

        ``x`` holds the input vectors as rows.  The values come from one
        crossbar product, the cost from :meth:`charge_gemv`; both equal
        those of the per-vector :meth:`gemv` calls.
        """
        result, report = self.crossbar.gemv_batch(x, rows_active, cols_active)
        return result, self.charge_gemv(
            report.gemv_count, report.rows_active, report.cols_active
        )

    def charge_gemv(
        self, n_vectors: int, rows_active: int, cols_active: int, repeat: int = 1
    ) -> TileOperationCost:
        """Charge *repeat* dispatches of *n_vectors* GEMVs each over a
        ``rows_active x cols_active`` sub-array: energy, latency, buffer
        traffic and counters.  Returns the cost of one dispatch.

        Touches no array.  A caller that computed the values of many such
        dispatches with one crossbar product (the micro-engine, for a
        whole convolution) still charges each dispatch's energy as its own
        addend: per-run energies are differences of these running float
        totals, so the sequence of addends is part of the model.
        """
        charges, cost = memoized(self._gemv_charges, self._record_gemv,
                                 n_vectors, rows_active, cols_active, repeat)
        charges.replay()
        return cost

    def _record_gemv(
        self, n_vectors: int, rows_active: int, cols_active: int, repeat: int
    ) -> tuple[Charges, TileOperationCost]:
        model = self.energy_model
        macs = n_vectors * rows_active * cols_active
        input_bytes = n_vectors * rows_active
        output_bytes = n_vectors * cols_active * 4
        buffer_bytes = input_bytes + output_bytes
        charges = Charges()
        charges.add(self.row_buffer, "bytes_written", repeat * input_bytes)
        charges.add(self.output_buffer, "bytes_written", repeat * output_bytes)
        charges.energy(self.energy, "cim.crossbar_compute",
                       macs * model.compute_energy_per_mac_j, repeat)
        charges.energy(self.energy, "cim.mixed_signal",
                       n_vectors * model.mixed_signal_energy_per_gemv_j, repeat)
        charges.energy(self.energy, "cim.digital_logic",
                       n_vectors * model.digital_weighted_sum_per_gemv_j, repeat)
        charges.energy(self.energy, "cim.buffers",
                       buffer_bytes * model.buffer_energy_per_byte_j, repeat)
        charges.count(self.counters, "cim.gemv_ops", repeat * n_vectors)
        charges.count(self.counters, "cim.macs", repeat * macs)
        energy = (
            macs * model.compute_energy_per_mac_j
            + n_vectors * model.mixed_signal_energy_per_gemv_j
            + n_vectors * model.digital_weighted_sum_per_gemv_j
            + buffer_bytes * model.buffer_energy_per_byte_j
        )
        return charges, TileOperationCost(energy, n_vectors * model.compute_latency_per_gemv_s)

    def record_digital_ops(self, charges: Charges, n_ops: int) -> None:
        """Record the charge of *n_ops* scalar ALU operations in the digital
        logic block into *charges*.  The block runs at the accelerator
        clock; its latency is hidden behind the crossbar compute."""
        charges.energy(self.energy, "cim.digital_logic", n_ops * self.energy_model.digital_alu_op_j)
        charges.count(self.counters, "cim.alu_ops", n_ops)

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.crossbar.config.capacity_bytes
