"""Energy and latency model constants — Table I of the paper.

All energies are in joules, latencies in seconds, frequencies in hertz.
Quantities the paper specifies per 8-bit cell are stored per 8-bit cell (the
crossbar model splits them across the two paired 4-bit devices internally).

Quantities the paper's table does not break out (shared-memory copy cost,
cache-flush cost, driver call overhead, DMA transfer energy) are modelled
with explicitly named constants in :class:`HostEnergyModel` and
:class:`CimEnergyModel` so the benchmarks can ablate them; the defaults are
derived from the Arm-A7 128 pJ/instruction figure (a copy is a load plus a
store, a flush is roughly one cache-maintenance instruction per line).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

# Unit helpers -----------------------------------------------------------
FEMTO = 1e-15
PICO = 1e-12
NANO = 1e-9
MICRO = 1e-6
KILO = 1e3
MEGA = 1e6
GIGA = 1e9


@dataclass(frozen=True)
class CimEnergyModel:
    """CIM accelerator energy/latency parameters (Table I, CIM section)."""

    # Crossbar geometry: IBM PCM, 256x256 at 8-bit realised as two adjacent
    # 4-bit columns per logical 8-bit cell.
    crossbar_rows: int = 256
    crossbar_cols: int = 256
    cell_bits: int = 8
    device_bits: int = 4  # physical PCM device resolution
    devices_per_cell: int = 2

    # Latency (per 8-bit quantity).  Writes are row-parallel: programming one
    # crossbar row (all of its cells) takes one write-latency period; an
    # analog GEMV over the whole array takes one compute-latency period.
    compute_latency_per_gemv_s: float = 1.0 * MICRO
    write_latency_per_row_s: float = 2.5 * MICRO

    # Energy.
    compute_energy_per_mac_j: float = 200.0 * FEMTO   # 2 x 100 fJ / 4-bit
    write_energy_per_cell_j: float = 200.0 * PICO     # 2 x 100 pJ / 4-bit
    mixed_signal_energy_per_gemv_j: float = 3.9 * NANO  # S&H + ADC @ 1.2 GHz
    buffer_energy_per_byte_j: float = 5.4 * PICO      # 1.5 KB IO buffers
    digital_weighted_sum_per_gemv_j: float = 40.0 * PICO
    digital_alu_op_j: float = 2.11 * PICO
    dma_microengine_energy_per_gemv_j: float = 0.78 * NANO  # "< 0.78 nJ"

    # DMA transfer cost per byte moved over the system bus (uncacheable
    # accesses from the accelerator side).  Not in Table I; modelled as a
    # LPDDR3-class access at roughly 10 pJ/byte.
    dma_energy_per_byte_j: float = 10.0 * PICO
    dma_bandwidth_bytes_per_s: float = 3.2e9  # LPDDR3-933 x 32-bit channel

    # Input/output buffer capacity (Table I: 1.5 KB).
    io_buffer_bytes: int = 1536

    @property
    def cells_per_crossbar(self) -> int:
        return self.crossbar_rows * self.crossbar_cols

    @property
    def crossbar_capacity_bytes(self) -> int:
        """Bytes of operand data one full crossbar write can hold."""
        return self.crossbar_rows * self.crossbar_cols * self.cell_bits // 8


@dataclass(frozen=True)
class HostEnergyModel:
    """Host (dual-core Arm-A7) parameters (Table I, host section)."""

    cores: int = 2
    frequency_hz: float = 1.2 * GIGA
    l1_bytes: int = 32 * 1024
    l2_bytes: int = 2 * 1024 * 1024
    cache_line_bytes: int = 64
    dram_bytes: int = 2 * 1024 * 1024 * 1024  # 2 GB LPDDR3-933
    energy_per_instruction_j: float = 128.0 * PICO  # includes cache energy
    instructions_per_cycle: float = 1.0

    # Host-side offload overheads (derived, see module docstring).
    # A shared-memory copy is a load + a store per 4-byte word.
    copy_instructions_per_byte: float = 0.5
    # Cache flush by virtual address: one maintenance instruction per line
    # plus loop overhead.
    flush_instructions_per_line: float = 3.0
    # Fixed instruction cost of one ioctl round trip into the CIM driver
    # (user/kernel crossing, argument marshalling, register writes).
    ioctl_instructions: int = 1500
    # Fixed instruction cost of a CMA allocation / free in the driver.
    cma_alloc_instructions: int = 4000
    # Polling loop: instructions executed per status-register check.
    spin_poll_instructions: int = 20

    @functools.cached_property
    def seconds_per_instruction(self) -> float:
        return 1.0 / (self.frequency_hz * self.instructions_per_cycle)

    def instruction_energy(self, instructions: float) -> float:
        return instructions * self.energy_per_instruction_j

    def instruction_time(self, instructions: float) -> float:
        return instructions * self.seconds_per_instruction


@dataclass(frozen=True)
class SystemEnergyModel:
    """Complete Table I configuration: CIM accelerator plus host."""

    cim: CimEnergyModel = field(default_factory=CimEnergyModel)
    host: HostEnergyModel = field(default_factory=HostEnergyModel)


#: The configuration used throughout the paper's evaluation (Table I).
TABLE_I = SystemEnergyModel()


def table_i_rows() -> list[tuple[str, str]]:
    """Table I rendered as (parameter, value) rows for reports/benchmarks."""
    cim = TABLE_I.cim
    host = TABLE_I.host
    return [
        ("PCM crossbar technology",
         f"IBM PCM 2x({cim.crossbar_rows}x{cim.crossbar_cols} @{cim.device_bits}-bit)"
         f" = {cim.crossbar_rows}x{cim.crossbar_cols} @{cim.cell_bits}-bit"),
        ("Compute latency / GEMV", f"{cim.compute_latency_per_gemv_s * 1e6:.1f} us"),
        ("Write latency / row", f"{cim.write_latency_per_row_s * 1e6:.1f} us"),
        ("Compute energy / 8-bit MAC", f"{cim.compute_energy_per_mac_j * 1e15:.0f} fJ"),
        ("Write energy / 8-bit cell", f"{cim.write_energy_per_cell_j * 1e12:.0f} pJ"),
        ("Mixed-signal energy / GEMV", f"{cim.mixed_signal_energy_per_gemv_j * 1e9:.1f} nJ"),
        ("IO buffer energy", f"{cim.buffer_energy_per_byte_j * 1e12:.1f} pJ/byte"
         f" ({cim.io_buffer_bytes} B buffers)"),
        ("Digital logic", f"{cim.digital_weighted_sum_per_gemv_j * 1e12:.0f} pJ/GEMV + "
         f"{cim.digital_alu_op_j * 1e12:.2f} pJ/ALU op"),
        ("DMA + micro-engine", f"<{cim.dma_microengine_energy_per_gemv_j * 1e9:.2f} nJ/GEMV"),
        ("Host CPU", f"{host.cores}x Arm-A7 @ {host.frequency_hz / 1e9:.1f} GHz"),
        ("Host caches", f"L1-I/D {host.l1_bytes // 1024} KB, L2 {host.l2_bytes // (1024 * 1024)} MB"),
        ("Host memory", f"{host.dram_bytes // (1024 ** 3)} GB LPDDR3 @933 MHz"),
        ("Host energy / instruction", f"{host.energy_per_instruction_j * 1e12:.0f} pJ (incl. cache)"),
    ]
