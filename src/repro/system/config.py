"""System configuration presets (Table I plus simulation knobs)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hw.accelerator import AcceleratorConfig
from repro.hw.crossbar import CrossbarConfig
from repro.hw.energy import CimEnergyModel, HostEnergyModel, SystemEnergyModel, TABLE_I


@dataclass
class SystemConfig:
    """Everything needed to assemble a :class:`~repro.system.system.CimSystem`.

    The defaults reproduce the paper's Table I configuration with an
    ``ideal``-precision crossbar (bit-exact results); switch
    ``crossbar_mode`` to ``"quantized"`` to study the analog precision.
    """

    memory_bytes: int = 64 * 1024 * 1024
    cma_bytes: int = 48 * 1024 * 1024
    crossbar_mode: str = "ideal"
    #: Number of CIM tiles the offload scheduler shards kernels over.  The
    #: default (1) reproduces the paper's single-tile accelerator exactly;
    #: more tiles overlap operand-block DMA and compute on parallel lanes
    #: (latency only — energy/wear accounting is tile-count-invariant).
    num_tiles: int = 1
    #: Crossbar geometry overrides (``None`` keeps the Table I geometry of
    #: the energy model).  Useful for sharding studies on small operands.
    crossbar_rows: Optional[int] = None
    crossbar_cols: Optional[int] = None
    double_buffering: bool = True
    #: Dispatch the GEMVs streaming against one programmed tile as a single
    #: batched tile operation (simulation speed only; accounting identical).
    batch_gemv: bool = True
    energy: SystemEnergyModel = field(default_factory=lambda: TABLE_I)

    @property
    def cim(self) -> CimEnergyModel:
        return self.energy.cim

    @property
    def host(self) -> HostEnergyModel:
        return self.energy.host

    def crossbar_config(self) -> CrossbarConfig:
        for name, value in (("crossbar_rows", self.crossbar_rows),
                            ("crossbar_cols", self.crossbar_cols)):
            if value is not None and value < 1:
                raise ValueError(f"{name} override must be >= 1, got {value}")
        return CrossbarConfig(
            rows=self.crossbar_rows if self.crossbar_rows is not None
            else self.cim.crossbar_rows,
            cols=self.crossbar_cols if self.crossbar_cols is not None
            else self.cim.crossbar_cols,
            cell_bits=self.cim.cell_bits,
            device_bits=self.cim.device_bits,
            mode=self.crossbar_mode,
        )

    def accelerator_config(self) -> AcceleratorConfig:
        return AcceleratorConfig(
            num_tiles=self.num_tiles,
            double_buffering=self.double_buffering,
            batch_gemv=self.batch_gemv,
        )

    @staticmethod
    def paper_default() -> "SystemConfig":
        """The configuration used for the paper's evaluation."""
        return SystemConfig()

    @staticmethod
    def quantized() -> "SystemConfig":
        """Same system with the analog 8-bit quantisation enabled."""
        return SystemConfig(crossbar_mode="quantized")
