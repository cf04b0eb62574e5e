"""The standalone CIM accelerator (Figure 2 (a)/(b)).

The accelerator bundles the CIM tiles (``AcceleratorConfig.num_tiles``, one
by default), the micro-engine, a DMA unit and the memory-mapped context
register file.  The host (through the driver) writes
kernel parameters into the context registers and writes ``START`` to the
command register; the accelerator then decodes the request, lets the
micro-engine execute it, and flips the status register to ``DONE``.  A
GEMM/GEMV descriptor is decoded once: a later ``START`` with no other
register written in between re-runs the decoded request.

Batched GEMM requests pass a descriptor table in shared memory: ``ADDR_D``
points at ``BATCH_COUNT`` descriptors, each a sequence of eight 64-bit
little-endian words ``(addr_a, addr_b, addr_c, m, n, k, alpha_fx, beta_fx)``
with the scalars in the same fixed-point encoding as the registers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hw.context_regs import (
    Command,
    ContextRegisterFile,
    Flags,
    Opcode,
    Register,
    Status,
    decode_scalar,
)
from repro.hw.crossbar import CrossbarConfig
from repro.hw.dma import DMAEngine
from repro.hw.energy import CimEnergyModel
from repro.hw.microengine import Conv2DRequest, GemmRequest, MicroEngine
from repro.hw.stats import AcceleratorRunStats, EnergyLedger, StatCounter, sequential_sum
from repro.hw.tile import CIMTile
from repro.hw.timeline import Timeline

#: Number of 64-bit words in one batched-GEMM descriptor.
BATCH_DESCRIPTOR_WORDS = 8
BATCH_DESCRIPTOR_BYTES = BATCH_DESCRIPTOR_WORDS * 8


def pack_batch_descriptor(
    addr_a: int, addr_b: int, addr_c: int, m: int, n: int, k: int,
    alpha_fx: int, beta_fx: int,
) -> bytes:
    """Pack one batched-GEMM descriptor into its shared-memory layout."""
    return struct.pack(
        "<8q", addr_a, addr_b, addr_c, m, n, k, alpha_fx, beta_fx
    )


def unpack_batch_descriptor(raw: bytes) -> tuple[int, int, int, int, int, int, int, int]:
    return struct.unpack("<8q", raw)


@dataclass
class AcceleratorConfig:
    """Structural configuration of the accelerator.

    ``num_tiles`` selects how many CIM tiles the timing model schedules
    kernels over (1 reproduces the seed's serial single-tile behaviour);
    the remaining flags control the micro-engine's dispatch strategy.
    Functional results and energy/endurance accounting do not depend on
    ``num_tiles`` (see :mod:`repro.hw.scheduler`).
    """

    num_tiles: int = 1
    double_buffering: bool = True
    batch_gemv: bool = True
    reuse_resident_gemv: bool = True

    def __post_init__(self) -> None:
        if self.num_tiles < 1:
            raise ValueError(f"num_tiles must be >= 1, got {self.num_tiles}")


class CIMAccelerator:
    """Functional + energy/latency model of the CIM accelerator."""

    def __init__(
        self,
        memory,
        energy_model: Optional[CimEnergyModel] = None,
        crossbar_config: Optional[CrossbarConfig] = None,
        double_buffering: Optional[bool] = None,
        batch_gemv: Optional[bool] = None,
        reuse_resident_gemv: Optional[bool] = None,
        config: Optional[AcceleratorConfig] = None,
    ):
        # The individual flags are the seed API; AcceleratorConfig is the
        # structured one.  Mixing them would silently drop the flags, so
        # that is rejected instead.
        flags = (double_buffering, batch_gemv, reuse_resident_gemv)
        if config is not None:
            if any(flag is not None for flag in flags):
                raise ValueError(
                    "pass either an AcceleratorConfig or the individual "
                    "dispatch flags, not both"
                )
            self.config = config
        else:
            self.config = AcceleratorConfig(
                num_tiles=1,
                double_buffering=double_buffering if double_buffering is not None else True,
                batch_gemv=batch_gemv if batch_gemv is not None else True,
                reuse_resident_gemv=(
                    reuse_resident_gemv if reuse_resident_gemv is not None else True
                ),
            )
        self.energy_model = energy_model or CimEnergyModel()
        self.energy = EnergyLedger()
        self.counters = StatCounter()
        self.timeline = Timeline()
        self.tile = CIMTile(crossbar_config, self.energy_model)
        self.dma = DMAEngine(memory, self.energy_model)
        self.micro_engine = MicroEngine(
            tile=self.tile,
            dma=self.dma,
            energy=self.energy,
            counters=self.counters,
            timeline=self.timeline,
            double_buffering=self.config.double_buffering,
            batch_gemv=self.config.batch_gemv,
            reuse_resident_gemv=self.config.reuse_resident_gemv,
            num_tiles=self.config.num_tiles,
        )
        self.registers = ContextRegisterFile(on_start=self._on_start)
        #: ``(descriptor_version, request)`` of the last decoded GEMM/GEMV
        #: descriptor: a re-trigger of unchanged registers is not decoded
        #: again.
        self._decoded_gemm: Optional[tuple[int, GemmRequest]] = None
        self.completed_runs: list[AcceleratorRunStats] = []
        self.last_run: Optional[AcceleratorRunStats] = None
        #: Running fold of ``completed_runs`` (what the ``total_*`` helpers,
        #: placement and the partition check read, in O(1)).
        self.totals = AcceleratorRunStats()

    # ------------------------------------------------------------------
    # PMIO interface used by the driver
    # ------------------------------------------------------------------
    def mmio_write(self, register: Register | int, value: int) -> None:
        self.registers.write(register, value)

    def mmio_read(self, register: Register | int) -> int:
        return self.registers.read(register)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _on_start(self) -> None:
        """Triggered by a START write to the command register."""
        tile_before = self.tile.energy.as_dict()
        own_before = self.energy.as_dict()
        dma_energy_before = self.dma.total_energy_j
        dma_bytes_before = self.dma.total_bytes

        try:
            version = self.registers.descriptor_version
            decoded = self._decoded_gemm
            if decoded is not None and decoded[0] == version:
                # No register was written since this GEMM/GEMV was decoded.
                stats = self.micro_engine.run_gemm(decoded[1])
            elif (opcode := self.registers.opcode()) in (Opcode.GEMM, Opcode.GEMV):
                self._decoded_gemm = (version, self._decode_gemm())
                stats = self.micro_engine.run_gemm(self._decoded_gemm[1])
            elif opcode is Opcode.GEMM_BATCHED:
                stats = self.micro_engine.run_gemm_batched(self._decode_batch())
            elif opcode is Opcode.CONV2D:
                stats = self.micro_engine.run_conv2d(self._decode_conv2d())
            else:
                raise ValueError(f"unsupported opcode {opcode}")
        except Exception:
            self.registers.set_status(Status.ERROR)
            raise

        dma_energy = self.dma.total_energy_j - dma_energy_before
        # The micro-engine filled the run's counters and latency; the
        # energy is measured here, as the ledgers' movement over the run.
        stats.energy_j = (
            (self.tile.energy.total() - sequential_sum(tile_before.values()))
            + (self.energy.total() - sequential_sum(own_before.values()))
            + dma_energy
        )
        self.energy.add("cim.dma_traffic", dma_energy)
        for ledger, before in ((self.tile.energy, tile_before), (self.energy, own_before)):
            for key, value in ledger.as_dict().items():
                delta = value - before.get(key, 0.0)
                if delta > 0:
                    stats.energy_breakdown[key] = delta
        stats.dma_bytes += self.dma.total_bytes - dma_bytes_before
        self.completed_runs.append(stats)
        self.last_run = stats
        self.totals.add(stats)
        self.registers.set_status(Status.DONE)

    # ------------------------------------------------------------------
    # Register decoding
    # ------------------------------------------------------------------
    def _decode_gemm(self) -> GemmRequest:
        regs = self.registers
        flags = regs.flags()
        m = regs.read(Register.DIM_M)
        n = regs.read(Register.DIM_N)
        k = regs.read(Register.DIM_K)
        if regs.opcode() is Opcode.GEMV:
            n = 1
        elem = regs.read(Register.ELEM_SIZE) or 4
        return GemmRequest(
            m=m,
            n=n,
            k=k,
            addr_a=regs.read(Register.ADDR_A),
            addr_b=regs.read(Register.ADDR_B),
            addr_c=regs.read(Register.ADDR_C),
            lda=k if not (flags & Flags.TRANS_A) else m,
            ldb=n if not (flags & Flags.TRANS_B) else k,
            ldc=n,
            alpha=decode_scalar(regs.read(Register.ALPHA)),
            beta=decode_scalar(regs.read(Register.BETA)),
            trans_a=bool(flags & Flags.TRANS_A),
            trans_b=bool(flags & Flags.TRANS_B),
            elem_size=elem,
        )

    def _decode_batch(self) -> list[GemmRequest]:
        regs = self.registers
        count = regs.read(Register.BATCH_COUNT)
        table_addr = regs.read(Register.ADDR_D)
        flags = regs.flags()
        elem = regs.read(Register.ELEM_SIZE) or 4
        requests: list[GemmRequest] = []
        for index in range(count):
            raw = self.dma.read(
                table_addr + index * BATCH_DESCRIPTOR_BYTES, BATCH_DESCRIPTOR_BYTES
            )
            addr_a, addr_b, addr_c, m, n, k, alpha_fx, beta_fx = unpack_batch_descriptor(
                bytes(raw)
            )
            requests.append(
                GemmRequest(
                    m=m,
                    n=n,
                    k=k,
                    addr_a=addr_a,
                    addr_b=addr_b,
                    addr_c=addr_c,
                    lda=k if not (flags & Flags.TRANS_A) else m,
                    ldb=n if not (flags & Flags.TRANS_B) else k,
                    ldc=n,
                    alpha=decode_scalar(alpha_fx),
                    beta=decode_scalar(beta_fx),
                    trans_a=bool(flags & Flags.TRANS_A),
                    trans_b=bool(flags & Flags.TRANS_B),
                    elem_size=elem,
                )
            )
        return requests

    def _decode_conv2d(self) -> Conv2DRequest:
        regs = self.registers
        out_h = regs.read(Register.DIM_M)
        out_w = regs.read(Register.DIM_N)
        # DIM_K packs the filter size as (filter_h << 16) | filter_w.
        packed = regs.read(Register.DIM_K)
        filter_h = (packed >> 16) & 0xFFFF
        filter_w = packed & 0xFFFF
        return Conv2DRequest(
            out_h=out_h,
            out_w=out_w,
            filter_h=filter_h,
            filter_w=filter_w,
            img_h=out_h + filter_h - 1,
            img_w=out_w + filter_w - 1,
            addr_img=regs.read(Register.ADDR_A),
            addr_filter=regs.read(Register.ADDR_B),
            addr_out=regs.read(Register.ADDR_C),
            alpha=decode_scalar(regs.read(Register.ALPHA)),
            beta=decode_scalar(regs.read(Register.BETA)),
            elem_size=regs.read(Register.ELEM_SIZE) or 4,
        )

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        return self.config.num_tiles

    def total_energy_j(self) -> float:
        return self.totals.energy_j

    def total_latency_s(self) -> float:
        return self.totals.latency_s

    def total_cell_writes(self) -> int:
        return self.totals.crossbar_cell_writes

    def total_macs(self) -> int:
        return self.totals.macs

    def reset_stats(self) -> None:
        self.completed_runs.clear()
        self.last_run = None
        self.totals = AcceleratorRunStats()
        self.energy.reset()
        self.counters.reset()
        self.timeline.clear()
        # The DMA and tile accumulators feed per-run deltas in _on_start;
        # left unreset they grow without bound and the float deltas round
        # differently depending on how much history the base carries.
        self.dma.reset_stats()
        self.tile.energy.reset()
        self.tile.counters.reset()
        # A fresh measurement starts from a cold crossbar: forgetting the
        # resident operand keeps repeated identical runs reproducible.
        self.micro_engine.invalidate_residency()
