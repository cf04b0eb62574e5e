"""The standalone CIM accelerator (Figure 2 (a)/(b)).

The accelerator bundles the CIM tiles (``AcceleratorConfig.num_tiles``, one
by default), the micro-engine, a DMA unit and the memory-mapped context
register file.  The host (through the driver) writes
kernel parameters into the context registers and writes ``START`` to the
command register; the accelerator then decodes the request, lets the
micro-engine execute it, and flips the status register to ``DONE``.  A
GEMM/GEMV descriptor is decoded and costed once, into the micro-engine's
:class:`~repro.hw.microengine.RunPlan`: a later ``START`` with no other
register written in between re-runs the plan.

Batched GEMM requests pass a descriptor table in shared memory: ``ADDR_D``
points at ``BATCH_COUNT`` descriptors, each a sequence of eight 64-bit
little-endian words ``(addr_a, addr_b, addr_c, m, n, k, alpha_fx, beta_fx)``
with the scalars in the same fixed-point encoding as the registers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.hw.context_regs import (
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
from repro.hw.microengine import Conv2DRequest, GemmRequest, MicroEngine, RunPlan
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


def _gemm_request(flags: Flags, elem_size: int, addr_a: int, addr_b: int, addr_c: int,
                  m: int, n: int, k: int, alpha_fx: int, beta_fx: int) -> GemmRequest:
    """One decoded GEMM: leading dimensions from the transpose flags and
    the scalars from fixed point.  The operands after *elem_size* are in
    batch-descriptor order."""
    trans_a, trans_b = bool(flags & Flags.TRANS_A), bool(flags & Flags.TRANS_B)
    return GemmRequest(
        m=m,
        n=n,
        k=k,
        addr_a=addr_a,
        addr_b=addr_b,
        addr_c=addr_c,
        lda=m if trans_a else k,
        ldb=k if trans_b else n,
        ldc=n,
        alpha=decode_scalar(alpha_fx),
        beta=decode_scalar(beta_fx),
        trans_a=trans_a,
        trans_b=trans_b,
        elem_size=elem_size,
    )


@dataclass
class AcceleratorConfig:
    """Structural configuration of the accelerator.

    ``num_tiles`` selects how many CIM tiles the timing model schedules
    kernels over (1 reproduces the seed's serial single-tile behaviour);
    ``double_buffering`` overlaps operand DMA with compute, and
    ``batch_gemv`` dispatches the GEMVs streaming against one programmed
    tile as one batched tile operation.  Functional results and
    energy/endurance accounting depend on none of them (see
    :mod:`repro.hw.scheduler`).
    """

    num_tiles: int = 1
    double_buffering: bool = True
    batch_gemv: bool = True

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
        config: Optional[AcceleratorConfig] = None,
    ):
        self.config = config or AcceleratorConfig()
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
            config=self.config,
            timeline=self.timeline,
        )
        self.registers = ContextRegisterFile(on_start=self._on_start)
        #: ``(descriptor_version, plan)`` of the last decoded GEMM/GEMV
        #: descriptor: a re-trigger of unchanged registers is not decoded
        #: or costed again.
        self._decoded_gemm: Optional[tuple[int, RunPlan]] = None
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
        tile_ledger, own_ledger, dma = self.tile.energy, self.energy, self.dma
        tile_before, own_before = tile_ledger.as_dict(), own_ledger.as_dict()
        dma_energy_before, dma_bytes_before = dma.total_energy_j, dma.total_bytes
        try:
            decoded = self._decoded_gemm
            if decoded is not None and decoded[0] == self.registers.descriptor_version:
                # No register was written since this GEMM/GEMV was decoded.
                stats = self.micro_engine.run_gemm(decoded[1])
            else:
                stats = self._decode_and_run()
        except Exception:
            self.registers.set_status(Status.ERROR)
            raise

        # The micro-engine filled the run's counters and latency; the
        # energy is measured here, as the ledgers' movement over the run
        # (differences of running totals, so history moves their last bits).
        dma_energy = dma.total_energy_j - dma_energy_before
        stats.energy_j = (
            (tile_ledger.total() - sequential_sum(tile_before.values()))
            + (own_ledger.total() - sequential_sum(own_before.values()))
            + dma_energy
        )
        own_ledger.add("cim.dma_traffic", dma_energy)
        breakdown = stats.energy_breakdown
        for ledger, before in ((tile_ledger, tile_before), (own_ledger, own_before)):
            for key, value in ledger.as_dict().items():
                delta = value - before.get(key, 0.0)
                if delta > 0:
                    breakdown[key] = delta
        stats.dma_bytes += dma.total_bytes - dma_bytes_before
        self.completed_runs.append(stats)
        self.last_run = stats
        self.totals.add(stats)
        self.registers.set_status(Status.DONE)

    def _decode_and_run(self) -> AcceleratorRunStats:
        opcode = self.registers.opcode()
        if opcode in (Opcode.GEMM, Opcode.GEMV):
            plan = self.micro_engine.plan_gemm(self._decode_gemm())
            self._decoded_gemm = (self.registers.descriptor_version, plan)
            return self.micro_engine.run_gemm(plan)
        if opcode is Opcode.GEMM_BATCHED:
            return self.micro_engine.run_gemm_batched(self._decode_batch())
        if opcode is Opcode.CONV2D:
            return self.micro_engine.run_conv2d(self._decode_conv2d())
        raise ValueError(f"unsupported opcode {opcode}")

    # ------------------------------------------------------------------
    # Register decoding
    # ------------------------------------------------------------------
    def _decode_gemm(self) -> GemmRequest:
        regs = self.registers
        m = regs.read(Register.DIM_M)
        n = regs.read(Register.DIM_N)
        k = regs.read(Register.DIM_K)
        if regs.opcode() is Opcode.GEMV:
            n = 1
        return _gemm_request(
            regs.flags(), regs.read(Register.ELEM_SIZE) or 4,
            regs.read(Register.ADDR_A), regs.read(Register.ADDR_B), regs.read(Register.ADDR_C),
            m, n, k, regs.read(Register.ALPHA), regs.read(Register.BETA),
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
            requests.append(_gemm_request(flags, elem, *unpack_batch_descriptor(bytes(raw))))
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
