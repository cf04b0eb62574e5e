"""BLAS-like kernel entry points of the CIM runtime.

``polly_cimBlasSGemm``, ``polly_cimBlasSGemv``, ``polly_cimBlasGemmBatched``
and ``polly_cimConv2D`` from the paper map onto :class:`CimBlas`.  Each call
encodes its parameters into a :class:`KernelDescriptor` (context-register
values plus the shared bytes to flush) and launches it
(:meth:`~CimBlas.launch`): the driver writes the registers, flushes the
caches and triggers the accelerator, then waits for completion, and the
call returns the accelerator's per-run statistics.

A caller that owns the device between launches (a serving lease) may build
a GEMV descriptor once with :meth:`~CimBlas.gemv_descriptor` and re-trigger
it: ``launch(descriptor, programmed=True)`` writes only ``COMMAND.START``.
Every host and device charge of a re-trigger equals that of a full launch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.driver.driver import CimDriver
from repro.hw.accelerator import AcceleratorRunStats, pack_batch_descriptor
from repro.hw.context_regs import Flags, Opcode, Register, encode_scalar
from repro.runtime.api import CimRuntime
from repro.runtime.errors import CimRuntimeError
from repro.runtime.handles import DeviceBuffer


@dataclass
class BlasCallStats:
    """Statistics of one runtime BLAS call (accelerator + submission info)."""

    operation: str
    accelerator: AcceleratorRunStats
    flush_bytes: int
    batch_size: int = 1


@dataclass(frozen=True)
class KernelDescriptor:
    """One encoded kernel launch: the context-register values, the shared
    bytes the driver flushes before every start, and the batch size."""

    operation: str
    registers: dict[Register, int]
    flush_bytes: int
    batch_size: int = 1


class CimBlas:
    """BLAS-style kernel launches on the CIM accelerator."""

    def __init__(self, runtime: CimRuntime):
        self.runtime = runtime
        self.driver: CimDriver = runtime.driver

    # ------------------------------------------------------------------
    # polly_cimBlasSGemm
    # ------------------------------------------------------------------
    def sgemm(
        self,
        trans_a: bool,
        trans_b: bool,
        m: int,
        n: int,
        k: int,
        alpha: float,
        a: DeviceBuffer,
        lda: int,
        b: DeviceBuffer,
        ldb: int,
        beta: float,
        c: DeviceBuffer,
        ldc: int,
    ) -> BlasCallStats:
        """Single-precision GEMM: ``C = alpha * op(A) * op(B) + beta * C``."""
        self._check_gemm_sizes(m, n, k, a, b, c, trans_a, trans_b)
        flags = Flags.NONE
        if trans_a:
            flags |= Flags.TRANS_A
        if trans_b:
            flags |= Flags.TRANS_B
        registers = {
            Register.OPCODE: int(Opcode.GEMM),
            Register.ADDR_A: a.physical,
            Register.ADDR_B: b.physical,
            Register.ADDR_C: c.physical,
            Register.DIM_M: m,
            Register.DIM_N: n,
            Register.DIM_K: k,
            Register.ALPHA: encode_scalar(alpha),
            Register.BETA: encode_scalar(beta),
            Register.FLAGS: int(flags),
            Register.ELEM_SIZE: 4,
        }
        flush_bytes = self._gemm_flush_bytes(m, n, k, beta)
        return self.launch(KernelDescriptor("sgemm", registers, flush_bytes))

    # ------------------------------------------------------------------
    # polly_cimBlasSGemv
    # ------------------------------------------------------------------
    def sgemv(
        self,
        trans_a: bool,
        m: int,
        n: int,
        alpha: float,
        a: DeviceBuffer,
        lda: int,
        x: DeviceBuffer,
        beta: float,
        y: DeviceBuffer,
    ) -> BlasCallStats:
        """Single-precision GEMV: ``y = alpha * op(A) * x + beta * y``.

        ``m`` and ``n`` describe ``op(A)`` (m rows, n columns); ``x`` has
        ``n`` entries and ``y`` has ``m`` entries.
        """
        return self.launch(
            self.gemv_descriptor(trans_a, m, n, alpha, a, lda, x, beta, y)
        )

    def gemv_descriptor(
        self,
        trans_a: bool,
        m: int,
        n: int,
        alpha: float,
        a: DeviceBuffer,
        lda: int,
        x: DeviceBuffer,
        beta: float,
        y: DeviceBuffer,
    ) -> KernelDescriptor:
        """Validate and encode one :meth:`sgemv` without launching it."""
        if min(m, n) <= 0:
            raise CimRuntimeError("GEMV dimensions must be positive")
        a.require_capacity(m * n * 4)
        x.require_capacity(n * 4)
        y.require_capacity(m * 4)
        flags = Flags.TRANS_A if trans_a else Flags.NONE
        # The accelerator's GEMV is GEMM with N = 1: A is the matrix operand,
        # x the single-column B, y the single-column C.
        registers = {
            Register.OPCODE: int(Opcode.GEMV),
            Register.ADDR_A: a.physical,
            Register.ADDR_B: x.physical,
            Register.ADDR_C: y.physical,
            Register.DIM_M: m,
            Register.DIM_N: 1,
            Register.DIM_K: n,
            Register.ALPHA: encode_scalar(alpha),
            Register.BETA: encode_scalar(beta),
            Register.FLAGS: int(flags),
            Register.ELEM_SIZE: 4,
        }
        flush_bytes = (m * n + n + (m if beta != 0.0 else 0)) * 4
        return KernelDescriptor("sgemv", registers, flush_bytes)

    # ------------------------------------------------------------------
    # polly_cimBlasGemmBatched
    # ------------------------------------------------------------------
    def gemm_batched(
        self,
        trans_a: bool,
        trans_b: bool,
        problems: Sequence[dict],
    ) -> BlasCallStats:
        """Batched GEMM.

        ``problems`` is a sequence of dictionaries with keys ``m``, ``n``,
        ``k``, ``alpha``, ``beta``, ``a``, ``b``, ``c`` (DeviceBuffers).  The
        descriptor table is written into a dedicated shared buffer; the
        micro-engine reuses an already-programmed operand when consecutive
        problems share their ``A`` matrix, which is how the fused kernels of
        Listing 2 avoid rewriting the crossbar.
        """
        if not problems:
            raise CimRuntimeError("batched GEMM needs at least one problem")
        table = bytearray()
        flush_bytes = 0
        for problem in problems:
            a: DeviceBuffer = problem["a"]
            b: DeviceBuffer = problem["b"]
            c: DeviceBuffer = problem["c"]
            m, n, k = int(problem["m"]), int(problem["n"]), int(problem["k"])
            alpha = float(problem.get("alpha", 1.0))
            beta = float(problem.get("beta", 0.0))
            self._check_gemm_sizes(m, n, k, a, b, c, trans_a, trans_b)
            table += pack_batch_descriptor(
                a.physical, b.physical, c.physical, m, n, k,
                encode_scalar(alpha), encode_scalar(beta),
            )
            flush_bytes += self._gemm_flush_bytes(m, n, k, beta)
        descriptor_buffer = self.runtime.cim_malloc(len(table))
        self.driver.memory.write(descriptor_buffer.physical, bytes(table))
        self.runtime._charge_copy(len(table))
        flags = Flags.NONE
        if trans_a:
            flags |= Flags.TRANS_A
        if trans_b:
            flags |= Flags.TRANS_B
        registers = {
            Register.OPCODE: int(Opcode.GEMM_BATCHED),
            Register.ADDR_D: descriptor_buffer.physical,
            Register.BATCH_COUNT: len(problems),
            Register.FLAGS: int(flags),
            Register.ELEM_SIZE: 4,
        }
        flush_bytes += len(table)
        stats = self.launch(KernelDescriptor(
            "gemm_batched", registers, flush_bytes, batch_size=len(problems)))
        self.runtime.cim_free(descriptor_buffer)
        return stats

    # ------------------------------------------------------------------
    # polly_cimConv2D
    # ------------------------------------------------------------------
    def conv2d(
        self,
        out_h: int,
        out_w: int,
        filter_h: int,
        filter_w: int,
        alpha: float,
        img: DeviceBuffer,
        weights: DeviceBuffer,
        beta: float,
        out: DeviceBuffer,
    ) -> BlasCallStats:
        """Direct 2D convolution (valid padding, unit stride)."""
        if min(out_h, out_w, filter_h, filter_w) <= 0:
            raise CimRuntimeError("convolution dimensions must be positive")
        img_h = out_h + filter_h - 1
        img_w = out_w + filter_w - 1
        img.require_capacity(img_h * img_w * 4)
        weights.require_capacity(filter_h * filter_w * 4)
        out.require_capacity(out_h * out_w * 4)
        registers = {
            Register.OPCODE: int(Opcode.CONV2D),
            Register.ADDR_A: img.physical,
            Register.ADDR_B: weights.physical,
            Register.ADDR_C: out.physical,
            Register.DIM_M: out_h,
            Register.DIM_N: out_w,
            Register.DIM_K: (filter_h << 16) | filter_w,
            Register.ALPHA: encode_scalar(alpha),
            Register.BETA: encode_scalar(beta),
            Register.FLAGS: int(Flags.NONE),
            Register.ELEM_SIZE: 4,
        }
        flush_bytes = (img_h * img_w + filter_h * filter_w) * 4
        if beta != 0.0:
            flush_bytes += out_h * out_w * 4
        return self.launch(KernelDescriptor("conv2d", registers, flush_bytes))

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------
    def launch(
        self, descriptor: KernelDescriptor, programmed: bool = False
    ) -> BlasCallStats:
        """Submit *descriptor*, wait for the accelerator, return its run.

        ``programmed`` says the context registers still hold *descriptor*
        (this caller launched it last and nothing has written them since):
        the submit then writes ``COMMAND.START`` only, and the accelerator
        re-runs its decoded request.  The ioctl, flush and wait charges are
        those of a full launch.
        """
        self.driver.submit(
            {} if programmed else descriptor.registers, descriptor.flush_bytes
        )
        self.driver.wait()
        run = self.driver.accelerator.last_run
        if run is None:
            raise CimRuntimeError("accelerator finished without reporting statistics")
        return BlasCallStats(
            operation=descriptor.operation,
            accelerator=run,
            flush_bytes=descriptor.flush_bytes,
            batch_size=descriptor.batch_size,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_gemm_sizes(
        self,
        m: int,
        n: int,
        k: int,
        a: DeviceBuffer,
        b: DeviceBuffer,
        c: DeviceBuffer,
        trans_a: bool,
        trans_b: bool,
    ) -> None:
        if min(m, n, k) <= 0:
            raise CimRuntimeError("GEMM dimensions must be positive")
        a.require_capacity(m * k * 4)
        b.require_capacity(k * n * 4)
        c.require_capacity(m * n * 4)

    @staticmethod
    def _gemm_flush_bytes(m: int, n: int, k: int, beta: float) -> int:
        operand_bytes = (m * k + k * n) * 4
        if beta != 0.0:
            operand_bytes += m * n * 4
        return operand_bytes
