"""Dynamic request batching for the serving layer.

Two requests are *batch-compatible* when they would drive the crossbar
identically: same compiled program (content fingerprint), same runtime
parameters, and the same bytes in the **stationary operands** — the host
arrays that get programmed into the crossbar (the ``A`` matrix of a
GEMV/GEMM, the filter of a convolution).  The batcher groups compatible
requests that arrive within one batching window into a single *lease*:
the crossbar is programmed once at the head of the lease, and the
remaining requests stream their vectors against the already-resident
operand (PR 1's resident-GEMV / ``gemv_batch`` tile path), so the
per-request programming latency, DMA traffic and — crucially — PCM wear
are paid once per batch instead of once per request.

For the common serving shape — a compiled program that is exactly one
offloaded GEMV with its transfers (the paper's Listing 1 sequence) — the
batcher extracts a :class:`FusedGemvPlan` and the server dispatches the
batch at the BLAS level: one upload of the stationary matrix, then one
``sgemv`` per request.  Anything else falls back to whole-program
execution inside the lease, which still benefits from operand residency
but re-uploads host data per request.  Either way the functional results
are bit-identical to a direct, single-request
:class:`~repro.codegen.executor.OffloadExecutor` run: the crossbar holds
byte-identical operand values (guarded by the micro-engine's programmed-
value check), and batching changes only scheduling and accounting.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro.codegen.runtime_calls import (
    BUFFER,
    CIM_DEV_TO_HOST,
    CIM_FREE,
    CIM_GEMV,
    CIM_HOST_TO_DEV,
    CIM_INIT,
    CIM_MALLOC,
    DIM,
    SCALAR,
    TRANS,
    BatchedGemmCallArgs,
    CopyCallArgs,
    KernelCallArgs,
    MallocCallArgs,
)
from repro.ir.expr import Expr
from repro.ir.interp import evaluate_expr
from repro.ir.program import Program
from repro.ir.stmt import CallStmt
from repro.serve.request import TenantRequest


# ----------------------------------------------------------------------
# Batch signatures
# ----------------------------------------------------------------------
def _call_stmts(program: Program) -> list[CallStmt]:
    return [stmt for stmt in program.body.stmts if isinstance(stmt, CallStmt)]


def stationary_operand_arrays(program: Program) -> tuple[str, ...]:
    """Names of the host arrays a program programs into the crossbar.

    These are the operands whose content decides whether two requests can
    share one crossbar lease: the stationary role of every kernel call's
    payload (the ``A`` matrix of a GEMV/GEMM, the filter of a convolution).
    """
    names: list[str] = []
    for stmt in _call_stmts(program):
        payload = stmt.args[0] if stmt.args else None
        if not isinstance(payload, (KernelCallArgs, BatchedGemmCallArgs)):
            continue
        for problem in payload.problems:
            name = problem.arrays[problem.stationary]
            if name not in names:
                names.append(name)
    return tuple(names)


def batch_signature(
    fingerprint: str,
    program: Program,
    params: Mapping[str, float],
    arrays: Mapping[str, np.ndarray],
) -> str:
    """Batch-compatibility key of one request.

    Combines the compile fingerprint, the concrete runtime parameters and
    a content hash of the stationary operands.  Grouping is a performance
    decision only — correctness never depends on it, because the
    micro-engine re-checks the programmed values before reusing them.
    """
    digest = hashlib.sha256()
    digest.update(fingerprint.encode("ascii"))
    for key in sorted(params):
        digest.update(f"|{key}={float(params[key])!r}".encode("ascii"))
    for name in stationary_operand_arrays(program):
        array = arrays.get(name)
        if array is None:
            continue
        data = np.ascontiguousarray(array)
        digest.update(f"|{name}:{data.dtype.str}:{data.shape}".encode("ascii"))
        digest.update(data.tobytes())
    return digest.hexdigest()


def same_bytes(a: object, b: object) -> bool:
    """Whether *a* and *b* are arrays of one dtype and shape with the
    same bytes — signed zeros and NaN payloads included, so equal arrays
    hash to equal :func:`batch_signature` bytes.  An array is the same as
    itself without a look at its bytes."""
    return (
        isinstance(a, np.ndarray)
        and isinstance(b, np.ndarray)
        and (a is b or (a.dtype == b.dtype and a.shape == b.shape
                        and a.tobytes() == b.tobytes()))
    )


# ----------------------------------------------------------------------
# Fused single-GEMV dispatch plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FusedGemvPlan:
    """BLAS-level dispatch recipe for a pure single-GEMV program.

    The plan captures everything the server needs to serve a batch of
    compatible requests with one stationary-operand upload: the operand /
    vector / result array names, the evaluated GEMV geometry, and whether
    the program uploads the result vector first (``beta != 0``).
    """

    array_a: str
    array_x: str
    array_y: str
    trans_a: bool
    m: int
    n: int
    alpha: float
    beta: float
    uploads_y: bool


def _eval(expr, params: Mapping[str, float]) -> float:
    if isinstance(expr, Expr):
        return float(evaluate_expr(expr, dict(params), {}))
    return float(expr)


def extract_fused_gemv_plan(
    program: Program, params: Mapping[str, float]
) -> Optional[FusedGemvPlan]:
    """Recognise the Listing 1 single-GEMV shape, or return ``None``.

    Accepted: a program whose body is runtime calls only — ``cimInit``,
    matched malloc/host-to-dev pairs, exactly one ``cimBlasSGemv``, one
    dev-to-host of the result vector, and (optionally) frees.  Any host
    statement, extra kernel call or unmatched transfer disqualifies the
    program and the server falls back to whole-program execution.
    """
    stmts = program.body.stmts
    if not all(isinstance(stmt, CallStmt) for stmt in stmts):
        return None
    gemv: Optional[KernelCallArgs] = None
    buffer_arrays: dict[str, str] = {}
    uploaded: set[str] = set()
    downloads: list[CopyCallArgs] = []
    saw_gemv = False
    for stmt in stmts:
        payload = stmt.args[0] if stmt.args else None
        if stmt.callee == CIM_INIT:
            continue
        if stmt.callee == CIM_MALLOC and isinstance(payload, MallocCallArgs):
            if saw_gemv:
                return None
            buffer_arrays[payload.buffer] = payload.array
            continue
        if stmt.callee == CIM_HOST_TO_DEV and isinstance(payload, CopyCallArgs):
            if saw_gemv or payload.buffer not in buffer_arrays:
                return None
            uploaded.add(payload.buffer)
            continue
        if stmt.callee == CIM_GEMV and isinstance(payload, KernelCallArgs):
            if saw_gemv:
                return None
            saw_gemv = True
            gemv = payload
            continue
        if stmt.callee == CIM_DEV_TO_HOST and isinstance(payload, CopyCallArgs):
            if not saw_gemv:
                return None
            downloads.append(payload)
            continue
        if stmt.callee == CIM_FREE:
            continue
        return None
    if gemv is None or len(downloads) != 1:
        return None
    buffer_a, buffer_x, buffer_y = (gemv.value(BUFFER, role) for role in ("A", "x", "y"))
    if buffer_a not in uploaded or buffer_x not in uploaded:
        return None
    if downloads[0].buffer != buffer_y:
        return None
    uploads_y = buffer_y in uploaded
    # Every uploaded buffer must feed the GEMV — a stray upload means the
    # program does something this plan would not reproduce.
    if uploaded - {buffer_a, buffer_x, buffer_y}:
        return None
    try:
        m = int(round(_eval(gemv.value(DIM, "i"), params)))
        n = int(round(_eval(gemv.value(DIM, "j"), params)))
        alpha = _eval(gemv.value(SCALAR, "alpha"), params)
        beta = _eval(gemv.value(SCALAR, "beta"), params)
    except Exception:
        return None
    if beta != 0.0 and not uploads_y:
        # The device result would depend on uninitialised buffer content;
        # never fast-path a shape with undefined semantics.
        return None
    return FusedGemvPlan(
        array_a=buffer_arrays[buffer_a],
        array_x=buffer_arrays[buffer_x],
        array_y=buffer_arrays[buffer_y],
        trans_a=gemv.value(TRANS, "A"),
        m=m,
        n=n,
        alpha=alpha,
        beta=beta,
        uploads_y=uploads_y,
    )


@dataclass(frozen=True)
class ProgramAnalysis:
    """What the serving path reads of a compiled program under one set of
    parameters: its stationary operands and its fused GEMV plan (``None``
    when it is not the Listing 1 shape)."""

    stationary: tuple[str, ...]
    fused: Optional[FusedGemvPlan]


def analyse_program(program: Program, params: Mapping[str, float]) -> ProgramAnalysis:
    """:func:`stationary_operand_arrays` and :func:`extract_fused_gemv_plan`
    of *program* under *params*."""
    return ProgramAnalysis(
        stationary_operand_arrays(program), extract_fused_gemv_plan(program, params)
    )


# ----------------------------------------------------------------------
# Batch formation
# ----------------------------------------------------------------------
class DynamicBatcher:
    """Forms dispatch batches from the admitted request queues.

    ``window_s`` is the simulated batching window: once a seed request is
    chosen, every already-queued or newly-arriving compatible request up
    to ``max_batch_size`` joins the batch, and dispatch begins at
    ``seed_time + window_s`` (latency is traded for occupancy; a window
    of 0 dispatches immediately).  Batches may span tenants — that is the
    point of a multi-tenant serving layer.
    """

    def __init__(self, window_s: float = 100e-6, max_batch_size: int = 16):
        if window_s < 0:
            raise ValueError("batching window cannot be negative")
        if max_batch_size < 1:
            raise ValueError("max batch size must be >= 1")
        self.window_s = window_s
        self.max_batch_size = max_batch_size

    def form_batch(
        self,
        seed: TenantRequest,
        queued: list[TenantRequest],
    ) -> list[TenantRequest]:
        """Pick the batch served together with *seed*.

        *queued* is every admitted-but-undispatched request (any tenant).
        The batch is the compatible requests in deterministic
        (arrival, submission) order, truncated to ``max_batch_size`` —
        the seed always rides, even when older compatible requests fill
        the batch ahead of it.
        """
        compatible = [req for req in queued if req.signature == seed.signature]
        compatible.sort(key=TenantRequest.sort_key)
        batch = compatible[: self.max_batch_size]
        if seed not in batch:
            batch = batch[: self.max_batch_size - 1] + [seed]
        return batch
