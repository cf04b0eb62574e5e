"""Runtime-call interface emitted by device mapping.

The names match the paper's Listing 1 (``polly_cim*``).  Each call statement
carries one structured argument object; the objects render as the C-like
argument lists Listing 1 shows, so ``repro.ir.to_source`` output of a
compiled program reads like the paper's generated code.

Every kernel call carries one :class:`KernelCallArgs`: its kind's argument
layout (a tuple of :class:`Slot`, declared on the kind's
``repro.tactics.patterns.KernelSpec``) paired with values, in the order
of the :class:`~repro.runtime.blas.CimBlas` entry it runs.  Dimension and
scalar values are IR expressions (parameters stay symbolic in the compiled
program and are evaluated at run time by the executor); array fields are
array *names* in the enclosing program; buffers are the symbolic
device-buffer names (``cim_A`` etc.) introduced by device mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from repro.ir.expr import Expr

# Call names (Listing 1 of the paper).
CIM_INIT = "polly_cimInit"
CIM_MALLOC = "polly_cimMalloc"
CIM_FREE = "polly_cimFree"
CIM_HOST_TO_DEV = "polly_cimHostToDev"
CIM_DEV_TO_HOST = "polly_cimDevToHost"
CIM_GEMM = "polly_cimBlasSGemm"
CIM_GEMV = "polly_cimBlasSGemv"
CIM_GEMM_BATCHED = "polly_cimBlasGemmBatched"
CIM_CONV2D = "polly_cimConv2D"

ALL_RUNTIME_CALLS = (
    CIM_INIT,
    CIM_MALLOC,
    CIM_FREE,
    CIM_HOST_TO_DEV,
    CIM_DEV_TO_HOST,
    CIM_GEMM,
    CIM_GEMV,
    CIM_GEMM_BATCHED,
    CIM_CONV2D,
)


@dataclass(frozen=True)
class InitCallArgs:
    """``polly_cimInit(device)``"""

    device: int = 0

    def __str__(self) -> str:
        return str(self.device)


@dataclass(frozen=True)
class MallocCallArgs:
    """``polly_cimMalloc((void**)&<buffer>, <size>)``

    ``array`` is the host array whose data the buffer will hold; ``size`` is
    a symbolic byte count.
    """

    buffer: str
    array: str
    size: Expr

    def __str__(self) -> str:
        return f"(void**)&{self.buffer}, {self.size}"


@dataclass(frozen=True)
class CopyCallArgs:
    """``polly_cimHostToDev(buffer, host_array, size)`` (or DevToHost)."""

    buffer: str
    array: str
    size: Expr

    def __str__(self) -> str:
        return f"{self.buffer}, {self.array}, {self.size}"


#: Slot kinds: what one positional argument of a BLAS entry carries.
TRANS, DIM, SCALAR, BUFFER, LD = "trans", "dim", "scalar", "buffer", "ld"
SLOT_KINDS = (TRANS, DIM, SCALAR, BUFFER, LD)


class Slot(NamedTuple):
    """One positional argument of a BLAS entry: a transpose flag of an
    operand role, a dimension role's extent, a scalar (``alpha`` or
    ``beta``), an operand role's buffer, or an operand's leading dimension.
    """

    kind: str
    role: str


def layout(text: str) -> tuple[Slot, ...]:
    """Slots from ``"kind:role"`` words, in order (``"trans:A dim:i ..."``)."""
    slots = tuple(Slot(*word.split(":")) for word in text.split())
    for slot in slots:
        if slot.kind not in SLOT_KINDS:
            raise ValueError(f"unknown slot kind {slot.kind!r}; expected one of {SLOT_KINDS}")
    return slots


def _render(slot: Slot, value: object) -> str:
    """A slot's value as Listing 1 prints it."""
    if slot.kind == TRANS:
        return "CimTrans" if value else "CimNoTrans"
    if slot.kind == SCALAR:
        return f"&{value}"
    return str(value)


@dataclass(frozen=True)
class KernelCallArgs:
    """The arguments of one kernel's runtime call.

    ``entry`` names the :class:`~repro.runtime.blas.CimBlas` method the
    call runs, and ``args`` pairs each slot of the kind's layout with its
    value, in the entry's positional order: a transpose flag, an IR
    expression (dimensions, scalars, leading dimensions) or a buffer name.
    ``arrays`` maps each operand role to the host array behind its buffer,
    and ``stationary`` is the role programmed into the crossbar.
    """

    entry: str
    args: tuple[tuple[Slot, object], ...]
    arrays: Mapping[str, str]
    stationary: str

    @property
    def problems(self) -> tuple["KernelCallArgs", ...]:
        """The kernel problems the call runs: this one (a batched call
        lists several)."""
        return (self,)

    def value(self, kind: str, role: str) -> object:
        """The value of the slot ``kind:role``."""
        for slot, value in self.args:
            if slot.kind == kind and slot.role == role:
                return value
        raise KeyError(f"{kind}:{role}")

    def __str__(self) -> str:
        return ", ".join(_render(slot, value) for slot, value in self.args)


@dataclass(frozen=True)
class BatchedGemmCallArgs:
    """``polly_cimBlasGemmBatched(transA, transB, M, N, K, alpha, A[], lda,
    B[], ldb, beta, C[], ldc, batchCount)``

    The problems are ``sgemm`` calls of one shape; the batch shares their
    transpose flags, dimensions and scalars and lists their buffers.
    """

    problems: tuple[KernelCallArgs, ...]

    def __post_init__(self) -> None:
        if not self.problems:
            raise ValueError("batched GEMM needs at least one problem")
        if any(problem.entry != "sgemm" for problem in self.problems):
            raise ValueError("batched GEMM takes GEMM problems only")

    def __str__(self) -> str:
        rendered = []
        for index, (slot, value) in enumerate(self.problems[0].args):
            if slot.kind == BUFFER:
                buffers = ", ".join(str(p.args[index][1]) for p in self.problems)
                rendered.append(f"{{{buffers}}}")
            else:
                rendered.append(_render(slot, value))
        rendered.append(str(len(self.problems)))
        return ", ".join(rendered)
