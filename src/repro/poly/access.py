"""Access relations: which array elements a statement reads and writes.

Each access maps the statement's iteration vector to an array subscript via
one affine expression per array dimension.  Access relations are the raw
material for dependence analysis and for the Loop Tactics access matchers
(a GEMM is recognised by the *shape* of its access relations: the write
``C[i][j]`` is indexed by the two outer loop variables, the reads
``A[i][k]``/``B[k][j]`` each share exactly one variable with the write, and
the reduction variable appears in both reads but not the write).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.ir.expr import ArrayRef
from repro.ir.stmt import Assign
from repro.poly.affine import AffineExpr, affine_from_expr


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AccessRelation:
    """One affine array access of a statement."""

    array: str
    kind: AccessKind
    indices: tuple[AffineExpr, ...]
    stmt_name: str = ""
    #: Per subscript, its loop variables when it is their plain sum (every
    #: coefficient 1, no constant, no parameter), else ``None``; computed
    #: once at construction.
    unit_vars: tuple[Optional[tuple[str, ...]], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "unit_vars", tuple(
            tuple(var for var, _ in idx.var_coeffs)
            if idx.constant == 0 and not idx.param_coeffs
            and all(coeff == 1 for _, coeff in idx.var_coeffs)
            else None
            for idx in self.indices
        ))

    @property
    def rank(self) -> int:
        return len(self.indices)

    def used_vars(self) -> set[str]:
        result: set[str] = set()
        for idx in self.indices:
            result |= idx.used_vars()
        return result

    def index_vars(self) -> tuple[frozenset[str], ...]:
        """Loop variables used by each subscript dimension, in order."""
        return tuple(frozenset(idx.used_vars()) for idx in self.indices)

    def is_simple(self) -> bool:
        """True when every subscript is a single loop variable (coefficient 1,
        no constant) — the form the paper's GEMM/GEMV kernels use."""
        return self.single_vars() is not None

    def single_vars(self) -> Optional[tuple[str, ...]]:
        """If :meth:`is_simple`, the subscript variable per dimension."""
        if all(unit is not None and len(unit) == 1 for unit in self.unit_vars):
            return tuple(unit[0] for unit in self.unit_vars)
        return None

    def rename_var(self, old: str, new: str) -> "AccessRelation":
        return AccessRelation(
            array=self.array,
            kind=self.kind,
            indices=tuple(idx.rename_var(old, new) for idx in self.indices),
            stmt_name=self.stmt_name,
        )

    def __str__(self) -> str:
        subs = "".join(f"[{idx}]" for idx in self.indices)
        return f"{self.kind}:{self.array}{subs}"


def accesses_of_statement(
    stmt: Assign,
    loop_vars: Sequence[str],
    param_names: Sequence[str],
) -> Optional[list[AccessRelation]]:
    """Extract affine access relations from an assignment.

    Returns ``None`` if any access is non-affine (the statement is then not
    part of a SCoP).  Reduction statements (``+=``) produce both a read and a
    write access for the target, exactly as LLVM would after load/store
    lowering.
    """
    loop_var_set = set(loop_vars)
    param_set = set(param_names)
    relations: list[AccessRelation] = []

    def convert(ref: ArrayRef, kind: AccessKind) -> bool:
        indices: list[AffineExpr] = []
        for idx_expr in ref.indices:
            affine = affine_from_expr(idx_expr, loop_var_set, param_set)
            if affine is None:
                return False
            indices.append(affine)
        relations.append(
            AccessRelation(
                array=ref.name,
                kind=kind,
                indices=tuple(indices),
                stmt_name=stmt.name,
            )
        )
        return True

    for ref in stmt.writes():
        if not convert(ref, AccessKind.WRITE):
            return None
    for ref in stmt.reads():
        if not convert(ref, AccessKind.READ):
            return None
    return relations
