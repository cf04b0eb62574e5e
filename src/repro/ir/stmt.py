"""Statement nodes of the loop-nest IR."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.ir.expr import ArrayRef, Expr, VarRef

# Default names of hand-built statements, unique in the process.  The parser
# names its statements itself, S0, S1, ... afresh for every parse.
_stmt_counter = itertools.count()


def _next_stmt_name() -> str:
    return f"S{next(_stmt_counter)}"


class Stmt:
    """Base class for all IR statements."""

    def children_stmts(self) -> Sequence["Stmt"]:
        return ()

    def walk(self) -> Iterator["Stmt"]:
        """Yield this statement and all nested statements, pre-order."""
        yield self
        for child in self.children_stmts():
            yield from child.walk()


@dataclass
class Assign(Stmt):
    """Assignment to an array element or scalar variable.

    ``reduction`` marks compound assignments (``+=``); this is semantic
    information the pattern matchers use (a GEMM update statement is a
    reduction over ``k``).  The right-hand side of a ``+=`` is stored
    *without* the implicit read of the target — i.e. ``C[i][j] += x`` has
    ``rhs = x`` and ``reduction = '+'``.
    """

    target: ArrayRef | VarRef
    rhs: Expr
    reduction: Optional[str] = None  # None, "+", "*"
    name: str = field(default_factory=_next_stmt_name)

    def reads(self) -> list[ArrayRef]:
        """Array accesses read by this statement.

        For reductions the target is also read (load-modify-store).
        """
        result = [node for node in self.rhs.walk() if isinstance(node, ArrayRef)]
        if self.reduction is not None and isinstance(self.target, ArrayRef):
            result.append(self.target)
        if not self.reduction and isinstance(self.target, ArrayRef):
            # Index expressions of the write are still reads of scalars only;
            # nested ArrayRefs inside indices (rare) count as reads.
            for idx in self.target.indices:
                result.extend(
                    node for node in idx.walk() if isinstance(node, ArrayRef)
                )
        return result

    def writes(self) -> list[ArrayRef]:
        """Array accesses written by this statement."""
        if isinstance(self.target, ArrayRef):
            return [self.target]
        return []

    def __str__(self) -> str:
        op = f"{self.reduction}=" if self.reduction else "="
        return f"{self.target} {op} {self.rhs};"


@dataclass
class Block(Stmt):
    """Ordered sequence of statements."""

    stmts: list[Stmt] = field(default_factory=list)

    def children_stmts(self) -> Sequence[Stmt]:
        return tuple(self.stmts)

    def append(self, stmt: Stmt) -> None:
        self.stmts.append(stmt)

    def __str__(self) -> str:
        return "{ " + " ".join(str(s) for s in self.stmts) + " }"


@dataclass
class Loop(Stmt):
    """Counted ``for`` loop: ``for (var = lower; var < upper; var += step)``.

    The upper bound is exclusive, matching C ``<`` comparisons and the
    PolyBench kernels.  ``step`` must be a positive integer constant for the
    loop to be polyhedral-analysable, but the IR itself allows any positive
    step expression.
    """

    var: str
    lower: Expr
    upper: Expr
    body: Block
    step: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.body, Block):
            raise TypeError("Loop body must be a Block")
        if isinstance(self.step, Expr):
            raise TypeError("Loop step must be a plain positive integer")
        if self.step <= 0:
            raise ValueError("Loop step must be positive")

    def children_stmts(self) -> Sequence[Stmt]:
        return (self.body,)

    def __str__(self) -> str:
        step = f"{self.var} += {self.step}" if self.step != 1 else f"{self.var}++"
        return (
            f"for ({self.var} = {self.lower}; {self.var} < {self.upper}; {step}) "
            f"{self.body}"
        )


@dataclass
class CallStmt(Stmt):
    """Call to a (runtime library) function.

    After device mapping the offloaded kernels become ``CallStmt`` nodes
    targeting the CIM runtime (``polly_cimBlasSGemm`` and friends); the
    interpreter dispatches them to :mod:`repro.runtime`.
    Arguments are IR expressions or plain Python strings (symbol names such
    as the destination buffer handle).
    """

    callee: str
    args: list[object] = field(default_factory=list)

    def __str__(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        return f"{self.callee}({rendered});"


@dataclass
class IfStmt(Stmt):
    """Conditional guard: ``if (cond != 0) then_body else else_body``.

    Only used for generated boundary code; conditions are arbitrary IR
    expressions interpreted as C truth values.
    """

    cond: Expr
    then_body: Block
    else_body: Optional[Block] = None

    def children_stmts(self) -> Sequence[Stmt]:
        if self.else_body is not None:
            return (self.then_body, self.else_body)
        return (self.then_body,)

    def __str__(self) -> str:
        text = f"if ({self.cond}) {self.then_body}"
        if self.else_body is not None:
            text += f" else {self.else_body}"
        return text
