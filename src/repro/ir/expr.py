"""Expression nodes of the loop-nest IR.

Expressions are immutable trees.  The subset is intentionally small: integer
and floating constants, references to loop induction variables, references to
program parameters (symbolic sizes and scalars such as ``alpha``/``beta``),
array accesses with arbitrary index expressions, binary and unary arithmetic,
and ``min``/``max`` (needed for tiled loop bounds).

Two derived facilities matter for the rest of the system:

* :meth:`Expr.free_vars` — the set of variable names an expression reads,
  used by SCoP detection and dependence analysis.
* :func:`affine_coefficients` (in :mod:`repro.poly.affine`) — index
  expressions are analysed for affinity by the polyhedral layer; the IR only
  provides structural access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

Number = Union[int, float]


class Expr:
    """Base class for all IR expressions."""

    def children(self) -> Sequence["Expr"]:
        """Direct sub-expressions, in evaluation order."""
        return ()

    def free_vars(self) -> set[str]:
        """Names of variables and parameters read by this expression."""
        result: set[str] = set()
        for child in self.children():
            result |= child.free_vars()
        return result

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and every sub-expression, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    # Operator sugar so builders and tests can write natural arithmetic.
    def __add__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("+", self, _wrap(other))

    def __radd__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("+", _wrap(other), self)

    def __sub__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("-", self, _wrap(other))

    def __rsub__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("-", _wrap(other), self)

    def __mul__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("*", self, _wrap(other))

    def __rmul__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("*", _wrap(other), self)

    def __truediv__(self, other: "Expr | Number") -> "BinOp":
        return BinOp("/", self, _wrap(other))

    def __neg__(self) -> "UnaryOp":
        return UnaryOp("-", self)


def _wrap(value: "Expr | Number") -> Expr:
    """Promote plain Python numbers to IR constants."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean constants are not IR expressions")
    if isinstance(value, int):
        return IntConst(value)
    if isinstance(value, float):
        return FloatConst(value)
    raise TypeError(f"cannot use {value!r} as an IR expression")


@dataclass(frozen=True)
class IntConst(Expr):
    """Integer literal."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class FloatConst(Expr):
    """Floating-point literal."""

    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class VarRef(Expr):
    """Reference to a loop induction variable (or local scalar)."""

    name: str

    def free_vars(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ParamRef(Expr):
    """Reference to a program parameter (symbolic size or scalar constant).

    Parameters are fixed for the whole program execution; loop bounds that
    reference only parameters and constants are *static control* and thus
    SCoP-eligible.
    """

    name: str

    def free_vars(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayRef(Expr):
    """Array element access ``name[idx0][idx1]...``."""

    name: str
    indices: tuple[Expr, ...]

    def __init__(self, name: str, indices: Sequence[Expr | int]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "indices", tuple(_wrap(i) for i in indices))

    def children(self) -> Sequence[Expr]:
        return self.indices

    @property
    def rank(self) -> int:
        return len(self.indices)

    def __str__(self) -> str:
        return self.name + "".join(f"[{idx}]" for idx in self.indices)


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary arithmetic expression."""

    op: str
    lhs: Expr
    rhs: Expr

    _VALID_OPS = ("+", "-", "*", "/", "%")

    def __post_init__(self) -> None:
        if self.op not in self._VALID_OPS:
            raise ValueError(f"unsupported binary operator {self.op!r}")

    def children(self) -> Sequence[Expr]:
        return (self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary arithmetic expression (currently only negation)."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op != "-":
            raise ValueError(f"unsupported unary operator {self.op!r}")

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True)
class Min(Expr):
    """Minimum of two expressions; appears in tiled loop upper bounds."""

    lhs: Expr
    rhs: Expr

    def children(self) -> Sequence[Expr]:
        return (self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"min({self.lhs}, {self.rhs})"


@dataclass(frozen=True)
class Max(Expr):
    """Maximum of two expressions."""

    lhs: Expr
    rhs: Expr

    def children(self) -> Sequence[Expr]:
        return (self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"max({self.lhs}, {self.rhs})"


def array_refs(expr: Expr) -> list[ArrayRef]:
    """All array accesses appearing in *expr*, in pre-order."""
    return [node for node in expr.walk() if isinstance(node, ArrayRef)]


def const_value(expr: Expr) -> Number | None:
    """Return the numeric value if *expr* is a literal, else ``None``."""
    if isinstance(expr, (IntConst, FloatConst)):
        return expr.value
    return None
