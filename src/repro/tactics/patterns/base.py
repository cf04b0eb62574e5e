"""Common infrastructure shared by all kernel patterns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Expr,
    FloatConst,
    IntConst,
    ParamRef,
    UnaryOp,
)
from repro.poly.schedule_tree import (
    BandNode,
    DomainNode,
    FilterNode,
    LeafNode,
    ScheduleNode,
)
from repro.poly.scop import Scop, ScopStatement


@dataclass
class KernelMatch:
    """Base class of pattern captures.

    ``update_stmt`` is the reduction statement computing the contraction;
    ``init_stmt`` the optional statement initialising / scaling the output
    (``C[i][j] = beta * C[i][j]`` or ``= 0``).  ``dims`` maps canonical
    dimension roles (``"i"``, ``"j"``, ``"k"`` …) to concrete loop-variable
    names, ``arrays`` maps operand roles (``"A"``, ``"B"``, ``"C"`` …) to
    concrete array names.  ``alpha``/``beta`` are IR expressions (parameter
    references or constants).
    """

    kind: str = "kernel"
    scop: Optional[Scop] = None
    update_stmt: str = ""
    init_stmt: Optional[str] = None
    dims: dict[str, str] = field(default_factory=dict)
    arrays: dict[str, str] = field(default_factory=dict)
    alpha: Expr = field(default_factory=lambda: FloatConst(1.0))
    beta: Expr = field(default_factory=lambda: FloatConst(0.0))
    trans_a: bool = False
    trans_b: bool = False

    @property
    def statements(self) -> set[str]:
        names = {self.update_stmt}
        if self.init_stmt is not None:
            names.add(self.init_stmt)
        return names

    # ------------------------------------------------------------------
    # Problem-size helpers
    # ------------------------------------------------------------------
    def extent_expr(self, role: str) -> Expr:
        """Symbolic extent (trip count) of the loop bound to dimension *role*."""
        assert self.scop is not None
        stmt = self.scop.statement(self.update_stmt)
        dim = stmt.domain.dim(self.dims[role])
        extent = dim.upper - dim.lower
        if dim.step != 1:
            raise ValueError("non-unit steps are not offloadable")
        return extent.to_ir()

    def extent(self, role: str, params: dict[str, int | float]) -> int:
        """Concrete extent of dimension *role* under a parameter binding."""
        assert self.scop is not None
        stmt = self.scop.statement(self.update_stmt)
        dim = stmt.domain.dim(self.dims[role])
        bindings = {k: int(v) for k, v in params.items() if isinstance(v, (int, float))}
        return dim.trip_count(bindings)

    def macs(self, params: dict[str, int | float]) -> int:
        """Multiply-accumulate count of the kernel under a parameter binding."""
        assert self.scop is not None
        stmt = self.scop.statement(self.update_stmt)
        return stmt.domain.cardinality(
            {k: int(v) for k, v in params.items() if isinstance(v, (int, float))}
        )

    # ------------------------------------------------------------------
    # Tree helpers
    # ------------------------------------------------------------------
    def leaf_path(self, tree: DomainNode) -> list[ScheduleNode]:
        """Root-to-leaf path of the leaf scheduling the update statement.

        The descent enters only the filters that name the statement: a
        filter names every statement below it, and the filters under one
        sequence name disjoint sets, so there is a single way down.
        """
        path: list[ScheduleNode] = [tree]
        while not isinstance(path[-1], LeafNode):
            for child in path[-1].children():
                if not isinstance(child, FilterNode) or self.update_stmt in child.statements:
                    path.append(child)
                    break
            else:
                break
        if isinstance(path[-1], LeafNode) and self.update_stmt in path[-1].statements:
            return path
        raise LookupError(
            f"schedule tree has no leaf for statement {self.update_stmt!r}"
        )

    def subtree_path(self, tree: DomainNode) -> list[ScheduleNode]:
        """Root-to-node path of the highest node that schedules only this
        kernel's statements.

        This is the node device mapping will replace with runtime calls: the
        outermost ancestor (band/filter/mark) under which the set of active
        statements is a subset of this match's statements: active sets only
        shrink downwards, so it is the first fit from the domain down.
        """
        path = self.leaf_path(tree)
        statements = self.statements
        active = set(tree.scop.statement_names)
        for depth, node in enumerate(path):
            if isinstance(node, FilterNode):
                active &= node.statements
            if depth and active <= statements:
                return path[: depth + 1]
        return path

    def band_chain(self, tree: DomainNode) -> list[BandNode]:
        """Bands enclosing the update statement, outermost first."""
        return [n for n in self.leaf_path(tree) if isinstance(n, BandNode)]

    def __str__(self) -> str:
        dims = ", ".join(f"{k}={v}" for k, v in self.dims.items())
        arrays = ", ".join(f"{k}={v}" for k, v in self.arrays.items())
        return f"{self.kind}({arrays}; {dims}; stmt={self.update_stmt})"


# ----------------------------------------------------------------------
# Right-hand-side structural analysis shared by GEMM and GEMV detection
# ----------------------------------------------------------------------
def multiplicative_factors(expr: Expr) -> Optional[list[Expr]]:
    """Flatten a pure product into its factors.

    Returns ``None`` if the expression contains anything other than ``*``
    over array references, parameters and constants (no sums, no division).
    """
    if isinstance(expr, BinOp):
        if expr.op != "*":
            return None
        lhs = multiplicative_factors(expr.lhs)
        rhs = multiplicative_factors(expr.rhs)
        if lhs is None or rhs is None:
            return None
        return lhs + rhs
    if isinstance(expr, UnaryOp):
        inner = multiplicative_factors(expr.operand)
        if inner is None:
            return None
        return [UnaryOp("-", IntConst(1))] + inner
    if isinstance(expr, (ArrayRef, ParamRef, IntConst, FloatConst)):
        return [expr]
    return None


def split_product(
    expr: Expr,
) -> Optional[tuple[list[ArrayRef], list[Expr]]]:
    """Split a product into (array factors, scalar factors)."""
    factors = multiplicative_factors(expr)
    if factors is None:
        return None
    array_factors = [f for f in factors if isinstance(f, ArrayRef)]
    scalar_factors = [f for f in factors if not isinstance(f, ArrayRef)]
    return array_factors, scalar_factors


def scalar_product_expr(scalars: list[Expr]) -> Expr:
    """Combine scalar factors into one expression (1.0 when empty)."""
    if not scalars:
        return FloatConst(1.0)
    result = scalars[0]
    for factor in scalars[1:]:
        result = BinOp("*", result, factor)
    return result


def is_zero_constant(expr: Expr) -> bool:
    return (
        isinstance(expr, (IntConst, FloatConst)) and float(expr.value) == 0.0
    )


def find_init_statement(
    scop: Scop,
    update: ScopStatement,
    out_array: str,
    out_vars: tuple[str, ...],
) -> tuple[Optional[str], Expr]:
    """Look for the statement initialising the contraction output.

    Accepts ``out[...] = 0``, ``out[...] = beta * out[...]`` and
    ``out[...] *= beta`` where the subscripts equal the update statement's
    output subscripts.  Returns ``(statement name or None, beta expression)``
    — beta is 1.0 when no init statement exists (pure accumulation into the
    existing contents).
    """
    update_index = scop.statement_names.index(update.name)
    for stmt in reversed(scop.statements[:update_index]):
        writes = stmt.write_arrays()
        if out_array not in writes:
            # A different statement writing other arrays does not block the
            # search, but any statement writing the output array that is not
            # an init form stops it (the value would be clobbered).
            continue
        assign = stmt.assign
        if not isinstance(assign.target, ArrayRef):
            return None, FloatConst(1.0)
        target_vars = tuple(
            str(idx) for idx in assign.target.indices
        )
        expected_vars = tuple(out_vars)
        if target_vars != expected_vars:
            return None, FloatConst(1.0)
        if assign.reduction == "*":
            return stmt.name, assign.rhs
        if assign.reduction is not None:
            return None, FloatConst(1.0)
        rhs = assign.rhs
        if is_zero_constant(rhs):
            return stmt.name, FloatConst(0.0)
        split = split_product(rhs)
        if split is not None:
            array_factors, scalar_factors = split
            if (
                len(array_factors) == 1
                and array_factors[0].name == out_array
                and tuple(str(i) for i in array_factors[0].indices) == expected_vars
            ):
                return stmt.name, scalar_product_expr(scalar_factors)
        return None, FloatConst(1.0)
    return None, FloatConst(1.0)
