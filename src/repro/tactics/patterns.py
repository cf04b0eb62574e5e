"""Pattern library: the computational kernels the CIM accelerator supports.

The accelerator executes matrix-vector products natively and matrix-matrix
products as a sequence of matrix-vector products (Section II-C of the
paper), so the kernels recognised here are:

* **GEMM** — ``C = alpha * op(A) * op(B) + beta * C`` contractions,
* **GEMV** — ``y = alpha * op(A) * x + beta * y`` contractions,
* **2D convolution** — ``out += alpha * W[p][q] * img[i + p][j + q]``,
  lowered to GEMM on the device via im2col by the runtime library.

Each kind is data, not code: a :class:`KernelSpec` in :data:`KERNEL_SPECS`
lists its access-pattern variants and roles, and :func:`match_statement`
reads every spec the same way.  Detection is per statement, on its access
patterns, its product form and its domain depth; the enclosing loop nest is
not inspected (``isolate`` gives a selected kernel a nest of its own).
A match is a :class:`KernelMatch` bound to its spec, describing everything
device mapping needs: the statements involved, the loop dimensions and
their extents, the operand arrays, transpose flags and scaling factors.
The spec also carries the kind's lowering (its runtime call, ``CimBlas``
entry, argument layout and stationary operand), so device mapping, the
intensity estimate, the executor and the serving batcher read one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

from repro.codegen.runtime_calls import CIM_CONV2D, CIM_GEMM, CIM_GEMV, Slot, layout
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
from repro.tactics.access import (
    AccessPattern,
    Placeholder,
    SubscriptPattern,
    array_placeholders,
    dim_placeholders,
    match_accesses,
    read_access,
    write_access,
)


class Variant(NamedTuple):
    """One accepted access shape of a kernel kind, with its transpose flags."""

    accesses: tuple[AccessPattern, ...]
    trans_a: bool = False
    trans_b: bool = False


@dataclass(frozen=True)
class KernelSpec:
    """Everything that defines one kernel kind, from match to BLAS call.

    ``rank`` is the output's rank and ``min_depth`` the least domain depth.
    ``dims`` lists the dimension roles, the output's first (they are the
    match's ``dims`` keys, in order); ``arrays`` lists the output role and
    then the two operand roles, which must be the product's array factors.
    A statement matches with the first of ``variants`` whose accesses bind;
    a variant's ``trans_a``/``trans_b`` flag the first/second operand.

    An offloaded match becomes the runtime call ``call``, which runs the
    :class:`~repro.runtime.blas.CimBlas` method ``entry`` with one
    argument per slot of ``layout``.  ``stationary`` is the operand role
    programmed into the crossbar.
    """

    kind: str
    call: str
    entry: str
    rank: int
    min_depth: int
    dims: tuple[str, ...]
    arrays: tuple[str, str, str]
    stationary: str
    layout: tuple[Slot, ...]
    variants: tuple[Variant, ...]

    @cached_property
    def stationary_dims(self) -> tuple[str, ...]:
        """Dimension roles subscripting the stationary operand."""
        access = next(a for a in self.variants[0].accesses if a.array.name == self.stationary)
        return tuple(term.name for terms in access.subscripts for term in terms)


@dataclass
class KernelMatch:
    """A statement bound to the roles of its kernel spec.

    ``update_stmt`` is the reduction statement computing the contraction;
    ``init_stmt`` the optional statement initialising / scaling the output
    (``C[i][j] = beta * C[i][j]`` or ``= 0``).  ``dims`` maps the spec's
    dimension roles (``"i"``, ``"j"``, ``"k"`` …) to concrete loop-variable
    names, ``arrays`` maps its array roles (``"A"``, ``"B"``, ``"C"`` …) to
    concrete array names.  ``alpha``/``beta`` are IR expressions (parameter
    references or constants).
    """

    spec: KernelSpec = field(repr=False)
    scop: Scop
    update_stmt: str
    init_stmt: Optional[str] = None
    dims: dict[str, str] = field(default_factory=dict)
    arrays: dict[str, str] = field(default_factory=dict)
    alpha: Expr = field(default_factory=lambda: FloatConst(1.0))
    beta: Expr = field(default_factory=lambda: FloatConst(0.0))
    trans_a: bool = False
    trans_b: bool = False

    @property
    def kind(self) -> str:
        return self.spec.kind

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
        stmt = self.scop.statement(self.update_stmt)
        dim = stmt.domain.dim(self.dims[role])
        extent = dim.upper - dim.lower
        if dim.step != 1:
            raise ValueError("non-unit steps are not offloadable")
        return extent.to_ir()

    def extent(self, role: str, params: dict[str, int | float]) -> int:
        """Concrete extent of dimension *role* under a parameter binding."""
        stmt = self.scop.statement(self.update_stmt)
        dim = stmt.domain.dim(self.dims[role])
        bindings = {k: int(v) for k, v in params.items() if isinstance(v, (int, float))}
        return dim.trip_count(bindings)

    def macs(self, params: dict[str, int | float]) -> int:
        """Multiply-accumulate count of the kernel under a parameter binding."""
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
# Kernel kinds as data
# ----------------------------------------------------------------------
def _update(
    out: Placeholder,
    out_subscripts: tuple[Placeholder, ...],
    *operands: tuple[Placeholder, tuple[SubscriptPattern, ...]],
    trans_a: bool = False,
    trans_b: bool = False,
) -> Variant:
    """``out[...] += operand * operand``: the write, the reduction's re-read
    of the output, then one read per operand."""
    accesses = (write_access(out, out_subscripts), read_access(out, out_subscripts))
    accesses += tuple(read_access(array, subs) for array, subs in operands)
    return Variant(accesses, trans_a, trans_b)


_i, _j, _k, _p, _q = dim_placeholders("i", "j", "k", "p", "q")
_C, _A, _B, _y, _x, _out, _W, _img = array_placeholders(
    "C", "A", "B", "y", "x", "out", "W", "img"
)

#: Every kernel kind, in the order :func:`find_all_kernels` claims them.
KERNEL_SPECS: tuple[KernelSpec, ...] = (
    # C[i][j] += A[i][k] * B[k][j], either operand possibly transposed.
    KernelSpec(
        "gemm", CIM_GEMM, "sgemm", rank=2, min_depth=3,
        dims=("i", "j", "k"), arrays=("C", "A", "B"), stationary="A",
        layout=layout(
            "trans:A trans:B dim:i dim:j dim:k scalar:alpha "
            "buffer:A ld:A buffer:B ld:B scalar:beta buffer:C ld:C"
        ),
        variants=(
            _update(_C, (_i, _j), (_A, (_i, _k)), (_B, (_k, _j))),
            _update(_C, (_i, _j), (_A, (_k, _i)), (_B, (_k, _j)), trans_a=True),
            _update(_C, (_i, _j), (_A, (_i, _k)), (_B, (_j, _k)), trans_b=True),
            _update(_C, (_i, _j), (_A, (_k, _i)), (_B, (_j, _k)), trans_a=True, trans_b=True),
        ),
    ),
    # out[i][j] += W[p][q] * img[i + p][j + q]: the filter is written to the
    # crossbar once and image patches stream through it.
    KernelSpec(
        "conv2d", CIM_CONV2D, "conv2d", rank=2, min_depth=4,
        dims=("i", "j", "p", "q"), arrays=("out", "img", "W"), stationary="W",
        layout=layout(
            "dim:i dim:j dim:p dim:q scalar:alpha buffer:img buffer:W scalar:beta buffer:out"
        ),
        variants=(
            _update(_out, (_i, _j), (_W, (_p, _q)), (_img, (_i + _p, _j + _q))),
        ),
    ),
    # y[i] += A[i][j] * x[j], the matrix possibly transposed.
    KernelSpec(
        "gemv", CIM_GEMV, "sgemv", rank=1, min_depth=2,
        dims=("i", "j"), arrays=("y", "A", "x"), stationary="A",
        layout=layout(
            "trans:A dim:i dim:j scalar:alpha buffer:A ld:A buffer:x scalar:beta buffer:y"
        ),
        variants=(
            _update(_y, (_i,), (_A, (_i, _j)), (_x, (_j,))),
            _update(_y, (_i,), (_A, (_j, _i)), (_x, (_j,)), trans_a=True),
        ),
    ),
)


def match_statement(scop: Scop, stmt: ScopStatement, spec: KernelSpec) -> Optional[KernelMatch]:
    """Match one statement against one kernel spec."""
    assign = stmt.assign
    if assign.reduction != "+":
        return None
    if not isinstance(assign.target, ArrayRef) or assign.target.rank != spec.rank:
        return None
    if stmt.domain.depth < spec.min_depth:
        return None
    # A pure product of exactly two array reads and optional scalar
    # factors (alpha).
    split = split_product(assign.rhs)
    if split is None or len(split[0]) != 2:
        return None
    array_factors, scalar_factors = split
    factor_names = sorted(ref.name for ref in array_factors)
    domain_vars = set(stmt.domain.var_names)
    for variant in spec.variants:
        binding = match_accesses(stmt.accesses, variant.accesses, distinct_dims=True)
        if binding is None:
            continue
        dims = {role: binding.dim(role) for role in spec.dims}
        if not set(dims.values()) <= domain_vars:
            continue
        arrays = {role: binding.array(role) for role in spec.arrays}
        out_array = arrays[spec.arrays[0]]
        operands = sorted(arrays[role] for role in spec.arrays[1:])
        # The operands must be the product's array factors (so the scalar
        # factors really are alpha), and neither may be the output, which
        # the statement overwrites while reading it.
        if operands != factor_names or out_array in operands:
            continue
        out_vars = tuple(dims[role] for role in spec.dims[: spec.rank])
        init_stmt, beta = find_init_statement(scop, stmt, out_array, out_vars)
        return KernelMatch(
            spec=spec,
            scop=scop,
            update_stmt=stmt.name,
            init_stmt=init_stmt,
            dims=dims,
            arrays=arrays,
            alpha=scalar_product_expr(scalar_factors),
            beta=beta,
            trans_a=variant.trans_a,
            trans_b=variant.trans_b,
        )
    return None


def find_all_kernels(scop: Scop) -> list[KernelMatch]:
    """Every kernel in *scop*: the specs in order, statements in order
    within a spec.  A statement is claimed by at most one match, so GEMM
    shadows conv2d and GEMV on the same statements."""
    matches: list[KernelMatch] = []
    claimed: set[str] = set()
    for spec in KERNEL_SPECS:
        for stmt in scop.statements:
            match = match_statement(scop, stmt, spec)
            if match is None or match.statements & claimed:
                continue
            claimed |= match.statements
            matches.append(match)
    return matches


# ----------------------------------------------------------------------
# Right-hand-side analysis
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
