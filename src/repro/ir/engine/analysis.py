"""Vectorization analysis: loop distribution and axis classification.

The engine turns a loop nest into an execution *plan*, which it then
emits as one Python function:

1. **Structural screening** — the nest may contain only counted loops and
   array assignments, with affine-friendly bound and index expressions.
   Anything else (calls, data-dependent branches, scalar accumulators,
   indirect indexing) makes the whole nest fall back to the interpreter.
2. **Loop distribution** — each loop body is split into independence groups
   (maximal loop fission), so that a statement sharing a loop with an
   unrelated reduction does not inhibit its vectorization.  Two statements
   stay in the same group only when they conflict: they touch a common
   array, at least one writes it, and the accesses are not aligned on the
   loop variable.
3. **Classification** — every distributed loop is marked ``vec`` (executed
   as a NumPy array axis) or sequential (a Python loop).  A loop is
   vectorizable when every array written in its subtree is accessed through
   a dedicated dimension that is affine in the loop variable with a nonzero
   coefficient (and independent of the other vectorized variables), which
   guarantees that distinct iterations touch disjoint elements.  Reduction
   loops — the loop variable missing from the target subscripts — stay
   sequential, which is what keeps floating-point accumulation order, and
   therefore results, bit-identical to the interpreter.
4. **Fold lowering** — every planned assignment is analysed for the exact
   slice lowering (the default "fast" engine): when every array subscript
   is affine with at most one vectorized variable per dimension
   (``coeff * var + offset``) and each vectorized variable separates
   exactly one dimension per reference, the assignment can be executed
   through basic NumPy slices (views).  Sequential reduction loops then
   become ordered folds of vectorized slice updates — per element the
   exact same operations in the exact same order as the interpreter, so
   results stay bit-identical.  A nest whose assignments all have such a
   :class:`FoldSpec` is emitted by the engine as one Python function
   (``NestPlan.kernel``); the analysis records a human-readable reason
   whenever an assignment cannot be slice-lowered, the nest then runs on
   the interpreter (and the per-nest lowering report surfaces the
   reason).

A plan is a pure function of its nest, so it is built once per program
(the engine keeps it in ``Program.engine_plans``) and is only valid for
the statement objects it was built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Expr,
    FloatConst,
    IntConst,
    Max,
    Min,
    ParamRef,
    UnaryOp,
    VarRef,
)
from repro.ir.stmt import Assign, Block, Loop, Stmt
from repro.poly.affine import affine_from_expr

# ----------------------------------------------------------------------
# Plan nodes
# ----------------------------------------------------------------------


@dataclass
class FoldDim:
    """Lowering of one subscript dimension of one array reference.

    ``kind`` is ``"scalar"`` (no vectorized variable: the index expression
    evaluates to a plain integer) or ``"slice"`` (affine in exactly one
    vectorized variable: ``coeff * vec_var + offset`` becomes a basic
    slice).  ``expr`` is the original index expression — with the
    vectorized variables at zero it evaluates to the runtime offset.
    """

    kind: str
    expr: Expr
    vec_var: Optional[str] = None
    coeff: int = 0


@dataclass
class FoldRef:
    """Slice lowering of one array reference."""

    name: str
    dims: tuple[FoldDim, ...]


@dataclass
class FoldSpec:
    """Exact slice lowering of one planned assignment.

    ``refs`` maps ``id()`` of every :class:`~repro.ir.expr.ArrayRef` node
    in the right-hand side to its :class:`FoldRef`; ``target`` is the
    lowering of the write.  The spec is only valid for the statement
    objects it was built from (identity-keyed, like the plan itself).
    """

    target: FoldRef
    refs: dict[int, FoldRef]
    vec_vars: tuple[str, ...]


@dataclass
class PlanAssign:
    """One assignment inside a planned nest."""

    stmt: Assign
    #: Names of the enclosing vectorized loop variables, outermost first
    #: (filled in after classification).
    vec_vars: tuple[str, ...] = ()
    #: Exact slice lowering ("fast" engine), or None with the reason why
    #: this assignment keeps its nest on the interpreter.
    fold: Optional["FoldSpec"] = None
    fold_reason: str = ""


@dataclass
class PlanLoop:
    """One (possibly distributed) loop of the plan."""

    var: str
    lower: Expr
    upper: Expr
    step: int
    body: list["PlanNode"] = field(default_factory=list)
    vec: bool = True


PlanNode = Union[PlanLoop, PlanAssign]


@dataclass
class NestPlan:
    """Complete plan for one top-level loop nest."""

    root: Loop
    nodes: list[PlanNode] = field(default_factory=list)
    #: Per original-loop id: loop variables referenced by bounds deeper in
    #: the nest (drives enumeration in the analytical trace pass).
    enumerate_vars: dict[int, frozenset[str]] = field(default_factory=dict)
    #: The nest lowered to one Python function (the engine's
    #: ``NestKernel``, emitted when the plan is built), or ``None`` when
    #: some assignment has no :class:`FoldSpec` and the nest runs on the
    #: interpreter.
    kernel: Optional[object] = None

    @property
    def has_vectorized_loop(self) -> bool:
        return any(loop.vec for loop in _all_loops(self.nodes))


# ----------------------------------------------------------------------
# Structural screening
# ----------------------------------------------------------------------


def _index_expr_ok(expr: Expr) -> bool:
    """Index expressions must stay integer-exact under NumPy evaluation."""
    if isinstance(expr, (IntConst, VarRef, ParamRef)):
        return True
    if isinstance(expr, BinOp):
        # "/" would produce floats (the interpreter truncates with int());
        # everything else is exact integer arithmetic in both worlds.
        return (
            expr.op in ("+", "-", "*", "%")
            and _index_expr_ok(expr.lhs)
            and _index_expr_ok(expr.rhs)
        )
    if isinstance(expr, UnaryOp):
        return _index_expr_ok(expr.operand)
    if isinstance(expr, (Min, Max)):
        return _index_expr_ok(expr.lhs) and _index_expr_ok(expr.rhs)
    return False  # ArrayRef (indirect indexing), FloatConst, unknown nodes


def _bound_expr_ok(expr: Expr) -> bool:
    """Loop bounds evaluated analytically must be integer-exact."""
    return _index_expr_ok(expr)


def _value_expr_ok(expr: Expr) -> bool:
    """Right-hand sides must evaluate identically element- and array-wise.

    ``Min``/``Max`` are excluded: the interpreter evaluates them with
    Python's ``min``/``max`` (which preserves operand dtypes) while the
    vectorized path would promote, so bit-identity could be lost.
    """
    if isinstance(expr, (IntConst, FloatConst, VarRef, ParamRef)):
        return True
    if isinstance(expr, ArrayRef):
        return all(_index_expr_ok(i) for i in expr.indices)
    if isinstance(expr, BinOp):
        return _value_expr_ok(expr.lhs) and _value_expr_ok(expr.rhs)
    if isinstance(expr, UnaryOp):
        return _value_expr_ok(expr.operand)
    return False


def _loop_vars_in(root: Loop) -> set[str]:
    return {node.var for node in root.walk() if isinstance(node, Loop)}


def _screen_nest(root: Loop) -> bool:
    """True when the whole nest is made of plannable constructs."""
    for node in root.walk():
        if isinstance(node, Loop):
            if not (_bound_expr_ok(node.lower) and _bound_expr_ok(node.upper)):
                return False
        elif isinstance(node, Assign):
            if not isinstance(node.target, ArrayRef):
                return False  # scalar accumulators stay on the interpreter
            if not all(_index_expr_ok(i) for i in node.target.indices):
                return False
            if not _value_expr_ok(node.rhs):
                return False
        elif isinstance(node, Block):
            continue
        else:
            return False  # IfStmt, CallStmt, anything unknown
    return True


def _compute_enumerate_vars(root: Loop) -> Optional[dict[int, frozenset[str]]]:
    """Loop variables that deeper bounds reference, per original loop.

    Returns ``None`` when the analytical trace pass cannot handle the nest:
    a loop that must be enumerated (its variable appears in deeper bounds)
    must itself have parameter-only bounds, otherwise the enumeration would
    be ragged.
    """
    loop_vars = _loop_vars_in(root)
    result: dict[int, frozenset[str]] = {}

    def visit(loop: Loop) -> set[str]:
        used: set[str] = set()
        for child in loop.body.walk():
            if isinstance(child, Loop):
                used |= (child.lower.free_vars() | child.upper.free_vars()) & loop_vars
        result[id(loop)] = frozenset(used)
        return used

    for node in root.walk():
        if isinstance(node, Loop):
            needed = visit(node)
            if node.var in needed:
                own = (node.lower.free_vars() | node.upper.free_vars()) & loop_vars
                if own:
                    return None  # ragged enumeration — fall back
    return result


# ----------------------------------------------------------------------
# Access collection
# ----------------------------------------------------------------------


@dataclass
class _Accesses:
    """Array accesses of one plan subtree."""

    reads: dict[str, list[tuple[Expr, ...]]] = field(default_factory=dict)
    writes: dict[str, list[tuple[Expr, ...]]] = field(default_factory=dict)

    def add_read(self, name: str, indices: tuple[Expr, ...]) -> None:
        self.reads.setdefault(name, []).append(indices)

    def add_write(self, name: str, indices: tuple[Expr, ...]) -> None:
        self.writes.setdefault(name, []).append(indices)

    def all_accesses(self, name: str) -> list[tuple[Expr, ...]]:
        return self.reads.get(name, []) + self.writes.get(name, [])

    def touched(self) -> set[str]:
        return set(self.reads) | set(self.writes)


def _collect_accesses(node: PlanNode, acc: Optional[_Accesses] = None) -> _Accesses:
    acc = acc or _Accesses()
    if isinstance(node, PlanAssign):
        stmt = node.stmt
        target = stmt.target
        assert isinstance(target, ArrayRef)
        acc.add_write(target.name, target.indices)
        if stmt.reduction is not None:
            acc.add_read(target.name, target.indices)  # implicit load
        for sub in stmt.rhs.walk():
            if isinstance(sub, ArrayRef):
                acc.add_read(sub.name, sub.indices)
    else:
        for child in node.body:
            _collect_accesses(child, acc)
    return acc


# ----------------------------------------------------------------------
# Alignment tests
# ----------------------------------------------------------------------


def _aligned_dim(
    accesses: list[tuple[Expr, ...]],
    var: str,
    loop_vars: set[str],
    exclude_vars: set[str],
) -> bool:
    """True when a dimension separates *var* iterations for all accesses.

    The dimension must carry a syntactically identical index expression in
    every access, affine in *var* with a nonzero coefficient, and with zero
    coefficients for every variable in *exclude_vars* (the other vectorized
    variables — this keeps the joint write mapping injective).
    """
    ranks = {len(t) for t in accesses}
    if len(ranks) != 1:
        return False
    (rank,) = ranks
    for d in range(rank):
        first = accesses[0][d]
        if any(acc[d] != first for acc in accesses[1:]):
            continue
        free = first.free_vars()
        params = free - loop_vars
        affine = affine_from_expr(first, loop_vars, params)
        if affine is None or affine.coeff(var) == 0:
            continue
        if any(affine.coeff(other) != 0 for other in exclude_vars if other != var):
            continue
        return True
    return False


# ----------------------------------------------------------------------
# Loop distribution
# ----------------------------------------------------------------------


def _conflict(a: _Accesses, b: _Accesses, var: str, loop_vars: set[str]) -> bool:
    """Do two statement groups forbid distribution of the *var* loop?"""
    shared = a.touched() & b.touched()
    for name in shared:
        if name not in a.writes and name not in b.writes:
            continue  # read-read: never a conflict
        accesses = a.all_accesses(name) + b.all_accesses(name)
        if not _aligned_dim(accesses, var, loop_vars, set()):
            return True
    return False


def _independence_groups(
    items: list[PlanNode], var: str, loop_vars: set[str]
) -> list[list[PlanNode]]:
    """Partition a loop body into maximal distributable groups (in order)."""
    n = len(items)
    accs = [_collect_accesses(item) for item in items]
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if _conflict(accs[i], accs[j], var, loop_vars):
                parent[find(i)] = find(j)

    # Groups must be contiguous statement ranges: emitting an interleaved
    # group out of program order would hoist a statement above a
    # same-iteration producer it depends on (e.g. [S1, S2, S3] with S1~S3
    # conflicting and S3 reading what S2 writes).  Merge any groups whose
    # index intervals overlap until all groups are intervals.
    changed = True
    while changed:
        changed = False
        members: dict[int, list[int]] = {}
        for i in range(n):
            members.setdefault(find(i), []).append(i)
        intervals = sorted(
            (min(idxs), max(idxs), root) for root, idxs in members.items()
        )
        for (_, hi1, r1), (lo2, _, r2) in zip(intervals, intervals[1:]):
            if lo2 < hi1:  # interleaved
                parent[find(r1)] = find(r2)
                changed = True

    groups: dict[int, list[PlanNode]] = {}
    order: list[int] = []
    for i, item in enumerate(items):
        root = find(i)
        if root not in groups:
            groups[root] = []
            order.append(root)
        groups[root].append(item)
    return [groups[root] for root in order]


# ----------------------------------------------------------------------
# Plan construction
# ----------------------------------------------------------------------


def _flatten_body(block: Block) -> list[Stmt]:
    out: list[Stmt] = []
    for stmt in block.stmts:
        if isinstance(stmt, Block):
            out.extend(_flatten_body(stmt))
        else:
            out.append(stmt)
    return out


def _rewrite_loop(loop: Loop, loop_vars: set[str]) -> list[PlanLoop]:
    items: list[PlanNode] = []
    for stmt in _flatten_body(loop.body):
        if isinstance(stmt, Assign):
            items.append(PlanAssign(stmt))
        else:
            assert isinstance(stmt, Loop)
            items.extend(_rewrite_loop(stmt, loop_vars))
    groups = _independence_groups(items, loop.var, loop_vars)
    return [
        PlanLoop(loop.var, loop.lower, loop.upper, loop.step, body=group)
        for group in groups
    ]


def _vec_legal(node: PlanLoop, loop_vars: set[str], vec_names: set[str]) -> bool:
    acc = _collect_accesses(node)
    for name in acc.writes:
        accesses = acc.all_accesses(name)
        if not _aligned_dim(accesses, node.var, loop_vars, vec_names):
            return False
    return True


def _all_loops(items: list[PlanNode]) -> list[PlanLoop]:
    """Every loop of a plan subtree, in pre-order."""
    result = []
    for item in items:
        if isinstance(item, PlanLoop):
            result.append(item)
            result.extend(_all_loops(item.body))
    return result


def _demote_bound_deps(items: list[PlanNode], ancestors: list[PlanLoop]) -> bool:
    """Demote every vectorized loop whose variable a deeper bound reads."""
    changed = False
    for item in items:
        if not isinstance(item, PlanLoop):
            continue
        free = item.lower.free_vars() | item.upper.free_vars()
        for anc in ancestors:
            if anc.vec and anc.var in free:
                anc.vec = False
                changed = True
        changed |= _demote_bound_deps(item.body, ancestors + [item])
    return changed


def _record_vec_vars(items: list[PlanNode], stack: tuple[str, ...]) -> None:
    """Give each assignment the vectorized loop variables enclosing it."""
    for item in items:
        if isinstance(item, PlanAssign):
            item.vec_vars = stack
        else:
            child_stack = stack + (item.var,) if item.vec else stack
            _record_vec_vars(item.body, child_stack)


def _classify(nodes: list[PlanNode], loop_vars: set[str]) -> None:
    """Fixpoint VEC/SEQ classification over the plan tree."""
    loops = _all_loops(nodes)
    changed = True
    while changed:
        changed = _demote_bound_deps(nodes, [])
        vec_names = {loop.var for loop in loops if loop.vec}
        for loop in loops:
            if loop.vec and not _vec_legal(loop, loop_vars, vec_names):
                loop.vec = False
                changed = True
                vec_names = {l.var for l in loops if l.vec}
    _record_vec_vars(nodes, ())


# ----------------------------------------------------------------------
# Fold (exact slice) lowering analysis
# ----------------------------------------------------------------------


def _analyze_fold_ref(
    name: str,
    indices: tuple[Expr, ...],
    vec_vars: tuple[str, ...],
    loop_vars: set[str],
) -> tuple[Optional[FoldRef], str]:
    """Slice-lower one array reference, or explain why it cannot be."""
    dims: list[FoldDim] = []
    used: dict[str, int] = {}
    for idx in indices:
        free = idx.free_vars()
        affine = affine_from_expr(idx, loop_vars, free - loop_vars)
        if affine is None:
            return None, f"non-affine subscript in {name}"
        carriers = [v for v in vec_vars if affine.coeff(v) != 0]
        if len(carriers) > 1:
            return None, f"subscript of {name} couples vectorized axes"
        if not carriers:
            dims.append(FoldDim(kind="scalar", expr=idx))
            continue
        var = carriers[0]
        used[var] = used.get(var, 0) + 1
        if used[var] > 1:
            return None, f"diagonal subscript in {name}"
        dims.append(
            FoldDim(kind="slice", expr=idx, vec_var=var, coeff=affine.coeff(var))
        )
    return FoldRef(name=name, dims=tuple(dims)), ""


def _value_vars(expr: Expr) -> set[str]:
    """Variables *expr* reads as values (subscripts are not values)."""
    if isinstance(expr, (VarRef, ParamRef)):
        return {expr.name}
    if isinstance(expr, BinOp):
        return _value_vars(expr.lhs) | _value_vars(expr.rhs)
    if isinstance(expr, UnaryOp):
        return _value_vars(expr.operand)
    return set()


def analyze_fold_assign(
    node: PlanAssign, loop_vars: set[str]
) -> tuple[Optional[FoldSpec], str]:
    """Exact slice lowering of one planned assignment, or the reason why
    its nest must stay on the interpreter."""
    vec_vars = node.vec_vars
    if not vec_vars:
        return None, "statement has no vectorized axis"
    stmt = node.stmt
    target = stmt.target
    assert isinstance(target, ArrayRef)
    target_ref, reason = _analyze_fold_ref(
        target.name, target.indices, vec_vars, loop_vars
    )
    if target_ref is None:
        return None, reason
    # A vectorized variable would be an int64 array where the interpreter
    # has a Python int, and NumPy promotes the two differently (with a
    # float32 operand, to float64 instead of float32).
    read = sorted(_value_vars(stmt.rhs) & set(vec_vars))
    if read:
        return None, f"vectorized loop variable {read[0]} read as a value"
    covered = {d.vec_var for d in target_ref.dims if d.kind == "slice"}
    if covered != set(vec_vars):
        missing = sorted(set(vec_vars) - covered)
        return None, (
            f"target {target.name} does not carry vectorized axis "
            f"{', '.join(missing)}"
        )
    refs: dict[int, FoldRef] = {}
    for sub in stmt.rhs.walk():
        if not isinstance(sub, ArrayRef):
            continue
        ref, reason = _analyze_fold_ref(sub.name, sub.indices, vec_vars, loop_vars)
        if ref is None:
            return None, reason
        refs[id(sub)] = ref
    return FoldSpec(target=target_ref, refs=refs, vec_vars=vec_vars), ""


def _annotate_folds(nodes: list[PlanNode], loop_vars: set[str]) -> None:
    for node in nodes:
        if isinstance(node, PlanAssign):
            node.fold, node.fold_reason = analyze_fold_assign(node, loop_vars)
        else:
            _annotate_folds(node.body, loop_vars)


def plan_assigns(plan: NestPlan) -> list[PlanAssign]:
    """All planned assignments of a nest, in program order."""
    out: list[PlanAssign] = []
    pending: list[PlanNode] = list(reversed(plan.nodes))
    while pending:
        node = pending.pop()
        if isinstance(node, PlanAssign):
            out.append(node)
        else:
            pending.extend(reversed(node.body))
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def _screen_reason(root: Loop) -> str:
    """Why the structural screen rejected a nest (for the lowering report)."""
    for node in root.walk():
        if isinstance(node, Loop):
            if not (_bound_expr_ok(node.lower) and _bound_expr_ok(node.upper)):
                return f"loop {node.var} has a non-affine bound"
        elif isinstance(node, Assign):
            if not isinstance(node.target, ArrayRef):
                return f"scalar accumulator {node.target}"
            if not all(_index_expr_ok(i) for i in node.target.indices):
                return f"unsupported subscript on {node.target.name}"
            if not _value_expr_ok(node.rhs):
                return f"unsupported value expression in {node.name}"
        elif isinstance(node, Block):
            continue
        else:
            return f"unsupported statement ({type(node).__name__})"
    return "structural screen rejected the nest"


def build_plan_with_reason(root: Loop) -> tuple[Optional[NestPlan], str]:
    """Like :func:`build_plan`, but explains a ``None`` result."""
    if not _screen_nest(root):
        return None, _screen_reason(root)
    enumerate_vars = _compute_enumerate_vars(root)
    if enumerate_vars is None:
        return None, "ragged bound enumeration (analytical trace unavailable)"
    loop_vars = _loop_vars_in(root)
    nodes = _rewrite_loop(root, loop_vars)
    _classify(nodes, loop_vars)
    plan = NestPlan(root=root, nodes=nodes, enumerate_vars=enumerate_vars)
    if not plan.has_vectorized_loop:
        return None, "no vectorizable axis"
    _annotate_folds(nodes, loop_vars)
    return plan, ""


def build_plan(root: Loop) -> Optional[NestPlan]:
    """Build the execution plan for a top-level loop nest.

    Returns ``None`` when the nest cannot be vectorized (the engine then
    falls back to the interpreter for this nest).
    """
    plan, _ = build_plan_with_reason(root)
    return plan
