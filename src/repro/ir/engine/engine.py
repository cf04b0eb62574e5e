"""The vectorized execution engine.

:class:`VectorizedEngine` is a drop-in replacement for the reference
:class:`~repro.ir.interp.Interpreter`: same constructor, same ``run``
contract, same :class:`~repro.ir.interp.ExecutionTrace`, same call-handler
protocol.  Top-level loop nests that pass the vectorization analysis are
executed as NumPy array operations; everything else (runtime calls,
data-dependent control flow, scalar accumulators, non-affine subscripts)
falls back — per statement — to the inherited interpreter.

Bit-identity with the interpreter is preserved by construction:

* vectorized loops only ever map *parallel* axes to array dimensions;
  reduction loops stay sequential, so every array element sees the exact
  same sequence of arithmetic operations in the exact same order;
* expressions are evaluated with the same NumPy scalar-promotion rules the
  interpreter hits element by element (NEP 50 value-independent promotion);
* the execution trace is computed analytically from trip counts, applying
  the same per-execution increments the interpreter applies dynamically.

The default ``fold`` mode (engine ``"fast"``) additionally executes
slice-lowerable assignments through basic NumPy views instead of
broadcast index-grid gathers: sequential reduction loops become ordered
folds of vectorized slice updates.  Per element this performs the exact
same operations in the exact same order as the interpreter — the fold
path changes only how operands are *materialized* (views instead of
gathered copies), so results stay bit-identical while the per-iteration
constant cost drops sharply.  A runtime guard falls back to the gather
path whenever a computed slice would leave the array bounds (negative
indices wrap element-wise in NumPy, slices do not — the gather path
preserves the interpreter's wrapping semantics exactly).
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

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
from repro.ir.interp import (
    CallHandler,
    Interpreter,
    InterpreterError,
    compile_expr,
)
from repro.ir.program import Program
from repro.ir.stmt import Assign, Block, Loop, Stmt
from repro.ir.engine.analysis import (
    FoldRef,
    FoldSpec,
    NestPlan,
    PlanAssign,
    PlanNode,
    build_plan,
)

_UNSET = object()


# ----------------------------------------------------------------------
# Vectorized expression compilation
# ----------------------------------------------------------------------


def _as_index(value):
    """Normalise one subscript, matching the interpreter's ``int()`` cast.

    Scalars become ints; arrays that picked up a float dtype (a float
    parameter mixed into the index arithmetic) are truncated toward zero,
    exactly like ``int()`` element by element.
    """
    if isinstance(value, np.ndarray):
        if not np.issubdtype(value.dtype, np.integer):
            value = np.trunc(value).astype(np.int64)
        return value
    return int(value)


def compile_vec_expr(
    expr: Expr, vec_vars: frozenset[str]
) -> Callable[[dict, dict, dict], object]:
    """Compile an expression into ``fn(scalars, arrays, venv)``.

    ``venv`` maps vectorized loop variables to broadcast-shaped index
    arrays; all other variables resolve through ``scalars`` exactly like
    the interpreter.
    """
    if isinstance(expr, (IntConst, FloatConst)):
        value = expr.value
        return lambda s, a, v: value
    if isinstance(expr, (VarRef, ParamRef)):
        name = expr.name
        if name in vec_vars:
            return lambda s, a, v, _n=name: v[_n]

        def eval_var(s, a, v, _n=name):
            try:
                return s[_n]
            except KeyError as exc:
                raise InterpreterError(f"unbound variable {_n!r}") from exc

        return eval_var
    if isinstance(expr, ArrayRef):
        name = expr.name
        index_fns = tuple(compile_vec_expr(i, vec_vars) for i in expr.indices)

        def eval_ref(s, a, v, _n=name, _fns=index_fns):
            array = a.get(_n)
            if array is None:
                raise InterpreterError(f"unbound array {_n!r}")
            return array[tuple(_as_index(fn(s, a, v)) for fn in _fns)]

        return eval_ref
    if isinstance(expr, BinOp):
        lhs = compile_vec_expr(expr.lhs, vec_vars)
        rhs = compile_vec_expr(expr.rhs, vec_vars)
        op = expr.op
        if op == "+":
            return lambda s, a, v: lhs(s, a, v) + rhs(s, a, v)
        if op == "-":
            return lambda s, a, v: lhs(s, a, v) - rhs(s, a, v)
        if op == "*":
            return lambda s, a, v: lhs(s, a, v) * rhs(s, a, v)
        if op == "/":
            return lambda s, a, v: lhs(s, a, v) / rhs(s, a, v)
        if op == "%":
            return lambda s, a, v: lhs(s, a, v) % rhs(s, a, v)
        raise InterpreterError(f"unknown operator {op!r}")
    if isinstance(expr, UnaryOp):
        operand = compile_vec_expr(expr.operand, vec_vars)
        return lambda s, a, v: -operand(s, a, v)
    if isinstance(expr, (Min, Max)):
        # Only reachable from (integer) index expressions, where NumPy's
        # minimum/maximum agree exactly with Python's min/max.
        lhs = compile_vec_expr(expr.lhs, vec_vars)
        rhs = compile_vec_expr(expr.rhs, vec_vars)
        pick = np.minimum if isinstance(expr, Min) else np.maximum
        py_pick = min if isinstance(expr, Min) else max

        def eval_minmax(s, a, v, _pick=pick, _py=py_pick):
            left = lhs(s, a, v)
            right = rhs(s, a, v)
            if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
                return _pick(left, right)
            return _py(left, right)

        return eval_minmax
    raise InterpreterError(f"cannot evaluate expression {expr!r}")


@dataclass
class _VecAssign:
    """Compiled vectorized form of one planned assignment."""

    rhs_fn: Callable
    index_fns: tuple
    target_name: str
    reduction: Optional[str]


@dataclass
class _VecFrame:
    """One open vectorized loop during plan execution."""

    var: str
    values: np.ndarray
    lower: int
    upper: int
    step: int


# ----------------------------------------------------------------------
# Fold (exact slice) compilation
# ----------------------------------------------------------------------


class _FoldBail(Exception):
    """Raised when a slice-lowered access cannot run exactly at runtime
    (out-of-bounds slice, non-integer offset); the engine retries the
    assignment through the gather path, which matches the interpreter's
    element-wise semantics including negative-index wrapping."""


def _compile_fold_ref(
    ref: FoldRef, vec_vars: tuple[str, ...]
) -> Callable[[dict, dict, list, ChainMap], object]:
    """Compile one slice-lowered array reference into a view getter.

    The returned callable produces a view of the array whose axes follow
    the engine's broadcast convention (one axis per vectorized frame, in
    stack order, size one for frames this reference does not use).
    """
    total = len(vec_vars)
    entries = []  # per dim: (is_slice, offset_fn, coeff, frame_pos)
    used_positions = []
    for dim in ref.dims:
        fn = compile_expr(dim.expr)
        if dim.kind == "scalar":
            entries.append((False, fn, 0, 0))
        else:
            pos = vec_vars.index(dim.vec_var)
            used_positions.append(pos)
            entries.append((True, fn, dim.coeff, pos))
    rank = len(entries)
    # Static axis bookkeeping: after basic indexing the view's axes are the
    # slice dimensions in array order; transpose them into frame order and
    # insert size-one axes for unused frames.
    perm = tuple(
        sorted(range(len(used_positions)), key=lambda ax: used_positions[ax])
    )
    transpose = perm if perm != tuple(range(len(perm))) else None
    used = set(used_positions)
    expander = (
        tuple(slice(None) if pos in used else None for pos in range(total))
        if len(used) < total
        else None
    )
    name = ref.name

    def get(scalars, arrays, frames, overlay):
        array = arrays.get(name)
        if array is None:
            raise InterpreterError(f"unbound array {name!r}")
        shape = array.shape
        if len(shape) != rank:
            raise _FoldBail
        key = []
        for axis, (is_slice, fn, coeff, pos) in enumerate(entries):
            value = fn(overlay, arrays)
            if not is_slice:
                key.append(int(value))
                continue
            if not isinstance(value, (int, np.integer)):
                raise _FoldBail  # non-integer offset: int() per element differs
            offset = int(value)
            frame = frames[pos]
            count = frame.values.shape[0]
            start = coeff * frame.lower + offset
            stride = coeff * frame.step
            last = start + (count - 1) * stride
            low, high = (start, last) if stride > 0 else (last, start)
            if low < 0 or high >= shape[axis]:
                raise _FoldBail  # gather path preserves wrap/raise semantics
            if stride > 0:
                stop = last + 1
            else:
                stop = last - 1 if last > 0 else None
            key.append(slice(start, stop, stride))
        view = array[tuple(key)]
        if transpose is not None:
            view = view.transpose(transpose)
        if expander is not None:
            view = view[expander]
        return view

    return get


def _compile_fold_expr(
    expr: Expr, spec: FoldSpec
) -> Callable[[dict, dict, list, ChainMap], object]:
    """Compile a right-hand side for fold execution.

    Mirrors :func:`compile_vec_expr` node for node — same operators, same
    NumPy promotion — but array references become slice views and
    vectorized variables become reshaped frame-value arrays, so the
    element-wise arithmetic (and therefore every result bit) is unchanged.
    """
    vec_vars = spec.vec_vars
    if isinstance(expr, (IntConst, FloatConst)):
        value = expr.value
        return lambda s, a, f, o: value
    if isinstance(expr, (VarRef, ParamRef)):
        name = expr.name
        if name in vec_vars:
            pos = vec_vars.index(name)
            shape_suffix = (1,) * (len(vec_vars) - pos - 1)

            def eval_vec_var(s, a, f, o, _pos=pos, _suffix=shape_suffix):
                values = f[_pos].values
                return values.reshape((1,) * _pos + (-1,) + _suffix)

            return eval_vec_var

        def eval_var(s, a, f, o, _n=name):
            try:
                return s[_n]
            except KeyError as exc:
                raise InterpreterError(f"unbound variable {_n!r}") from exc

        return eval_var
    if isinstance(expr, ArrayRef):
        ref = spec.refs[id(expr)]
        return _compile_fold_ref(ref, vec_vars)
    if isinstance(expr, BinOp):
        lhs = _compile_fold_expr(expr.lhs, spec)
        rhs = _compile_fold_expr(expr.rhs, spec)
        op = expr.op
        if op == "+":
            return lambda s, a, f, o: lhs(s, a, f, o) + rhs(s, a, f, o)
        if op == "-":
            return lambda s, a, f, o: lhs(s, a, f, o) - rhs(s, a, f, o)
        if op == "*":
            return lambda s, a, f, o: lhs(s, a, f, o) * rhs(s, a, f, o)
        if op == "/":
            return lambda s, a, f, o: lhs(s, a, f, o) / rhs(s, a, f, o)
        if op == "%":
            return lambda s, a, f, o: lhs(s, a, f, o) % rhs(s, a, f, o)
        raise InterpreterError(f"unknown operator {op!r}")
    if isinstance(expr, UnaryOp):
        operand = _compile_fold_expr(expr.operand, spec)
        return lambda s, a, f, o: -operand(s, a, f, o)
    raise InterpreterError(f"cannot evaluate expression {expr!r}")


@dataclass
class _FoldAssign:
    """Compiled fold (slice) form of one planned assignment."""

    rhs_fn: Callable
    target_fn: Callable
    reduction: Optional[str]
    #: Zero bindings for every vectorized variable: evaluating an affine
    #: index with the vectorized variables at zero yields its offset.
    zeros: dict


# ----------------------------------------------------------------------
# Analytical bound evaluation (integers and integer arrays)
# ----------------------------------------------------------------------


def _eval_bound(expr: Expr, env: dict, scalars: dict):
    if isinstance(expr, IntConst):
        return expr.value
    if isinstance(expr, FloatConst):
        return expr.value
    if isinstance(expr, (VarRef, ParamRef)):
        name = expr.name
        if name in env:
            return env[name]
        try:
            return scalars[name]
        except KeyError as exc:
            raise InterpreterError(f"unbound variable {name!r}") from exc
    if isinstance(expr, BinOp):
        lhs = _eval_bound(expr.lhs, env, scalars)
        rhs = _eval_bound(expr.rhs, env, scalars)
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        if expr.op == "%":
            return lhs % rhs
        raise InterpreterError(f"unsupported bound operator {expr.op!r}")
    if isinstance(expr, UnaryOp):
        return -_eval_bound(expr.operand, env, scalars)
    if isinstance(expr, (Min, Max)):
        lhs = _eval_bound(expr.lhs, env, scalars)
        rhs = _eval_bound(expr.rhs, env, scalars)
        if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
            return np.minimum(lhs, rhs) if isinstance(expr, Min) else np.maximum(lhs, rhs)
        return min(lhs, rhs) if isinstance(expr, Min) else max(lhs, rhs)
    raise InterpreterError(f"cannot evaluate bound {expr!r}")


def _as_int_bound(value):
    """Truncate toward zero, matching the interpreter's ``int()`` cast."""
    if isinstance(value, np.ndarray):
        if not np.issubdtype(value.dtype, np.integer):
            value = np.trunc(value).astype(np.int64)
        return value
    return int(value)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class VectorizedEngine(Interpreter):
    """Interpreter subclass that compiles loop nests to NumPy kernels."""

    def __init__(
        self,
        program: Program,
        call_handler: Optional[CallHandler] = None,
        fold: bool = False,
    ):
        super().__init__(program, call_handler)
        self.fold = fold
        self._nest_plans: dict[int, Optional[NestPlan]] = {}
        self._vec_assigns: dict[int, _VecAssign] = {}
        self._fold_assigns: dict[int, Optional[_FoldAssign]] = {}
        self._vec_stack: list[_VecFrame] = []

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def nest_plan(self, loop: Loop) -> Optional[NestPlan]:
        """The (cached) vectorization plan for a loop nest, or ``None``."""
        plan = self._nest_plans.get(id(loop), _UNSET)
        if plan is _UNSET:
            try:
                plan = build_plan(loop)
            except Exception:
                plan = None  # analysis failure → safe interpreter fallback
            self._nest_plans[id(loop)] = plan
        return plan

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------
    def _exec_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Loop):
            plan = self.nest_plan(stmt)
            if plan is not None:
                self._account_nest(plan)
                self._exec_planned_nest(plan)
                return
        super()._exec_stmt(stmt)

    def _exec_planned_nest(self, plan: NestPlan) -> None:
        """Execute one planned (already accounted) nest.

        Subclasses may override to dispatch the nest elsewhere; calling
        ``super()`` runs the Python plan without touching accounting, so
        an override can fall back here safely.
        """
        saved_stack = self._vec_stack
        self._vec_stack = []
        try:
            for node in plan.nodes:
                self._exec_plan_node(node)
        finally:
            self._vec_stack = saved_stack

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------
    def _exec_plan_node(self, node: PlanNode) -> None:
        if isinstance(node, PlanAssign):
            self._exec_plan_assign(node)
            return
        if node.lower_fn is None:
            node.lower_fn = compile_expr(node.lower)
            node.upper_fn = compile_expr(node.upper)
        lower = int(node.lower_fn(self.scalars, self.arrays))
        upper = int(node.upper_fn(self.scalars, self.arrays))
        if upper <= lower:
            return
        if node.vec:
            values = np.arange(lower, upper, node.step)
            self._vec_stack.append(_VecFrame(node.var, values, lower, upper, node.step))
            try:
                for child in node.body:
                    self._exec_plan_node(child)
            finally:
                self._vec_stack.pop()
            return
        saved = self.scalars.get(node.var)
        scalars = self.scalars
        for value in range(lower, upper, node.step):
            scalars[node.var] = value
            for child in node.body:
                self._exec_plan_node(child)
        if saved is None:
            scalars.pop(node.var, None)
        else:
            scalars[node.var] = saved

    def _vec_env(self) -> dict[str, np.ndarray]:
        total = len(self._vec_stack)
        env: dict[str, np.ndarray] = {}
        for pos, frame in enumerate(self._vec_stack):
            env[frame.var] = frame.values.reshape(
                (1,) * pos + (-1,) + (1,) * (total - pos - 1)
            )
        return env

    def _compile_vec_assign(self, node: PlanAssign) -> _VecAssign:
        compiled = self._vec_assigns.get(id(node))
        if compiled is None:
            stmt = node.stmt
            target = stmt.target
            assert isinstance(target, ArrayRef)
            vec_vars = frozenset(node.vec_vars)
            compiled = _VecAssign(
                rhs_fn=compile_vec_expr(stmt.rhs, vec_vars),
                index_fns=tuple(
                    compile_vec_expr(i, vec_vars) for i in target.indices
                ),
                target_name=target.name,
                reduction=stmt.reduction,
            )
            self._vec_assigns[id(node)] = compiled
        return compiled

    def _exec_plan_assign(self, node: PlanAssign) -> None:
        if self.fold and node.fold is not None:
            compiled = self._fold_assigns.get(id(node), _UNSET)
            if compiled is _UNSET:
                compiled = self._compile_fold_assign(node)
                self._fold_assigns[id(node)] = compiled
            if compiled is not None:
                try:
                    self._exec_fold_assign(compiled)
                    return
                except _FoldBail:
                    pass  # gather path below: interpreter-exact semantics
        compiled = self._compile_vec_assign(node)
        scalars = self.scalars
        arrays = self.arrays
        venv = self._vec_env()
        value = compiled.rhs_fn(scalars, arrays, venv)
        idx = tuple(_as_index(fn(scalars, arrays, venv)) for fn in compiled.index_fns)
        array = arrays[compiled.target_name]
        if compiled.reduction == "+":
            array[idx] += value
        elif compiled.reduction == "*":
            array[idx] *= value
        else:
            array[idx] = value

    # ------------------------------------------------------------------
    # Fold (exact slice) execution
    # ------------------------------------------------------------------
    def _compile_fold_assign(self, node: PlanAssign) -> Optional[_FoldAssign]:
        spec = node.fold
        assert spec is not None
        try:
            return _FoldAssign(
                rhs_fn=_compile_fold_expr(node.stmt.rhs, spec),
                target_fn=_compile_fold_ref(spec.target, spec.vec_vars),
                reduction=node.stmt.reduction,
                zeros={var: 0 for var in spec.vec_vars},
            )
        except InterpreterError:
            return None  # unsupported node slipped through: gather path

    def _exec_fold_assign(self, compiled: _FoldAssign) -> None:
        scalars = self.scalars
        arrays = self.arrays
        frames = self._vec_stack
        overlay = ChainMap(compiled.zeros, scalars)
        view = compiled.target_fn(scalars, arrays, frames, overlay)
        value = compiled.rhs_fn(scalars, arrays, frames, overlay)
        if compiled.reduction == "+":
            view += value
        elif compiled.reduction == "*":
            view *= value
        else:
            view[...] = value

    # ------------------------------------------------------------------
    # Analytical trace accounting
    # ------------------------------------------------------------------
    def _account_nest(self, plan: NestPlan) -> None:
        """Apply the exact trace increments of interpreting *plan.root*.

        Works on the *original* (undistributed) nest so loop-iteration and
        statement counts match the interpreter to the last integer, using
        trip counts instead of per-element updates.  Loops whose variables
        appear in deeper bounds are enumerated as integer grids, so
        triangular/tiled (min/max) bounds are also counted exactly.
        """
        self._trace_stmt(plan.root, {}, 1, plan.enumerate_vars)

    def _trace_stmt(self, stmt: Stmt, env: dict, mult, enum_vars: dict) -> None:
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                self._trace_stmt(child, env, mult, enum_vars)
        elif isinstance(stmt, Loop):
            self._trace_loop(stmt, env, mult, enum_vars)
        elif isinstance(stmt, Assign):
            plan = self._assign_plan(stmt)
            total = int(np.sum(mult)) if isinstance(mult, np.ndarray) else int(mult)
            if total <= 0:
                return
            trace = self.trace
            trace.statements_executed += total
            trace.flops += plan.d_flops * total
            trace.int_ops += plan.d_int_ops * total
            trace.loads += plan.d_loads * total
            trace.stores += plan.d_stores * total
        else:  # pragma: no cover - screened out at plan time
            raise InterpreterError(f"cannot account statement {stmt!r}")

    def _trace_loop(self, loop: Loop, env: dict, mult, enum_vars: dict) -> None:
        lower = _as_int_bound(_eval_bound(loop.lower, env, self.scalars))
        upper = _as_int_bound(_eval_bound(loop.upper, env, self.scalars))
        step = loop.step
        if isinstance(lower, np.ndarray) or isinstance(upper, np.ndarray):
            trips = np.maximum((upper - lower + (step - 1)) // step, 0)
        else:
            trips = max(0, (upper - lower + step - 1) // step)
        iter_total = mult * trips
        total = int(np.sum(iter_total)) if isinstance(iter_total, np.ndarray) else int(
            iter_total
        )
        trace = self.trace
        trace.loop_iterations += total
        trace.branches += total
        trace.int_ops += total  # induction-variable increments
        if total == 0:
            return
        if loop.var in enum_vars[id(loop)]:
            # Bounds are parameter-only here (checked at plan time), so the
            # enumeration axis is rectangular.  Children execute once per
            # enumerated value, so the multiplier grows an explicit axis of
            # ones — a direct Assign child then sums to mult * trips, and a
            # nested loop multiplies its own (possibly value-dependent)
            # trip counts on top.
            values = np.arange(lower, upper, step)
            child_env = {
                name: arr.reshape(arr.shape + (1,)) for name, arr in env.items()
            }
            child_env[loop.var] = values
            per_value = np.ones(values.shape, dtype=np.int64)
            if isinstance(mult, np.ndarray):
                child_mult = mult.reshape(mult.shape + (1,)) * per_value
            else:
                child_mult = mult * per_value
            for child in loop.body.stmts:
                self._trace_stmt(child, child_env, child_mult, enum_vars)
        else:
            for child in loop.body.stmts:
                self._trace_stmt(child, env, iter_total, enum_vars)
