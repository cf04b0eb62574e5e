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

The default ``fold`` mode (engine ``"fast"``) compiles a planned nest
further: when every assignment is slice-lowerable the whole nest is
emitted, once, as one straight-line Python function
(:class:`NestKernel`) — sequential loops are ``for`` statements, each
assignment is one ``view op= expression`` line over basic NumPy slices,
and what does not change inside a loop is taken outside it.  Per element
this performs the exact same operations in the exact same order as the
interpreter — only how operands are *materialized* changes (views
instead of gathered copies) — so results stay bit-identical.  The
function opens with a guard that proves, before anything is written,
that every view it is about to take lies inside its array; when it does
not (negative indices wrap element-wise in NumPy, slices do not), the
nest runs on the gather path, which preserves the interpreter's wrapping
and ``IndexError`` semantics exactly.

Plans and kernels are pure functions of the program, so they are built
once per :class:`~repro.ir.program.Program` (:class:`ProgramPlans`, kept
on ``Program.engine_plans``) and shared by every engine instance that
runs it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
    PlanLoop,
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
    """One open vectorized loop while a plan runs on the gather path."""

    var: str
    values: np.ndarray


# ----------------------------------------------------------------------
# Fold (exact slice) lowering: one emitted Python function per nest
# ----------------------------------------------------------------------


class _NotEmittable(Exception):
    """The nest has a shape the emitter does not lower (gather path)."""


@dataclass
class NestKernel:
    """One planned nest lowered to a straight-line Python function.

    ``fn(*arrays, *scalars)`` runs a guard over the loop skeleton first:
    every view the body takes must be a basic slice (or integer index)
    inside ``[0, shape)`` of an array of the expected rank, and every
    scalar a bound or subscript reads must be an integer.  It returns
    ``False`` *before writing anything* when the guard trips; otherwise
    it runs the body and returns ``True``.  ``source`` is kept for
    inspection; it names arrays, scalars and loop variables by generated
    locals only, never by an identifier of the input program.
    """

    source: str
    fn: Callable[..., bool]
    arrays: tuple[str, ...]
    scalars: tuple[str, ...]

    def run(self, scalars: dict, arrays: dict) -> bool:
        try:
            args = [arrays[name] for name in self.arrays]
            args += [scalars[name] for name in self.scalars]
        except KeyError:
            return False  # unbound name: the gather path raises for it
        return self.fn(*args)


def _ends(span: range):
    """First and last value of *span*: where a guard that is affine in
    the loop variable takes its extremes."""
    return {span[0], span[-1]} if span else ()


def _bounds_read(nodes: list[PlanNode], var: str) -> bool:
    """Does a loop bound below *nodes* depend on *var*?"""
    return any(
        isinstance(node, PlanLoop)
        and (
            var in node.lower.free_vars() | node.upper.free_vars()
            or _bounds_read(node.body, var)
        )
        for node in nodes
    )


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines or ["pass"]]


@dataclass
class _Scope:
    """One block of the emitted function (the function itself or a loop
    body): the locals it introduces, the views hoisted to it and the
    conditions under which those views are exact."""

    names: frozenset = frozenset()
    views: dict[str, str] = field(default_factory=dict)  # text -> local
    guards: dict[str, None] = field(default_factory=dict)  # ordered set


class _KernelEmitter:
    """Emits the :class:`NestKernel` of one plan.

    The plan tree is walked once, producing the guard pass and the body
    pass over the same loop skeleton.  A view (and its guard) is placed
    in the outermost block that defines everything its subscripts read,
    so what does not change in a sequential loop is computed outside it.
    In the guard pass a sequential loop whose variable no deeper bound
    reads visits only its first and last iteration: the subscripts are
    affine in it, so the extremes are there.
    """

    def __init__(self) -> None:
        self.arrays: dict[str, str] = {}  # source array -> local
        self.scalars: dict[str, str] = {}  # source scalar -> local
        self.consts: dict[str, object] = {}  # local -> bound constant
        self.seq: dict[str, str] = {}  # sequential loop variable -> local
        #: vectorized loop variable -> (first value, last value, step)
        self.frames: dict[str, tuple[str, str, int]] = {}
        self.scopes: list[_Scope] = []
        self.used: set[str] = set()  # locals read by the view being built
        self.serial = itertools.count(1)

    # -- expressions ------------------------------------------------------
    def expr(self, node: Expr, spec: Optional[FoldSpec] = None) -> str:
        """Python text of *node*.

        Without *spec* it is a bound or a subscript offset: integer
        arithmetic in which the vectorized variables read 0.  With it, a
        right-hand side over views: same operators and operand types as
        the interpreter sees, so NumPy promotes identically.
        """
        if isinstance(node, (IntConst, FloatConst)):
            if type(node.value) is int:
                return repr(node.value)
            local = f"c{len(self.consts)}"
            self.consts[local] = node.value
            return local
        if isinstance(node, (VarRef, ParamRef)):
            return self.name(node.name, spec)
        if isinstance(node, ArrayRef) and spec is not None:
            return self.view(spec.refs[id(node)], spec)
        if isinstance(node, UnaryOp):
            return f"(-{self.expr(node.operand, spec)})"
        if isinstance(node, (Min, Max)):
            pick = "min" if isinstance(node, Min) else "max"
            return f"{pick}({self.expr(node.lhs, spec)}, {self.expr(node.rhs, spec)})"
        if isinstance(node, BinOp) and node.op in ("+", "-", "*", "/", "%"):
            return f"({self.expr(node.lhs, spec)} {node.op} {self.expr(node.rhs, spec)})"
        raise _NotEmittable(f"expression {node!r}")

    def name(self, name: str, spec: Optional[FoldSpec]) -> str:
        if name in self.frames:
            if spec is None:
                return "0"
            first, last, step = self.frames[name]
            shape = ["1"] * len(spec.vec_vars)
            shape[spec.vec_vars.index(name)] = "-1"
            self.used = {first, last}
            return self.hoist(
                f"arange({first}, {last} + 1, {step}).reshape({', '.join(shape)})"
            )
        local = self.seq.get(name)
        if local is None:
            local = self.scalars.setdefault(name, f"p{len(self.scalars)}")
            if spec is None:  # the interpreter would truncate a float
                self.scopes[0].guards[f"isinstance({local}, ints)"] = None
        self.used.add(local)
        return local

    def view(self, ref: FoldRef, spec: FoldSpec) -> str:
        """A local holding the view of *ref*: one axis per vectorized
        frame, in frame order, size one for frames it does not use."""
        array = self.arrays.setdefault(ref.name, f"a{len(self.arrays)}")
        self.scopes[0].guards[f"{array}.ndim == {len(ref.dims)}"] = None
        self.used = set()
        sliced = {d.vec_var for d in ref.dims if d.kind == "slice"}
        free = [pos for pos, var in enumerate(spec.vec_vars) if var not in sliced]
        key, guards, axes = [], [], []  # axes: frame position per view axis
        for axis, dim in enumerate(ref.dims):
            offset, extent = self.expr(dim.expr), f"{array}.shape[{axis}]"
            if dim.kind == "scalar":
                key.append(offset)
                guards.append(f"0 <= {offset} < {extent}")
                continue
            first, last, step = self.frames[dim.vec_var]
            self.used |= {first, last}
            lo, hi = (
                (end if dim.coeff == 1 else f"{dim.coeff} * {end}")
                + ("" if offset == "0" else f" + {offset}")
                for end in (first, last)
            )
            stride = "" if dim.coeff * step == 1 else f":{dim.coeff * step}"
            if dim.coeff > 0:
                guards.append(f"0 <= {lo} and {hi} < {extent}")
                text = f"{lo}:{hi} + 1{stride}"
            else:  # reversed: a slice cannot name "stop before index 0"
                guards.append(f"0 <= {hi} and {lo} < {extent}")
                text = f"{lo}:({hi} - 1 if {hi} else None){stride}"
            pos = spec.vec_vars.index(dim.vec_var)
            while free and free[0] < pos:
                key.append("None")
                axes.append(free.pop(0))
            key.append(text)
            axes.append(pos)
        key += ["None"] * len(free)
        axes += free
        text = f"{array}[{', '.join(key)}]"
        if axes != sorted(axes):
            text += f".transpose({sorted(axes, key=axes.__getitem__)})"
        return self.hoist(text, guards)

    def hoist(self, text: str, guards=()) -> str:
        scope = next(
            (s for s in reversed(self.scopes) if s.names & self.used),
            self.scopes[0],
        )
        scope.guards.update(dict.fromkeys(guards))
        if text not in scope.views:
            scope.views[text] = f"v{next(self.serial)}"
        return scope.views[text]

    # -- statements -------------------------------------------------------
    def block(self, nodes: list[PlanNode], names=()) -> tuple[list[str], list[str]]:
        """(guard lines, body lines) of one block, indented."""
        scope = _Scope(frozenset(names))
        self.scopes.append(scope)
        parts = [self.node(node) for node in nodes]
        self.scopes.pop()
        guard = [line for part in parts for line in part[0]]
        if scope.guards:
            guard.insert(0, f"if not ({' and '.join(scope.guards)}): return False")
        body = [f"{local} = {text}" for text, local in scope.views.items()]
        body += [line for part in parts for line in part[1]]
        return _indent(guard), _indent(body)

    def node(self, node: PlanNode) -> tuple[list[str], list[str]]:
        """(guard lines, body lines) of one plan node."""
        if isinstance(node, PlanLoop):
            return self.loop(node)
        spec = node.fold
        if spec is None:
            raise _NotEmittable(node.fold_reason)
        target = self.view(spec.target, spec)
        value = self.expr(node.stmt.rhs, spec)
        if node.stmt.reduction in ("+", "*"):
            return [], [f"{target} {node.stmt.reduction}= {value}"]
        return [], [f"{target}[...] = {value}"]

    def loop(self, node: PlanLoop) -> tuple[list[str], list[str]]:
        if node.var in self.seq or node.var in self.frames:
            raise _NotEmittable(f"loop variable {node.var} is shadowed")
        lower, upper, step = self.expr(node.lower), self.expr(node.upper), node.step
        if node.vec:
            first, last = (f"{prefix}{next(self.serial)}" for prefix in "lm")
            bound, names = self.frames, (first, last)
            bound[node.var] = (first, last, step)
            head = guard_head = [
                f"{first} = {lower}",
                f"{last} = {upper} - 1"
                if step == 1
                else f"{last} = {first} + ({upper} - {first} - 1) // {step} * {step}",
                f"if {last} >= {first}:",
            ]
        else:
            local = f"i{next(self.serial)}"
            bound, names = self.seq, (local,)
            bound[node.var] = local
            span = f"range({lower}, {upper}, {step})"
            head = [f"for {local} in {span}:"]
            corners = span if _bounds_read(node.body, node.var) else f"ends({span})"
            guard_head = [f"for {local} in {corners}:"]
        guard, body = self.block(node.body, names)
        del bound[node.var]
        return guard_head + guard, head + body

    def emit(self, plan: NestPlan) -> NestKernel:
        guard, body = self.block(plan.nodes)
        params = [*self.arrays.values(), *self.scalars.values()]
        lines = [f"def kernel({', '.join(params)}):", *guard, *body, "    return True", ""]
        source = "\n".join(lines)
        namespace = {
            "arange": np.arange,
            "ends": _ends,
            "ints": (int, np.integer),
            **self.consts,
        }
        exec(compile(source, "<nest kernel>", "exec"), namespace)
        return NestKernel(
            source, namespace["kernel"], tuple(self.arrays), tuple(self.scalars)
        )


def emit_kernel(plan: NestPlan) -> Optional[NestKernel]:
    """Lower *plan* to its :class:`NestKernel`; ``None`` when an
    assignment has no :class:`FoldSpec` or the emitter refuses a shape."""
    try:
        return _KernelEmitter().emit(plan)
    except (_NotEmittable, SyntaxError):
        return None


# ----------------------------------------------------------------------
# Analytical bound evaluation (integers and integer arrays)
# ----------------------------------------------------------------------


def _eval_bound(expr: Expr, env: dict, scalars: dict):
    """A loop bound with the enumerated loop variables of *env* as integer
    arrays: the gather path's expression semantics and its ``int()``
    truncation, applied to bounds."""
    return _as_index(compile_vec_expr(expr, frozenset(env))(scalars, {}, env))


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


@dataclass
class ProgramPlans:
    """Everything the engines derive from one program, and nothing that
    depends on a run: each entry is a pure function of a statement and is
    built the first time that statement executes.  One instance hangs on
    ``Program.engine_plans`` and is shared by every engine that runs the
    program, so a long-lived executor or server plans a kernel once.
    Entries are keyed on statement identity — a program edited in place
    after it has run must be cloned (a copy starts without plans).
    """

    nests: dict[int, Optional[NestPlan]] = field(default_factory=dict)
    vec_assigns: dict[int, _VecAssign] = field(default_factory=dict)
    #: The interpreter's ``_assign_plans``: they hold the per-execution
    #: trace deltas the analytical trace multiplies.
    assigns: dict = field(default_factory=dict)
    #: ``NativeEngine``'s compiled C nests.
    native: dict = field(default_factory=dict)


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
        if program.engine_plans is None:
            program.engine_plans = ProgramPlans()
        self.plans: ProgramPlans = program.engine_plans
        self._assign_plans = self.plans.assigns
        self._vec_stack: list[_VecFrame] = []

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def nest_plan(self, loop: Loop) -> Optional[NestPlan]:
        """The program's plan for a loop nest (built once), or ``None``."""
        plan = self.plans.nests.get(id(loop), _UNSET)
        if plan is _UNSET:
            try:
                plan = build_plan(loop)
            except Exception:
                plan = None  # analysis failure → safe interpreter fallback
            if plan is not None:
                plan.kernel = emit_kernel(plan)
            self.plans.nests[id(loop)] = plan
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
        if self.fold and plan.kernel is not None:
            if plan.kernel.run(self.scalars, self.arrays):
                return
        # Gather path: interpreter-exact wrapping and IndexError semantics.
        saved_stack = self._vec_stack
        self._vec_stack = []
        try:
            for node in plan.nodes:
                self._exec_plan_node(node)
        finally:
            self._vec_stack = saved_stack

    # ------------------------------------------------------------------
    # Plan execution (gather path)
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
            self._vec_stack.append(_VecFrame(node.var, values))
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
        compiled = self.plans.vec_assigns.get(id(node))
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
            self.plans.vec_assigns[id(node)] = compiled
        return compiled

    def _exec_plan_assign(self, node: PlanAssign) -> None:
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
        lower = _eval_bound(loop.lower, env, self.scalars)
        upper = _eval_bound(loop.upper, env, self.scalars)
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
