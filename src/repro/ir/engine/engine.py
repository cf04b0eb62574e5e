"""The fast execution engine: one emitted kernel per planned loop nest.

:class:`VectorizedEngine` is a drop-in replacement for the reference
:class:`~repro.ir.interp.Interpreter`: same constructor, same ``run``
contract, same :class:`~repro.ir.interp.ExecutionTrace`, same call-handler
protocol.  A top-level loop nest that passes the plan analysis and whose
assignments are all slice-lowerable is emitted, once, as one kernel
(:class:`NestKernel`): a guard and two bodies.  The fold body is
straight-line Python — sequential loops are ``for`` statements, each
assignment is one ``view op= expression`` line over basic NumPy slices,
and what does not change inside a loop is taken outside it.  The C body
(:mod:`repro.ir.engine.native`) is written from the same plan and runs
instead whenever the C toolchain is present.  Everything else (runtime
calls, data-dependent control flow, scalar accumulators, non-affine or
coupled subscripts) runs on the inherited interpreter.

Bit-identity with the interpreter is preserved by construction:

* vectorized loops only ever map *parallel* axes to array dimensions;
  reduction loops stay sequential, so every array element sees the exact
  same sequence of arithmetic operations in the exact same order;
* expressions are evaluated with the same NumPy scalar-promotion rules the
  interpreter hits element by element (NEP 50 value-independent promotion);
* the kernel opens with a guard that proves, before anything is written,
  that every view it is about to take lies inside its array; when it does
  not (negative indices wrap element-wise in NumPy, slices do not), the
  kernel writes nothing and the interpreter runs the nest, reproducing its
  own wrapping and ``IndexError`` semantics;
* the execution trace of a nest that ran on its kernel is computed
  analytically from trip counts, applying the same per-execution
  increments the interpreter applies dynamically; a nest the interpreter
  runs is traced by the interpreter itself.

Plans and kernels are pure functions of the program, so they are built
once per :class:`~repro.ir.program.Program` (:class:`ProgramPlans`, kept
on ``Program.engine_plans``) and shared by every engine instance that
runs it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional

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
from repro.ir.interp import CallHandler, ExecutionTrace, Interpreter, InterpreterError
from repro.ir.program import Program
from repro.ir.stmt import Assign, Block, CallStmt, Loop, Stmt
from repro.ir.engine import analysis
from repro.ir.engine.analysis import FoldRef, FoldSpec, NestPlan, PlanLoop, PlanNode
from repro.ir.engine.native import attach_c_body, native_available

_UNSET = object()


# ----------------------------------------------------------------------
# Analytical bound evaluation (integers and integer arrays)
# ----------------------------------------------------------------------


def _as_index(value):
    """Normalise one bound, matching the interpreter's ``int()`` cast.

    Scalars become ints; arrays that picked up a float dtype (a float
    parameter mixed into the bound arithmetic) are truncated toward zero,
    exactly like ``int()`` element by element.
    """
    if isinstance(value, np.ndarray):
        if not np.issubdtype(value.dtype, np.integer):
            value = np.trunc(value).astype(np.int64)
        return value
    return int(value)


def compile_vec_expr(
    expr: Expr, vec_vars: frozenset[str]
) -> Callable[[dict, dict], object]:
    """Compile an integer expression into ``fn(scalars, venv)``.

    ``venv`` maps the variables in *vec_vars* to broadcast-shaped integer
    arrays; all other variables resolve through ``scalars`` exactly like
    the interpreter.  Only what ``analysis._bound_expr_ok`` admits is
    compiled: integer constants, variables, ``+ - * %``, negation, and
    ``min``/``max``.
    """
    if isinstance(expr, IntConst):
        value = expr.value
        return lambda s, v: value
    if isinstance(expr, (VarRef, ParamRef)):
        name = expr.name
        if name in vec_vars:
            return lambda s, v, _n=name: v[_n]

        def eval_var(s, v, _n=name):
            try:
                return s[_n]
            except KeyError as exc:
                raise InterpreterError(f"unbound variable {_n!r}") from exc

        return eval_var
    if isinstance(expr, BinOp):
        lhs = compile_vec_expr(expr.lhs, vec_vars)
        rhs = compile_vec_expr(expr.rhs, vec_vars)
        op = expr.op
        if op == "+":
            return lambda s, v: lhs(s, v) + rhs(s, v)
        if op == "-":
            return lambda s, v: lhs(s, v) - rhs(s, v)
        if op == "*":
            return lambda s, v: lhs(s, v) * rhs(s, v)
        if op == "%":
            return lambda s, v: lhs(s, v) % rhs(s, v)
        raise InterpreterError(f"unknown operator {op!r}")
    if isinstance(expr, UnaryOp):
        operand = compile_vec_expr(expr.operand, vec_vars)
        return lambda s, v: -operand(s, v)
    if isinstance(expr, (Min, Max)):
        # Integer operands only, where NumPy's minimum/maximum agree
        # exactly with Python's min/max.
        lhs = compile_vec_expr(expr.lhs, vec_vars)
        rhs = compile_vec_expr(expr.rhs, vec_vars)
        pick = np.minimum if isinstance(expr, Min) else np.maximum
        py_pick = min if isinstance(expr, Min) else max

        def eval_minmax(s, v, _pick=pick, _py=py_pick):
            left = lhs(s, v)
            right = rhs(s, v)
            if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
                return _pick(left, right)
            return _py(left, right)

        return eval_minmax
    raise InterpreterError(f"cannot evaluate expression {expr!r}")


def _eval_bound(expr: Expr, env: dict, scalars: dict):
    """A loop bound with the enumerated loop variables of *env* as integer
    arrays, truncated like the interpreter's ``int()``."""
    return _as_index(compile_vec_expr(expr, frozenset(env))(scalars, env))


# ----------------------------------------------------------------------
# Fold (exact slice) lowering: one emitted Python function per nest
# ----------------------------------------------------------------------


class _NotEmittable(Exception):
    """The nest has a shape the emitter does not lower (interpreter)."""


def _no_c_body(*args) -> bool:
    return False


@dataclass
class NestKernel:
    """One planned nest lowered to one guard and two bodies.

    ``fn(native, *arrays, *scalars)`` runs a guard over the loop skeleton
    first: every view the body takes must be a basic slice (or integer
    index) inside ``[0, shape)`` of an array of the expected rank, and
    every scalar a bound or subscript reads must be an integer.  It
    returns ``False`` *before writing anything* when the guard trips.
    Otherwise it calls ``native(*arrays, *scalars)``, the C body, and runs
    the fold body (Python over NumPy views) when that returns ``False``;
    then it returns ``True``.  ``source`` and ``c_source`` are kept for
    inspection; they name arrays, scalars and loop variables by generated
    locals only, never by an identifier of the input program.
    """

    source: str
    fn: Callable[..., bool]
    arrays: tuple[str, ...]
    scalars: tuple[str, ...]
    #: The C body (``native.attach_c_body``), or one that always declines.
    native: Callable[..., bool] = _no_c_body
    c_source: str = ""

    def run(self, scalars: dict, arrays: dict) -> bool:
        try:
            args = [arrays[name] for name in self.arrays]
            args += [scalars[name] for name in self.scalars]
        except KeyError:
            return False  # unbound name: the interpreter raises for it
        return self.fn(self.native, *args)


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
        params = ", ".join([*self.arrays.values(), *self.scalars.values()])
        lines = [
            f"def kernel(native, {params}):",
            *guard,
            f"    if native({params}): return True",
            *body,
            "    return True",
            "",
        ]
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
# The engine
# ----------------------------------------------------------------------


#: The counts of an :class:`ExecutionTrace` a nest's kernel run adds.
TRACE_COUNTS = tuple(f.name for f in fields(ExecutionTrace) if f.name != "runtime_calls")


@dataclass
class ProgramPlans:
    """Everything the engines derive from one program, and nothing that
    depends on a run's data: each entry is a pure function of the
    statements (and ``run`` of the params too) and is built the first
    time it is needed.  One instance hangs on ``Program.engine_plans``
    and is shared by every engine that runs the program, so a long-lived
    executor or server plans a kernel once.
    Entries are keyed on statement identity — a program edited in place
    after it has run must be cloned (a copy starts without plans).
    """

    nests: dict[int, Optional[NestPlan]] = field(default_factory=dict)
    #: The interpreter's ``_assign_plans``: they hold the per-execution
    #: trace deltas the analytical trace multiplies.
    assigns: dict = field(default_factory=dict)
    #: ``(key, ParamsPlan)`` of the last run: the params' names, types and
    #: reprs, and what a run with them replays.
    run: Optional[tuple] = None
    #: The scalars some statement of the program assigns.
    assigned: Optional[frozenset] = None


class CallStep(NamedTuple):
    """A top-level runtime call's trace record and its call binder's result."""

    record: tuple
    bound: object


@dataclass
class ParamsPlan:
    """What a run with given params replays: its arrays, then its statements."""

    #: ``(name, shape, dtype)`` of each declared array.
    layout: tuple
    #: Per top-level statement: its :class:`CallStep`, or the statement
    #: itself, run as an unplanned run would.
    steps: tuple


class VectorizedEngine(Interpreter):
    """Interpreter subclass that runs planned loop nests on their emitted
    kernels (C body, else fold body) and everything else on the
    interpreter, replaying the :class:`ParamsPlan` of a run's params.  A
    top-level call is bound into it by ``call_binder(callee, args,
    scalars, arrays)`` and run by ``call_runner(bound, engine)``."""

    def __init__(self, program: Program, call_handler: Optional[CallHandler] = None,
                 call_binder: Optional[Callable] = None, call_runner: Optional[Callable] = None):
        super().__init__(program, call_handler)
        if program.engine_plans is None:
            program.engine_plans = ProgramPlans()
        self.plans: ProgramPlans = program.engine_plans
        self._assign_plans = self.plans.assigns
        self.call_binder = call_binder
        self.call_runner = call_runner

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def nest_plan(self, loop: Loop) -> Optional[NestPlan]:
        """The program's plan for a loop nest (built, with its kernel and
        the kernel's C body, on the nest's first run), or ``None``."""
        plan = self.plans.nests.get(id(loop), _UNSET)
        if plan is _UNSET:
            try:
                plan, _ = analysis.plan_nest(loop)
            except Exception:
                plan = None  # analysis failure → safe interpreter fallback
            if plan is not None:
                plan.kernel = emit_kernel(plan)
                if plan.kernel is not None and native_available():
                    attach_c_body(plan, self.program)
            self.plans.nests[id(loop)] = plan
        return plan

    def _params_plan(self, params) -> ParamsPlan:
        # repr() tells -0.0 from 0.0, which a bound call would pass on.
        key = tuple((name, type(value), repr(value)) for name, value in params.items())
        last = self.plans.run
        if last is not None and last[0] == key:
            return last[1]
        plan = ParamsPlan(self.array_layout(params), self._steps(params))
        self.plans.run = (key, plan)
        return plan

    def _steps(self, params) -> tuple:
        body = self.program.body
        if self.plans.assigned is None:
            self.plans.assigned = frozenset(
                s.target.name for s in body.walk()
                if isinstance(s, Assign) and not isinstance(s.target, ArrayRef))
        fixed = {name: value for name, value in params.items()
                 if name not in self.plans.assigned}
        return tuple(self._step(stmt, fixed) for stmt in body.stmts)

    def _step(self, stmt: Stmt, fixed: dict):
        """*stmt*'s :class:`CallStep`, or *stmt*.  A call binds against
        *fixed* (the params no statement assigns) and no arrays, or reads
        something else (an :class:`InterpreterError`) and does not bind."""
        if isinstance(stmt, CallStmt) and self.call_binder and self.call_runner:
            try:
                bound = self.call_binder(stmt.callee, list(stmt.args), fixed, {})
            except InterpreterError:
                return stmt  # bound again on every run, by the call handler
            return CallStep((stmt.callee, tuple(stmt.args)), bound)
        return stmt

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------
    def _exec_body(self, plan: ParamsPlan) -> None:
        trace = self.trace
        for step in plan.steps:
            if type(step) is CallStep:
                trace.statements_executed += 1
                trace.runtime_calls.append(step.record)
                self.call_runner(step.bound, self)
            else:
                self._exec_stmt(step)

    def _exec_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Loop):
            plan = self.nest_plan(stmt)
            if plan is not None and self._run_kernel(plan):
                self._add(self._nest_delta(plan))
                return
        super()._exec_stmt(stmt)

    def _run_kernel(self, plan: NestPlan) -> bool:
        """Run *plan* on its emitted kernel.

        ``False`` — with nothing written and nothing traced — when the
        nest has no kernel or the kernel's guard trips; the interpreter
        then runs (and traces) the nest.
        """
        return plan.kernel is not None and plan.kernel.run(self.scalars, self.arrays)

    # ------------------------------------------------------------------
    # Analytical trace accounting
    # ------------------------------------------------------------------
    def _add(self, delta: tuple) -> None:
        trace = self.trace
        for name, count in zip(TRACE_COUNTS, delta):
            setattr(trace, name, getattr(trace, name) + count)

    def _nest_delta(self, plan: NestPlan) -> tuple:
        """The exact trace increments (:data:`TRACE_COUNTS`) of
        interpreting *plan.root*, added once its kernel has run.

        Works on the *original* (undistributed) nest so loop-iteration and
        statement counts match the interpreter to the last integer, using
        trip counts instead of per-element updates.  Loops whose variables
        appear in deeper bounds are enumerated as integer grids, so
        triangular/tiled (min/max) bounds are also counted exactly.  The
        result is kept on *plan* with the values of ``plan.bound_vars``.
        """
        key = tuple(map(self.scalars.get, plan.bound_vars))
        last = plan.delta
        if last is not None and last[0] == key:
            return last[1]
        trace = ExecutionTrace()
        self._trace_stmt(plan.root, {}, 1, plan.enumerate_vars, trace)
        delta = tuple(getattr(trace, name) for name in TRACE_COUNTS)
        plan.delta = (key, delta)
        return delta

    def _trace_stmt(self, stmt: Stmt, env: dict, mult, enum_vars: dict, trace) -> None:
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                self._trace_stmt(child, env, mult, enum_vars, trace)
        elif isinstance(stmt, Loop):
            self._trace_loop(stmt, env, mult, enum_vars, trace)
        elif isinstance(stmt, Assign):
            plan = self._assign_plan(stmt)
            total = int(np.sum(mult)) if isinstance(mult, np.ndarray) else int(mult)
            if total <= 0:
                return
            trace.statements_executed += total
            trace.flops += plan.d_flops * total
            trace.int_ops += plan.d_int_ops * total
            trace.loads += plan.d_loads * total
            trace.stores += plan.d_stores * total
        else:  # pragma: no cover - screened out at plan time
            raise InterpreterError(f"cannot account statement {stmt!r}")

    def _trace_loop(self, loop: Loop, env: dict, mult, enum_vars: dict, trace) -> None:
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
                self._trace_stmt(child, child_env, child_mult, enum_vars, trace)
        else:
            for child in loop.body.stmts:
                self._trace_stmt(child, env, iter_total, enum_vars, trace)
