"""Reference interpreter for the loop-nest IR.

The interpreter executes a :class:`~repro.ir.program.Program` element by
element over NumPy arrays.  It serves two purposes:

* **Functional reference** — integration tests run the original program and
  the CIM-offloaded program and compare results.
* **Dynamic operation counting** — every executed statement updates an
  :class:`ExecutionTrace`, which the host cost model can convert to
  instruction counts and energy.  (For large problem sizes the host model in
  :mod:`repro.host` uses analytical trip counts instead of running the
  interpreter; both paths agree on small sizes, which is tested.)

Runtime library calls (``CallStmt``) are dispatched to a user-provided
handler; :mod:`repro.codegen.executor` wires that handler to the CIM runtime.

The interpreter caches a compiled form of every statement it executes: loop
bounds, array index expressions and right-hand sides are compiled once into
Python closures, and the per-execution :class:`ExecutionTrace` increments of
each assignment are precomputed as constants.  This keeps the per-element
work of the fallback path to a handful of dictionary lookups instead of a
recursive tree walk per expression node.  The execution engine
(:mod:`repro.ir.engine`) builds on the same caches, and runs every nest
it does not run on an emitted kernel through this interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

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
from repro.ir.program import Program
from repro.ir.stmt import Assign, Block, CallStmt, IfStmt, Loop, Stmt


class InterpreterError(RuntimeError):
    """Raised when the interpreter encounters an invalid program."""


def evaluate_expr(
    expr: Expr,
    scalars: Mapping[str, int | float],
    arrays: Mapping[str, np.ndarray],
) -> int | float:
    """Evaluate an IR expression under scalar and array bindings."""
    if isinstance(expr, IntConst):
        return expr.value
    if isinstance(expr, FloatConst):
        return expr.value
    if isinstance(expr, (VarRef, ParamRef)):
        try:
            return scalars[expr.name]
        except KeyError as exc:
            raise InterpreterError(f"unbound variable {expr.name!r}") from exc
    if isinstance(expr, ArrayRef):
        array = arrays.get(expr.name)
        if array is None:
            raise InterpreterError(f"unbound array {expr.name!r}")
        idx = tuple(int(evaluate_expr(i, scalars, arrays)) for i in expr.indices)
        return array[idx]
    if isinstance(expr, BinOp):
        lhs = evaluate_expr(expr.lhs, scalars, arrays)
        rhs = evaluate_expr(expr.rhs, scalars, arrays)
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        if expr.op == "/":
            return lhs / rhs
        if expr.op == "%":
            return lhs % rhs
        raise InterpreterError(f"unknown operator {expr.op!r}")
    if isinstance(expr, UnaryOp):
        return -evaluate_expr(expr.operand, scalars, arrays)
    if isinstance(expr, Min):
        return min(
            evaluate_expr(expr.lhs, scalars, arrays),
            evaluate_expr(expr.rhs, scalars, arrays),
        )
    if isinstance(expr, Max):
        return max(
            evaluate_expr(expr.lhs, scalars, arrays),
            evaluate_expr(expr.rhs, scalars, arrays),
        )
    raise InterpreterError(f"cannot evaluate expression {expr!r}")


@dataclass
class ExecutionTrace:
    """Dynamic operation counts collected while interpreting a program."""

    loop_iterations: int = 0
    statements_executed: int = 0
    flops: int = 0
    int_ops: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    runtime_calls: list[tuple[str, tuple]] = field(default_factory=list)


def _count_expr_ops(expr: Expr, trace: ExecutionTrace, is_float: bool) -> None:
    """Attribute arithmetic and memory operations of one expression."""
    for node in expr.walk():
        if isinstance(node, (BinOp, UnaryOp, Min, Max)):
            if is_float:
                trace.flops += 1
            else:
                trace.int_ops += 1
        elif isinstance(node, ArrayRef):
            trace.loads += 1
            # Index arithmetic (row-major address computation) is integer work.
            trace.int_ops += max(0, len(node.indices) - 1) * 2


def compile_expr(expr: Expr) -> Callable[[Mapping, Mapping], int | float]:
    """Compile an IR expression into a closure over (scalars, arrays).

    The closure evaluates exactly like :func:`evaluate_expr` (same numeric
    semantics, same errors) but without re-walking the expression tree on
    every evaluation.
    """
    if isinstance(expr, (IntConst, FloatConst)):
        value = expr.value
        return lambda scalars, arrays: value
    if isinstance(expr, (VarRef, ParamRef)):
        name = expr.name

        def eval_var(scalars, arrays, _name=name):
            try:
                return scalars[_name]
            except KeyError as exc:
                raise InterpreterError(f"unbound variable {_name!r}") from exc

        return eval_var
    if isinstance(expr, ArrayRef):
        name = expr.name
        index_fns = tuple(compile_expr(i) for i in expr.indices)

        if len(index_fns) == 1:
            idx0 = index_fns[0]

            def eval_ref1(scalars, arrays, _name=name, _idx=idx0):
                array = arrays.get(_name)
                if array is None:
                    raise InterpreterError(f"unbound array {_name!r}")
                return array[int(_idx(scalars, arrays))]

            return eval_ref1

        def eval_ref(scalars, arrays, _name=name, _fns=index_fns):
            array = arrays.get(_name)
            if array is None:
                raise InterpreterError(f"unbound array {_name!r}")
            return array[tuple(int(fn(scalars, arrays)) for fn in _fns)]

        return eval_ref
    if isinstance(expr, BinOp):
        lhs = compile_expr(expr.lhs)
        rhs = compile_expr(expr.rhs)
        op = expr.op
        if op == "+":
            return lambda s, a: lhs(s, a) + rhs(s, a)
        if op == "-":
            return lambda s, a: lhs(s, a) - rhs(s, a)
        if op == "*":
            return lambda s, a: lhs(s, a) * rhs(s, a)
        if op == "/":
            return lambda s, a: lhs(s, a) / rhs(s, a)
        if op == "%":
            return lambda s, a: lhs(s, a) % rhs(s, a)
        raise InterpreterError(f"unknown operator {op!r}")
    if isinstance(expr, UnaryOp):
        operand = compile_expr(expr.operand)
        return lambda s, a: -operand(s, a)
    if isinstance(expr, Min):
        lhs = compile_expr(expr.lhs)
        rhs = compile_expr(expr.rhs)
        return lambda s, a: min(lhs(s, a), rhs(s, a))
    if isinstance(expr, Max):
        lhs = compile_expr(expr.lhs)
        rhs = compile_expr(expr.rhs)
        return lambda s, a: max(lhs(s, a), rhs(s, a))
    raise InterpreterError(f"cannot evaluate expression {expr!r}")


def assign_trace_cost(stmt: Assign, is_float: bool) -> tuple[int, int, int, int]:
    """Per-execution trace increments of one assignment.

    Returns ``(flops, int_ops, loads, stores)`` — exactly the deltas the
    interpreter applies for one execution of *stmt* (the right-hand side
    walk plus the store-side accounting).  Shared by the interpreter's
    compiled fallback path and the engine's analytical trace.
    """
    probe = ExecutionTrace()
    _count_expr_ops(stmt.rhs, probe, is_float)
    flops, int_ops = probe.flops, probe.int_ops
    loads, stores = probe.loads, 0
    if isinstance(stmt.target, ArrayRef):
        stores += 1
        int_ops += max(0, len(stmt.target.indices) - 1) * 2
        if stmt.reduction == "+":
            loads += 1
            flops += 1 if is_float else 0
            int_ops += 0 if is_float else 1
        elif stmt.reduction == "*":
            loads += 1
            flops += 1 if is_float else 0
    else:
        if stmt.reduction in ("+", "*"):
            flops += 1
    return flops, int_ops, loads, stores


@dataclass
class _CompiledAssign:
    """Cached execution plan of one assignment statement."""

    rhs_fn: Callable
    target_name: Optional[str]  # None for scalar targets
    index_fns: tuple
    reduction: Optional[str]
    d_flops: int
    d_int_ops: int
    d_loads: int
    d_stores: int


CallHandler = Callable[[str, list[object], "Interpreter"], None]


class Interpreter:
    """Execute an IR program over NumPy arrays.

    Parameters
    ----------
    program:
        The program to execute.
    call_handler:
        Optional callback invoked for every :class:`CallStmt`.  It receives
        the callee name, the raw argument list, and the interpreter (so it
        can read or write arrays and scalars).  Without a handler, call
        statements raise — plain host programs contain no calls.
    """

    def __init__(self, program: Program, call_handler: Optional[CallHandler] = None):
        self.program = program
        self.call_handler = call_handler
        self.scalars: dict[str, int | float] = {}
        self.arrays: dict[str, np.ndarray] = {}
        self.trace = ExecutionTrace()
        # Per-statement compilation caches (statement identity is stable for
        # the lifetime of the program object).
        self._assign_plans: dict[int, _CompiledAssign] = {}
        self._loop_bounds: dict[int, tuple[Callable, Callable]] = {}
        self._cond_fns: dict[int, Callable] = {}

    # ------------------------------------------------------------------
    # Setup and entry point
    # ------------------------------------------------------------------
    def array_layout(self, params: Mapping[str, int | float]) -> tuple:
        """``(name, shape, dtype)`` of every declared array under *params*."""
        return tuple(
            (decl.name, decl.extent(params), decl.elem_type.numpy_dtype)
            for decl in self.program.arrays
        )

    def run(
        self,
        params: Mapping[str, int | float],
        arrays: Optional[Mapping[str, np.ndarray]] = None,
    ) -> dict[str, np.ndarray]:
        """Execute the program and return the (possibly updated) arrays.

        Input arrays are copied so callers can reuse them across runs.
        """
        self.scalars = dict(params)
        missing = [p.name for p in self.program.params if p.name not in self.scalars]
        if missing:
            raise InterpreterError(f"missing parameter bindings: {missing}")
        plan = self._params_plan(params)
        layout = self.array_layout(params) if plan is None else plan.layout
        if arrays is None:
            self.arrays = {name: np.zeros(shape, dtype) for name, shape, dtype in layout}
        else:
            self.arrays = {}
            for name, shape, dtype in layout:
                if name not in arrays:
                    raise InterpreterError(f"missing array binding {name!r}")
                provided = np.array(arrays[name], dtype=dtype, order="C")
                if provided.shape != shape:
                    raise InterpreterError(
                        f"array {name!r} has shape {provided.shape}, expected {shape}"
                    )
                self.arrays[name] = provided
        self.trace = ExecutionTrace()
        self._exec_body(plan)
        return self.arrays

    def _params_plan(self, params: Mapping[str, int | float]) -> Optional[object]:
        """What a run with *params* replays (it has a ``layout``): none here."""
        return None

    def _exec_body(self, plan: Optional[object]) -> None:
        """Execute the program body (*plan* is ``_params_plan``'s)."""
        self._exec_block(self.program.body)

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def _exec_block(self, block: Block) -> None:
        for stmt in block.stmts:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Block):
            self._exec_block(stmt)
        elif isinstance(stmt, Loop):
            self._exec_loop(stmt)
        elif isinstance(stmt, Assign):
            self._exec_assign(stmt)
        elif isinstance(stmt, CallStmt):
            self._exec_call(stmt)
        elif isinstance(stmt, IfStmt):
            self.trace.branches += 1
            cond_fn = self._cond_fns.get(id(stmt))
            if cond_fn is None:
                cond_fn = compile_expr(stmt.cond)
                self._cond_fns[id(stmt)] = cond_fn
            if cond_fn(self.scalars, self.arrays):
                self._exec_block(stmt.then_body)
            elif stmt.else_body is not None:
                self._exec_block(stmt.else_body)
        else:
            raise InterpreterError(f"cannot execute statement {stmt!r}")

    def _loop_bound_fns(self, loop: Loop) -> tuple[Callable, Callable]:
        fns = self._loop_bounds.get(id(loop))
        if fns is None:
            fns = (compile_expr(loop.lower), compile_expr(loop.upper))
            self._loop_bounds[id(loop)] = fns
        return fns

    def _exec_loop(self, loop: Loop) -> None:
        eval_lower, eval_upper = self._loop_bound_fns(loop)
        lower = int(eval_lower(self.scalars, self.arrays))
        upper = int(eval_upper(self.scalars, self.arrays))
        saved = self.scalars.get(loop.var)
        scalars = self.scalars
        trace = self.trace
        var = loop.var
        body = loop.body.stmts
        for value in range(lower, upper, loop.step):
            scalars[var] = value
            trace.loop_iterations += 1
            trace.branches += 1
            trace.int_ops += 1  # induction-variable increment
            for stmt in body:
                self._exec_stmt(stmt)
        if saved is None:
            scalars.pop(var, None)
        else:
            scalars[var] = saved

    def _assign_plan(self, stmt: Assign) -> _CompiledAssign:
        plan = self._assign_plans.get(id(stmt))
        if plan is not None:
            return plan
        target = stmt.target
        is_float = True
        target_name: Optional[str] = None
        index_fns: tuple = ()
        if isinstance(target, ArrayRef):
            decl = self.program.array(target.name)
            is_float = decl.elem_type.is_float
            target_name = target.name
            index_fns = tuple(compile_expr(i) for i in target.indices)
        d_flops, d_int_ops, d_loads, d_stores = assign_trace_cost(stmt, is_float)
        plan = _CompiledAssign(
            rhs_fn=compile_expr(stmt.rhs),
            target_name=target_name,
            index_fns=index_fns,
            reduction=stmt.reduction,
            d_flops=d_flops,
            d_int_ops=d_int_ops,
            d_loads=d_loads,
            d_stores=d_stores,
        )
        self._assign_plans[id(stmt)] = plan
        return plan

    def _exec_assign(self, stmt: Assign) -> None:
        plan = self._assign_plan(stmt)
        trace = self.trace
        scalars = self.scalars
        arrays = self.arrays
        trace.statements_executed += 1
        trace.flops += plan.d_flops
        trace.int_ops += plan.d_int_ops
        trace.loads += plan.d_loads
        trace.stores += plan.d_stores
        value = plan.rhs_fn(scalars, arrays)
        if plan.target_name is not None:
            idx = tuple(int(fn(scalars, arrays)) for fn in plan.index_fns)
            if plan.reduction == "+":
                arrays[plan.target_name][idx] += value
            elif plan.reduction == "*":
                arrays[plan.target_name][idx] *= value
            else:
                arrays[plan.target_name][idx] = value
        else:  # scalar variable
            name = stmt.target.name
            if plan.reduction == "+":
                scalars[name] = scalars.get(name, 0) + value
            elif plan.reduction == "*":
                scalars[name] = scalars.get(name, 1) * value
            else:
                scalars[name] = value

    def _exec_call(self, stmt: CallStmt) -> None:
        self.trace.statements_executed += 1
        self.trace.runtime_calls.append((stmt.callee, tuple(stmt.args)))
        if self.call_handler is None:
            raise InterpreterError(
                f"no call handler installed for runtime call {stmt.callee!r}"
            )
        self.call_handler(stmt.callee, list(stmt.args), self)
