"""Analytical host cost model.

Estimates the dynamic instruction count of running a loop-nest IR program on
the Arm-A7 host without executing it element by element, by multiplying
per-iteration operation counts with polyhedral trip counts.  This plays the
role of the Gem5 host profiling runs in the paper: it produces the dynamic
instruction count and runtime of the baseline (and of any code left on the
host after offloading), which Table I's 128 pJ/instruction converts to
energy.

The estimate assumes ``-O3``-style code generation on an in-order core:

* every floating-point operation, load, store, integer/address operation and
  branch retires one instruction;
* the accumulation target of a reduction (``C[i][j] += ...``) is promoted to
  a register across the innermost loop when its subscripts do not depend on
  that loop's induction variable (so its load/store is charged once per
  outer iteration, not once per innermost iteration);
* each loop iteration pays one increment and one compare-and-branch.

On small problem sizes the estimate is validated against the interpreter's
measured :class:`~repro.ir.interp.ExecutionTrace` (see the unit tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.hw.energy import HostEnergyModel
from repro.ir.expr import ArrayRef, BinOp, Expr, Max, Min, UnaryOp
from repro.ir.interp import ExecutionTrace, evaluate_expr
from repro.ir.program import Program
from repro.ir.stmt import Assign, Block, CallStmt, IfStmt, Loop, Stmt


@dataclass
class HostExecutionEstimate:
    """Instruction/energy/time estimate of host execution."""

    instructions: float = 0.0
    flops: float = 0.0
    loads: float = 0.0
    stores: float = 0.0
    int_ops: float = 0.0
    branches: float = 0.0
    time_s: float = 0.0
    energy_j: float = 0.0

    def add(self, other: "HostExecutionEstimate") -> None:
        self.instructions += other.instructions
        self.flops += other.flops
        self.loads += other.loads
        self.stores += other.stores
        self.int_ops += other.int_ops
        self.branches += other.branches
        self.time_s += other.time_s
        self.energy_j += other.energy_j


@dataclass
class _StatementCost:
    """Per-execution operation counts of one statement."""

    flops: float = 0.0
    loads: float = 0.0
    stores: float = 0.0
    int_ops: float = 0.0

    @property
    def instructions(self) -> float:
        return self.flops + self.loads + self.stores + self.int_ops


class HostCostModel:
    """Analytical instruction/energy/time estimation for the host."""

    #: Fixed instruction overhead of a (runtime library) call site.
    CALL_OVERHEAD_INSTRUCTIONS = 20

    def __init__(
        self,
        model: Optional[HostEnergyModel] = None,
        assume_register_promotion: bool = True,
    ):
        self.model = model or HostEnergyModel()
        self.assume_register_promotion = assume_register_promotion

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def estimate_program(
        self, program: Program, params: Mapping[str, int | float]
    ) -> HostExecutionEstimate:
        """Estimate host execution of *program* under a parameter binding.

        Only the host-executed parts are counted: runtime library calls are
        charged a fixed call overhead here, their actual work is accounted by
        the runtime/accelerator models.
        """
        estimate = HostExecutionEstimate()
        bindings = dict(params)
        self._estimate_block(program.body, bindings, 1.0, estimate, innermost_var=None)
        self._finalise(estimate)
        return estimate

    def estimate_trace(self, trace: ExecutionTrace) -> HostExecutionEstimate:
        """Convert interpreter-measured counts into an estimate."""
        estimate = HostExecutionEstimate(
            flops=float(trace.flops),
            loads=float(trace.loads),
            stores=float(trace.stores),
            int_ops=float(trace.int_ops),
            branches=float(trace.branches),
        )
        estimate.instructions = (
            estimate.flops
            + estimate.loads
            + estimate.stores
            + estimate.int_ops
            + estimate.branches
            + len(trace.runtime_calls) * self.CALL_OVERHEAD_INSTRUCTIONS
        )
        self._finalise(estimate)
        return estimate

    # ------------------------------------------------------------------
    # Recursive estimation
    # ------------------------------------------------------------------
    def _finalise(self, estimate: HostExecutionEstimate) -> None:
        estimate.time_s = self.model.instruction_time(estimate.instructions)
        estimate.energy_j = self.model.instruction_energy(estimate.instructions)

    def _estimate_block(
        self,
        block: Block,
        bindings: dict[str, int | float],
        multiplier: float,
        estimate: HostExecutionEstimate,
        innermost_var: Optional[str],
    ) -> None:
        for stmt in block.stmts:
            self._estimate_stmt(stmt, bindings, multiplier, estimate, innermost_var)

    def _estimate_stmt(
        self,
        stmt: Stmt,
        bindings: dict[str, int | float],
        multiplier: float,
        estimate: HostExecutionEstimate,
        innermost_var: Optional[str],
    ) -> None:
        if isinstance(stmt, Block):
            self._estimate_block(stmt, bindings, multiplier, estimate, innermost_var)
        elif isinstance(stmt, Loop):
            self._estimate_loop(stmt, bindings, multiplier, estimate)
        elif isinstance(stmt, Assign):
            cost = self._statement_cost(stmt, innermost_var)
            estimate.flops += cost.flops * multiplier
            estimate.loads += cost.loads * multiplier
            estimate.stores += cost.stores * multiplier
            estimate.int_ops += cost.int_ops * multiplier
            estimate.instructions += cost.instructions * multiplier
            # Register-promoted reduction targets still move through memory
            # once per surrounding iteration of the non-innermost loops; this
            # is handled in _estimate_loop via the promotion bookkeeping.
            if self.assume_register_promotion and self._promotable(stmt, innermost_var):
                pass
        elif isinstance(stmt, CallStmt):
            estimate.instructions += self.CALL_OVERHEAD_INSTRUCTIONS * multiplier
            estimate.int_ops += self.CALL_OVERHEAD_INSTRUCTIONS * multiplier
        elif isinstance(stmt, IfStmt):
            estimate.branches += multiplier
            estimate.instructions += multiplier
            # Both branches conservatively estimated at half weight.
            self._estimate_block(stmt.then_body, bindings, multiplier * 0.5, estimate,
                                 innermost_var)
            if stmt.else_body is not None:
                self._estimate_block(stmt.else_body, bindings, multiplier * 0.5,
                                     estimate, innermost_var)
        else:
            raise TypeError(f"cannot estimate cost of statement {stmt!r}")

    def _estimate_loop(
        self,
        loop: Loop,
        bindings: dict[str, int | float],
        multiplier: float,
        estimate: HostExecutionEstimate,
    ) -> None:
        trip = self._trip_count(loop, bindings)
        iterations = multiplier * trip
        # Loop control: one increment + one compare-and-branch per iteration.
        estimate.int_ops += iterations
        estimate.branches += iterations
        estimate.instructions += 2 * iterations
        inner_multiplier = iterations
        # Descend with this loop as the innermost candidate for promotion.
        self._estimate_block(
            loop.body, bindings, inner_multiplier, estimate, innermost_var=loop.var
        )
        # Register-promoted reduction targets: charge one load+store per
        # *entry* into the innermost loop (i.e. per outer iteration).
        if self.assume_register_promotion:
            for stmt in loop.body.stmts:
                if isinstance(stmt, Assign) and self._promotable(stmt, loop.var):
                    estimate.loads += multiplier
                    estimate.stores += multiplier
                    estimate.instructions += 2 * multiplier

    def _trip_count(self, loop: Loop, bindings: Mapping[str, int | float]) -> float:
        """Trip count of a loop; enumerates outer values only when bounds
        depend on enclosing loop variables (non-rectangular nests)."""
        try:
            lower = evaluate_expr(loop.lower, dict(bindings), {})
            upper = evaluate_expr(loop.upper, dict(bindings), {})
        except Exception as exc:  # bounds reference an unbound loop variable
            raise ValueError(
                f"cannot analytically bound loop over {loop.var!r}; "
                f"non-rectangular bounds need explicit binding: {exc}"
            ) from exc
        if upper <= lower:
            return 0.0
        return float((int(upper) - int(lower) + loop.step - 1) // loop.step)

    # ------------------------------------------------------------------
    # Per-statement costs
    # ------------------------------------------------------------------
    def _promotable(self, stmt: Assign, innermost_var: Optional[str]) -> bool:
        """True when the reduction target can live in a register across the
        innermost loop (its subscripts do not use that loop's variable)."""
        if innermost_var is None or stmt.reduction is None:
            return False
        if not isinstance(stmt.target, ArrayRef):
            return False
        used = set()
        for idx in stmt.target.indices:
            used |= idx.free_vars()
        return innermost_var not in used

    def _statement_cost(self, stmt: Assign, innermost_var: Optional[str]) -> _StatementCost:
        cost = _StatementCost()
        self._expr_cost(stmt.rhs, cost)
        promoted = self.assume_register_promotion and self._promotable(
            stmt, innermost_var
        )
        if isinstance(stmt.target, ArrayRef):
            if not promoted:
                cost.stores += 1
                cost.int_ops += max(0, len(stmt.target.indices) - 1) * 2
                if stmt.reduction is not None:
                    cost.loads += 1
            if stmt.reduction is not None:
                cost.flops += 1  # the accumulate itself
        else:
            if stmt.reduction is not None:
                cost.flops += 1
        return cost

    def _expr_cost(self, expr: Expr, cost: _StatementCost) -> None:
        for node in expr.walk():
            if isinstance(node, (BinOp, UnaryOp, Min, Max)):
                cost.flops += 1
            elif isinstance(node, ArrayRef):
                cost.loads += 1
                cost.int_ops += max(0, len(node.indices) - 1) * 2
