"""Per-nest lowering report: which tier each loop nest executes on, and why.

Every top-level loop nest of a program lands on exactly one lowering tier:

* ``"interpreter"`` — the vectorization analysis rejected the nest (the
  reason says what: calls, scalar accumulators, non-affine bounds, ragged
  enumeration, no vectorizable axis), or the nest is planned but at least
  one assignment cannot be slice-lowered (the per-statement entries say
  which and why).
* ``"fold"`` — every assignment is slice-lowered, so the engine emits the
  nest as one kernel: a guard, a C body (run when the C toolchain is
  present) and a fold body, in which sequential reduction loops run as
  ordered folds of vectorized view updates.  Both bodies are
  bit-identical to the interpreter.

The report is pure analysis — building it executes, generates and
compiles nothing (a C body is written at the nest's first run) — so the
compiler's ``engine-lower`` pass can attach it to the
:class:`~repro.compiler.report.CompilationReport` (it is picklable and
travels through the kernel-compile cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.program import Program
from repro.ir.stmt import Loop
from repro.ir.engine.analysis import (
    build_plan_with_reason,
    plan_assigns,
)

#: Tier names, slowest to fastest.
TIERS = ("interpreter", "fold")


@dataclass
class StatementLowering:
    """Lowering outcome of one assignment inside a planned nest."""

    statement: str
    tier: str
    reason: str = ""


@dataclass
class NestLowering:
    """Lowering outcome of one top-level loop nest."""

    nest: str
    tier: str
    reason: str = ""
    statements: list[StatementLowering] = field(default_factory=list)

    def summary(self) -> str:
        line = f"{self.nest}: {self.tier}"
        if self.reason:
            line += f" ({self.reason})"
        return line


def _describe_nest(root: Loop) -> str:
    return f"for {root.var} in [{root.lower}, {root.upper})"


def nest_lowering(root: Loop) -> NestLowering:
    """Classify one top-level loop nest onto its lowering tier."""
    plan, reason = build_plan_with_reason(root)
    if plan is None:
        return NestLowering(
            nest=_describe_nest(root), tier="interpreter", reason=reason
        )
    statements = [
        StatementLowering(
            statement=str(assign.stmt),
            tier="fold" if assign.fold is not None else "interpreter",
            reason=assign.fold_reason,
        )
        for assign in plan_assigns(plan)
    ]
    refusals = [s.reason for s in statements if s.tier == "interpreter"]
    tier = "interpreter" if refusals else "fold"
    reason = "; ".join(dict.fromkeys(refusals))
    return NestLowering(
        nest=_describe_nest(root), tier=tier, reason=reason, statements=statements
    )


def program_lowering_report(program: Program) -> list[NestLowering]:
    """Lowering report for every top-level loop nest of *program*."""
    return [nest_lowering(stmt) for stmt in program.body.stmts if isinstance(stmt, Loop)]


def tier_histogram(report: list[NestLowering]) -> dict[str, int]:
    """Nest count per tier (all tiers present, zero-filled)."""
    counts = {tier: 0 for tier in TIERS}
    for nest in report:
        counts[nest.tier] = counts.get(nest.tier, 0) + 1
    return counts


__all__ = [
    "NestLowering",
    "StatementLowering",
    "TIERS",
    "nest_lowering",
    "program_lowering_report",
    "tier_histogram",
]
