"""Per-nest lowering report: which tier each loop nest executes on, and why.

Every top-level loop nest of a program lands on exactly one lowering tier:

* ``"interpreter"`` — the vectorization analysis rejected the nest (the
  reason says what: calls, scalar accumulators, non-affine bounds, ragged
  enumeration, no vectorizable axis), or the nest is planned but at least
  one assignment cannot be slice-lowered (the per-statement entries say
  which and why).
* ``"fold"`` — every assignment is slice-lowered, so the engine emits the
  nest as one Python function: sequential reduction loops run as ordered
  folds of vectorized view updates, bit-identical to the interpreter.
  This is the tier the default ``"fast"`` engine aims for.
* ``"native"`` — the nest additionally compiles to a C kernel (engine
  ``"native"`` with a working toolchain); the generated source rides the
  report for inspection.

The report is pure analysis — building it executes nothing — so the
compiler's ``engine-lower`` pass can attach it to the
:class:`~repro.compiler.report.CompilationReport` (it is picklable and
travels through the kernel-compile cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.program import Program
from repro.ir.stmt import Loop
from repro.ir.engine.analysis import (
    build_plan_with_reason,
    plan_assigns,
)

#: Tier names, slowest to fastest.
TIERS = ("interpreter", "fold", "native")


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
    #: Generated C source when the nest lowers to the native tier.
    c_source: str = ""

    def summary(self) -> str:
        line = f"{self.nest}: {self.tier}"
        if self.reason:
            line += f" ({self.reason})"
        return line


def _describe_nest(root: Loop) -> str:
    return f"for {root.var} in [{root.lower}, {root.upper})"


def nest_lowering(
    root: Loop, program: Optional[Program] = None, native: bool = False
) -> NestLowering:
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
    c_source = ""
    if native and program is not None:
        from repro.ir.engine.native import generate_nest_source, NativeUnsupported

        try:
            c_source = generate_nest_source(root, program).c_source
            tier = "native"
            reason = ""
        except NativeUnsupported as exc:
            if reason:
                reason += f"; native: {exc}"
            else:
                reason = f"native: {exc}"
    return NestLowering(
        nest=_describe_nest(root),
        tier=tier,
        reason=reason,
        statements=statements,
        c_source=c_source,
    )


def program_lowering_report(
    program: Program, native: bool = False
) -> list[NestLowering]:
    """Lowering report for every top-level loop nest of *program*.

    ``native=True`` additionally attempts the C lowering per nest (pure
    code generation — nothing is compiled or executed here).
    """
    return [
        nest_lowering(stmt, program, native=native)
        for stmt in program.body.stmts
        if isinstance(stmt, Loop)
    ]


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
