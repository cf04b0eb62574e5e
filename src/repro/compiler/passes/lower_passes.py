"""Lowering: regenerate IR from the transformed trees and reassemble."""

from __future__ import annotations

from repro.compiler.passes.base import Pass
from repro.compiler.passes.context import CompilationContext
from repro.codegen.lowering import reassemble_program
from repro.ir.stmt import Stmt
from repro.poly.astgen import generate_ir
from repro.poly.scop import Scop


class LowerPass(Pass):
    """AST regeneration + program reassembly (the Polly codegen stage).

    With offloading disabled or no SCoP detected, the compiled program *is*
    the (normalised) input program — no regeneration happens, exactly as in
    the original monolithic driver, so the ``-O3`` host baseline round-trips
    the input byte-for-byte.
    """

    name = "lower"
    requires = ("device-mapping",)
    provides = ("lowered-program",)

    def run(self, ctx: CompilationContext) -> None:
        if not ctx.scops or not ctx.options.enable_offload:
            return
        replacements: list[tuple[Scop, list[Stmt]]] = [
            (scop, generate_ir(tree))
            for scop, tree in zip(ctx.scops, ctx.trees)
        ]
        ctx.program = reassemble_program(
            ctx.program, replacements, add_init_call=ctx.anything_offloaded
        )


class EngineLowerPass(Pass):
    """Classify every loop nest of the compiled program onto its engine tier.

    Runs the engine's lowering analysis (see
    :mod:`repro.ir.engine.lowering`) over the lowered program and attaches
    the per-nest report to ``CompilationReport.nest_lowerings`` — which
    tier (interpreter / fold) each nest executes on and, for the
    interpreter, the reason.  Pure analysis: the program is not modified,
    nothing is compiled or executed, and no C is generated (a nest's C
    body is written at its first run, where the toolchain is checked), so
    the report is the same for every engine and machine and safe to share
    through the on-disk compile cache.
    """

    name = "engine-lower"
    requires = ("lowered-program",)
    provides = ("engine-lowering",)

    def run(self, ctx: CompilationContext) -> None:
        from repro.ir.engine.lowering import program_lowering_report

        if ctx.program is not None:
            ctx.report.nest_lowerings = program_lowering_report(ctx.program)
