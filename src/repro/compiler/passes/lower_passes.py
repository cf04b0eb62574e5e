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

    Under the ``"never"`` offload policy or with no SCoP detected, the
    compiled program *is* the (normalised) input program — no regeneration
    happens, so the ``-O3`` host baseline round-trips the input
    byte-for-byte.
    """

    name = "lower"

    def run(self, ctx: CompilationContext) -> None:
        if not ctx.scops or ctx.options.offload_policy == "never":
            return
        replacements: list[tuple[Scop, list[Stmt]]] = [
            (scop, generate_ir(tree))
            for scop, tree in zip(ctx.scops, ctx.trees)
        ]
        ctx.program = reassemble_program(
            ctx.program, replacements, add_init_call=ctx.anything_offloaded
        )

