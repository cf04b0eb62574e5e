"""Front-of-pipeline passes: parse, normalise, detect SCoPs, build trees."""

from __future__ import annotations

from repro.compiler.passes.base import Pass
from repro.compiler.passes.context import CompilationContext
from repro.frontend.parser import parse_program
from repro.ir.normalize import normalize_reductions
from repro.ir.program import Program
from repro.poly.schedule_build import build_schedule_tree
from repro.poly.scop import detect_scops


class ParsePass(Pass):
    """Mini-C source → loop-nest IR (a no-op for IR-program inputs)."""

    name = "parse"

    def run(self, ctx: CompilationContext) -> None:
        source = ctx.source
        ctx.program = parse_program(source) if isinstance(source, str) else source
        assert isinstance(ctx.program, Program)
        ctx.source_program = ctx.program
        ctx.report.program = ctx.program.name


class NormalizeReductionsPass(Pass):
    """Rewrite reductions into canonical ``+=`` form (Loop Tactics input)."""

    name = "normalize-reductions"

    def run(self, ctx: CompilationContext) -> None:
        ctx.program = normalize_reductions(ctx.program)
        ctx.source_program = ctx.program
        ctx.report.program = ctx.program.name


class DetectScopsPass(Pass):
    """Find the static control parts (the Polly SCoP-detection stage)."""

    name = "detect-scops"

    def run(self, ctx: CompilationContext) -> None:
        ctx.scops = detect_scops(ctx.program)
        ctx.dependences_by_scop = [None] * len(ctx.scops)
        ctx.report.scop_count = len(ctx.scops)


class BuildScheduleTreesPass(Pass):
    """Construct one schedule tree per SCoP (the isl schedule stage)."""

    name = "build-schedule-trees"

    def run(self, ctx: CompilationContext) -> None:
        ctx.trees = [build_schedule_tree(scop) for scop in ctx.scops]
