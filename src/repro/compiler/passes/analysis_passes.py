"""Analysis passes: Loop Tactics matching and offload selection."""

from __future__ import annotations

from repro.compiler.passes.base import Pass
from repro.compiler.passes.context import CompilationContext
from repro.compiler.passes.policy import decide_offload
from repro.tactics.patterns import find_all_kernels


class MatchKernelsPass(Pass):
    """Match every SCoP's statements against the kernel specs."""

    name = "match-kernels"

    def run(self, ctx: CompilationContext) -> None:
        ctx.matches_by_scop = [find_all_kernels(scop) for scop in ctx.scops]


class SelectOffloadPass(Pass):
    """Decide, per detected kernel, whether it is offloaded
    (:func:`~repro.compiler.passes.policy.decide_offload`)."""

    name = "select-offload"

    def run(self, ctx: CompilationContext) -> None:
        ctx.selected_by_scop = []
        ctx.decisions_by_scop = []
        for scop, matches in zip(ctx.scops, ctx.matches_by_scop):
            decisions = [
                decide_offload(scop, match, ctx.options, ctx.size_hint_values)
                for match in matches
            ]
            ctx.selected_by_scop.append(
                [match for match, decision in zip(matches, decisions) if decision.offloaded]
            )
            ctx.decisions_by_scop.append(decisions)
            ctx.report.decisions.extend(decisions)
