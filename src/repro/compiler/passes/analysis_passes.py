"""Analysis passes: Loop Tactics matching and offload selection."""

from __future__ import annotations

from typing import Optional

from repro.compiler.passes.base import Pass
from repro.compiler.passes.context import CompilationContext
from repro.compiler.passes.policy import OffloadPolicy, resolve_policy
from repro.compiler.report import KernelDecision
from repro.tactics.patterns import find_all_kernels


class MatchKernelsPass(Pass):
    """Match every SCoP's statements against the kernel specs."""

    name = "match-kernels"
    requires = ("schedule-trees",)
    provides = ("kernel-matches",)

    def run(self, ctx: CompilationContext) -> None:
        ctx.matches_by_scop = [find_all_kernels(scop) for scop in ctx.scops]


class SelectOffloadPass(Pass):
    """Apply the offloading policy to the detected kernels.

    The policy is a swappable :class:`OffloadPolicy` strategy — an explicit
    instance given at construction wins, otherwise the name in
    ``CompileOptions.offload_policy`` is resolved.  With
    ``options.enable_offload`` unset (the plain ``-O3`` host baseline) the
    policy is bypassed entirely and every kernel is reported as kept on the
    host, mirroring the original monolithic driver.
    """

    name = "select-offload"
    requires = ("kernel-matches",)
    provides = ("offload-selection",)

    def __init__(self, policy: Optional[OffloadPolicy] = None):
        self.policy = policy

    def run(self, ctx: CompilationContext) -> None:
        ctx.selected_by_scop = []
        ctx.decisions_by_scop = []
        if not ctx.options.enable_offload:
            for scop, matches in zip(ctx.scops, ctx.matches_by_scop):
                decisions = [
                    KernelDecision(
                        scop=scop.name,
                        statement=match.update_stmt,
                        kind=match.kind,
                        offloaded=False,
                        reason="offloading disabled",
                    )
                    for match in matches
                ]
                ctx.selected_by_scop.append([])
                ctx.decisions_by_scop.append(decisions)
                ctx.report.decisions.extend(decisions)
            return
        policy = self.policy or resolve_policy(ctx.options.offload_policy)
        for scop, matches in zip(ctx.scops, ctx.matches_by_scop):
            selected, decisions = policy.select(
                scop, matches, ctx.options, ctx.size_hint_values
            )
            ctx.selected_by_scop.append(selected)
            ctx.decisions_by_scop.append(decisions)
            ctx.report.decisions.extend(decisions)
