"""Transformation passes: loop distribution, fusion, tiling, device mapping."""

from __future__ import annotations

from repro.compiler.passes.base import Pass
from repro.compiler.passes.context import CompilationContext
from repro.tactics.patterns import KernelMatch
from repro.transforms.device_map import map_kernels_to_cim
from repro.transforms.distribution import isolate_match, owns_nest
from repro.transforms.fusion import FusionGroup, find_fusable_groups
from repro.transforms.tiling import TilingError, tile_gemm_for_crossbar


class IsolatePass(Pass):
    """Isolate each selected kernel into its own loop nest.

    Loop distribution is attempted per kernel; kernels that cannot be
    legally isolated are dropped from the selection and their decision is
    flipped back to "kept on host" with the legality reason.  A SCoP's
    dependences are computed only when one of its kernels needs
    distributing.
    """

    name = "isolate"

    def run(self, ctx: CompilationContext) -> None:
        for index, tree in enumerate(ctx.trees):
            selected = ctx.selected_by_scop[index]
            decisions = ctx.decisions_by_scop[index]
            isolated: list[KernelMatch] = []
            for match in selected:
                if owns_nest(tree, match) or isolate_match(
                    tree, match, ctx.dependences(index)
                ):
                    isolated.append(match)
                else:
                    for decision in decisions:
                        if decision.statement == match.update_stmt:
                            decision.offloaded = False
                            decision.reason = (
                                "kernel shares its loop nest with other statements "
                                "and loop distribution is not legal"
                            )
            ctx.selected_by_scop[index] = isolated


class FusionPass(Pass):
    """Group adjacent independent kernels into batched runtime calls."""

    name = "fusion"

    def run(self, ctx: CompilationContext) -> None:
        ctx.groups_by_scop = []
        for index, scop in enumerate(ctx.scops):
            selected = ctx.selected_by_scop[index]
            groups: list[FusionGroup] = []
            if len(selected) > 1:
                groups = find_fusable_groups(
                    scop,
                    selected,
                    require_shared_input=ctx.options.fusion_requires_shared_input,
                )
                for group in groups:
                    names = [m.update_stmt for m in group.matches]
                    ctx.report.fusion_groups.append(names)
                    for decision in ctx.report.decisions:
                        if decision.statement in names:
                            decision.fused_with = [
                                n for n in names if n != decision.statement
                            ]
            ctx.groups_by_scop.append(groups)


class TilingPass(Pass):
    """Apply the Listing 3 crossbar-aware tiling to oversized GEMMs."""

    name = "tiling"

    def run(self, ctx: CompilationContext) -> None:
        if not ctx.options.enable_tiling:
            return
        for index, tree in enumerate(ctx.trees):
            for match in ctx.selected_by_scop[index]:
                try:
                    tile_gemm_for_crossbar(
                        tree,
                        match,
                        ctx.options.crossbar_rows,
                        ctx.options.crossbar_cols,
                    )
                    ctx.report.tiled_kernels.append(match.update_stmt)
                except TilingError:
                    # Other kinds, and imperfect nests (init statement
                    # inside), are left untiled; the micro-engine still
                    # tiles internally.
                    pass


class DeviceMapPass(Pass):
    """Rewrite the selected kernels into CIM runtime calls in the trees."""

    name = "device-map"

    def run(self, ctx: CompilationContext) -> None:
        for index, tree in enumerate(ctx.trees):
            selected = ctx.selected_by_scop[index]
            if not selected:
                continue
            mapping = map_kernels_to_cim(tree, selected, ctx.groups_for(index))
            ctx.mappings.append(mapping)
            ctx.anything_offloaded = ctx.anything_offloaded or mapping.any_offloaded
            ctx.report.runtime_calls_emitted.extend(
                m.call_name for m in mapping.mappings
            )
