"""The pre-pass-manager monolithic pipeline, kept as a frozen reference.

This is the straight-line ``_compile_uncached`` the driver shipped before
the pass-manager refactor (one function running the whole Figure 4 flow
per SCoP).  It exists for exactly one purpose: the pipeline-equivalence
differential test compares the pass-based default pipeline against it,
bit-identically, on every PolyBench workload.

Do **not** refactor this control flow to share structure with the pass
subsystem — its value is being an independent expression of the same
semantics.  The only shared pieces are the leaf utilities both sides must
agree on verbatim (the :class:`OffloadPolicy` selection strategies and the
compute-intensity estimator).

Never caches; never records pass timings.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from repro.codegen.lowering import reassemble_program
from repro.compiler.options import CompileOptions
from repro.compiler.passes.policy import resolve_policy
from repro.compiler.report import CompilationReport, KernelDecision
from repro.frontend.parser import parse_program
from repro.ir.normalize import normalize_reductions
from repro.ir.program import Program
from repro.ir.stmt import Stmt
from repro.poly.astgen import generate_ir
from repro.poly.dependence import compute_dependences
from repro.poly.schedule_build import build_schedule_tree
from repro.poly.scop import Scop, detect_scops
from repro.tactics.patterns import GemmMatch, KernelMatch, find_all_kernels
from repro.transforms.device_map import map_kernels_to_cim
from repro.transforms.distribution import isolate_match
from repro.transforms.fusion import FusionGroup, find_fusable_groups
from repro.transforms.tiling import TilingError, tile_gemm_for_crossbar


def compile_monolithic(
    source: Union[str, Program],
    options: Optional[CompileOptions] = None,
    size_hint: Optional[Mapping[str, int | float]] = None,
):
    """Run the legacy single-function pipeline; returns a
    :class:`~repro.compiler.driver.CompilationResult`."""
    from repro.compiler.driver import CompilationResult

    options = options or CompileOptions()
    policy = resolve_policy(options.offload_policy)
    hints = dict(size_hint) if size_hint is not None else None

    program = parse_program(source) if isinstance(source, str) else source
    program = normalize_reductions(program)
    report = CompilationReport(program=program.name)

    scops = detect_scops(program)
    report.scop_count = len(scops)
    result = CompilationResult(
        source_program=program,
        program=program,
        report=report,
        scops=scops,
        options=options,
    )
    if not scops or not options.enable_offload:
        # Nothing to do: the "compiled" program is the input program.
        for scop in scops:
            tree = build_schedule_tree(scop)
            result.trees.append(tree)
            for match in find_all_kernels(scop):
                result.matches.append(match)
                report.decisions.append(
                    KernelDecision(
                        scop=scop.name,
                        statement=match.update_stmt,
                        kind=match.kind,
                        offloaded=False,
                        reason="offloading disabled",
                    )
                )
        return result

    replacements: list[tuple[Scop, list[Stmt]]] = []
    anything_offloaded = False
    for scop in scops:
        tree = build_schedule_tree(scop)
        result.trees.append(tree)
        matches = find_all_kernels(scop)
        result.matches.extend(matches)

        selected, decisions = policy.select(scop, matches, options, hints)

        # Isolate each selected kernel into its own loop nest (loop
        # distribution); kernels that cannot be isolated legally stay on
        # the host.
        isolated: list[KernelMatch] = []
        for match in selected:
            if isolate_match(tree, match, compute_dependences(scop)):
                isolated.append(match)
            else:
                for decision in decisions:
                    if decision.statement == match.update_stmt:
                        decision.offloaded = False
                        decision.reason = (
                            "kernel shares its loop nest with other statements "
                            "and loop distribution is not legal"
                        )
        selected = isolated
        report.decisions.extend(decisions)

        groups: list[FusionGroup] = []
        if options.enable_fusion and len(selected) > 1:
            groups = find_fusable_groups(
                scop,
                selected,
                require_shared_input=options.fusion_requires_shared_input,
            )
            for group in groups:
                names = [m.update_stmt for m in group.matches]
                report.fusion_groups.append(names)
                for decision in report.decisions:
                    if decision.statement in names:
                        decision.fused_with = [
                            n for n in names if n != decision.statement
                        ]

        if options.enable_tiling:
            for match in selected:
                if isinstance(match, GemmMatch):
                    try:
                        tile_gemm_for_crossbar(
                            tree,
                            match,
                            options.crossbar_rows,
                            options.crossbar_cols,
                        )
                        report.tiled_kernels.append(match.update_stmt)
                    except TilingError:
                        # Imperfect nests (init statement inside) are left
                        # untiled; the micro-engine still tiles internally.
                        pass

        if selected:
            mapping = map_kernels_to_cim(tree, selected, groups)
            result.mappings.append(mapping)
            anything_offloaded = anything_offloaded or mapping.any_offloaded
            report.runtime_calls_emitted.extend(
                m.call_name for m in mapping.mappings
            )
        replacements.append((scop, generate_ir(tree)))

    compiled = reassemble_program(
        program, replacements, add_init_call=anything_offloaded
    )
    result.program = compiled
    return result
