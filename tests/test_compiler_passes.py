"""Tests for the pass-manager subsystem (repro.compiler.passes).

The heart of this file is the pipeline-equivalence differential test: the
pass-based default pipeline must reproduce the frozen legacy monolith
(:mod:`repro.compiler.legacy`) bit-identically — program IR, decisions,
fusion groups, tiled kernels, runtime calls — on every PolyBench workload
and across the option space.  Both compilers receive the *same* parsed
program object.
"""

from __future__ import annotations

import pytest

from repro.compiler import (
    CompileOptions,
    PipelineError,
    TdoCimCompiler,
    compile_source,
)
from repro.compiler.legacy import compile_monolithic
from repro.compiler.passes import (
    NAMED_PIPELINES,
    AlwaysOffload,
    BuildScheduleTreesPass,
    DetectScopsPass,
    IsolatePass,
    MatchKernelsPass,
    NeverOffload,
    NormalizeReductionsPass,
    ParsePass,
    PassManager,
    SelectOffloadPass,
    ThresholdPolicy,
    TilingPass,
    build_pipeline,
    estimated_intensity,
    resolve_pass_names,
)
from repro.eval.lifetime import SHARED_INPUT_GEMMS_SOURCE
from repro.frontend import parse_program
from repro.ir.printer import to_source
from repro.workloads import get_kernel, kernel_names

UNCACHED = dict(enable_compile_cache=False)


def _compile_both(source, options, size_hint=None):
    """Compile one parsed program through both implementations."""
    program = parse_program(source)
    pipelined = TdoCimCompiler(options)._compile_uncached(program, size_hint)
    legacy = compile_monolithic(program, options, size_hint)
    return pipelined, legacy


def _assert_identical(pipelined, legacy):
    assert to_source(pipelined.program) == to_source(legacy.program)
    assert to_source(pipelined.source_program) == to_source(legacy.source_program)
    report_a, report_b = pipelined.report, legacy.report
    assert report_a.program == report_b.program
    assert report_a.scop_count == report_b.scop_count
    assert report_a.decisions == report_b.decisions
    assert report_a.fusion_groups == report_b.fusion_groups
    assert report_a.tiled_kernels == report_b.tiled_kernels
    assert report_a.runtime_calls_emitted == report_b.runtime_calls_emitted
    assert len(pipelined.scops) == len(legacy.scops)
    assert len(pipelined.trees) == len(legacy.trees)
    assert [m.update_stmt for m in pipelined.matches] == [
        m.update_stmt for m in legacy.matches
    ]
    assert [m.kind for m in pipelined.matches] == [m.kind for m in legacy.matches]
    assert pipelined.offloaded == legacy.offloaded
    assert [
        [m.call_name for m in mapping.mappings] for mapping in pipelined.mappings
    ] == [[m.call_name for m in mapping.mappings] for mapping in legacy.mappings]


# ----------------------------------------------------------------------
# Pipeline-equivalence differential tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", kernel_names())
def test_default_pipeline_matches_legacy_on_polybench(name):
    kernel = get_kernel(name)
    options = CompileOptions(**UNCACHED)
    pipelined, legacy = _compile_both(
        kernel.source, options, size_hint=kernel.params("SMALL")
    )
    _assert_identical(pipelined, legacy)


@pytest.mark.parametrize("name", kernel_names())
def test_two_compiles_of_one_input_decide_identically(name):
    """Statement names are numbered per parse, so the decisions of two
    compiles of one source are equal, names included."""
    kernel = get_kernel(name)
    first, second = (
        compile_source(kernel.source, CompileOptions(**UNCACHED), size_hint=kernel.params("SMALL"))
        for _ in range(2)
    )
    assert first.report.decisions
    assert first.report.decisions == second.report.decisions


@pytest.mark.parametrize("name", kernel_names())
def test_default_pipeline_matches_legacy_without_size_hint(name):
    pipelined, legacy = _compile_both(
        get_kernel(name).source, CompileOptions(**UNCACHED)
    )
    _assert_identical(pipelined, legacy)


@pytest.mark.parametrize(
    "options",
    [
        CompileOptions(enable_offload=False, **UNCACHED),
        CompileOptions(enable_fusion=False, **UNCACHED),
        CompileOptions(enable_tiling=True, crossbar_rows=16, crossbar_cols=16, **UNCACHED),
        CompileOptions(min_macs_per_write=32.0, **UNCACHED),
        CompileOptions(offload_kinds=("gemm",), **UNCACHED),
        CompileOptions(offload_policy="always", **UNCACHED),
        CompileOptions(offload_policy="never", **UNCACHED),
        CompileOptions(fusion_requires_shared_input=True, **UNCACHED),
    ],
    ids=[
        "no-offload",
        "no-fusion-flag",
        "tiling",
        "selective",
        "gemm-only",
        "always-policy",
        "never-policy",
        "shared-input-fusion",
    ],
)
@pytest.mark.parametrize("name", ["2mm", "gemm", "mvt", "conv"])
def test_option_space_matches_legacy(name, options):
    kernel = get_kernel(name)
    pipelined, legacy = _compile_both(
        kernel.source, options, size_hint=kernel.params("SMALL")
    )
    _assert_identical(pipelined, legacy)


def test_fusion_source_matches_legacy():
    pipelined, legacy = _compile_both(
        SHARED_INPUT_GEMMS_SOURCE, CompileOptions(**UNCACHED), size_hint={"N": 32}
    )
    _assert_identical(pipelined, legacy)
    assert pipelined.report.fusion_groups  # the differential is non-trivial


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def test_pass_timings_populated_for_every_pass():
    kernel = get_kernel("gemm")
    result = compile_source(kernel.source, options=CompileOptions(**UNCACHED))
    names = [timing.name for timing in result.report.pass_timings]
    assert names == list(resolve_pass_names("default"))
    assert all(t.wall_time_s >= 0.0 for t in result.report.pass_timings)
    assert result.report.pass_timings[-1].name == "engine-lower"
    assert result.report.timing_summary()


def test_dump_ir_after_records_snapshots():
    kernel = get_kernel("gemm")
    options = CompileOptions(dump_ir_after=("parse", "lower"), **UNCACHED)
    result = compile_source(kernel.source, options=options)
    assert set(result.report.ir_dumps) == {"parse", "lower"}
    assert result.report.ir_dumps["lower"] == to_source(result.program)
    assert "polly_cim" in result.report.ir_dumps["lower"]
    assert "polly_cim" not in result.report.ir_dumps["parse"]


# ----------------------------------------------------------------------
# Pipeline composition and ordering
# ----------------------------------------------------------------------
def test_tiling_before_isolate_raises_pipeline_error():
    with pytest.raises(PipelineError, match="isolated-kernels"):
        PassManager(
            [
                ParsePass(),
                NormalizeReductionsPass(),
                DetectScopsPass(),
                BuildScheduleTreesPass(),
                MatchKernelsPass(),
                SelectOffloadPass(),
                TilingPass(),
                IsolatePass(),
            ]
        )


def test_pipeline_error_names_the_offending_pass():
    with pytest.raises(PipelineError, match="'tiling'"):
        build_pipeline(["parse", "tiling"])


def test_unknown_pipeline_and_pass_names_raise():
    with pytest.raises(PipelineError, match="unknown pipeline"):
        CompileOptions(pipeline="bogus")
    with pytest.raises(PipelineError, match="unknown pass"):
        CompileOptions(pipeline=["parse", "frobnicate"])
    with pytest.raises(ValueError, match="unknown offload policy"):
        CompileOptions(offload_policy="sometimes")


def test_empty_pipeline_rejected():
    with pytest.raises(PipelineError):
        PassManager([])


def test_fusion_or_tiling_after_device_map_rejected():
    # Too-late ordering: once device-map rewrote the kernels into runtime
    # calls, fusion/tiling would only decorate the report with
    # transformations the generated program does not contain.
    front = list(resolve_pass_names("default"))
    front.remove("fusion")
    front.insert(front.index("lower"), "fusion")  # ... device-map, fusion, lower
    with pytest.raises(PipelineError, match="must run before"):
        build_pipeline(front)
    front = list(resolve_pass_names("default"))
    front.remove("tiling")
    front.insert(front.index("lower"), "tiling")
    with pytest.raises(PipelineError, match="must run before"):
        build_pipeline(front)


def test_unknown_dump_ir_after_name_rejected():
    with pytest.raises(ValueError, match="dump_ir_after"):
        CompileOptions(dump_ir_after=("lowering",))  # typo for "lower"


def test_named_pipelines_resolve():
    assert set(NAMED_PIPELINES) >= {"default", "no-fusion", "detect-only"}
    for name in NAMED_PIPELINES:
        manager = build_pipeline(name)
        assert manager.pass_names == list(resolve_pass_names(name))
        assert manager.description == name


def test_no_fusion_pipeline_disables_fusion_only():
    options = CompileOptions(pipeline="no-fusion", **UNCACHED)
    result = compile_source(SHARED_INPUT_GEMMS_SOURCE, options=options)
    assert not result.report.fusion_groups
    assert result.report.offloaded_kernels == 2
    assert result.report.runtime_calls_emitted.count("polly_cimBlasSGemm") == 2
    default = compile_source(
        SHARED_INPUT_GEMMS_SOURCE, options=CompileOptions(**UNCACHED)
    )
    assert default.report.fusion_groups
    assert default.report.runtime_calls_emitted == ["polly_cimBlasGemmBatched"]


def test_detect_only_pipeline_transforms_nothing():
    options = CompileOptions(pipeline="detect-only", **UNCACHED)
    result = compile_source(get_kernel("gemm").source, options=options)
    assert result.program is result.source_program
    assert result.report.scop_count == 1
    assert result.matches and all(m.kind for m in result.matches)
    assert not result.report.decisions
    assert not result.mappings
    assert [t.name for t in result.report.pass_timings] == list(
        resolve_pass_names("detect-only")
    )


def test_explicit_pass_list_pipeline():
    options = CompileOptions(
        pipeline=["parse", "normalize-reductions", "detect-scops"], **UNCACHED
    )
    result = compile_source(get_kernel("gemm").source, options=options)
    assert result.report.scop_count == 1
    assert not result.matches


def test_pipeline_is_part_of_cache_fingerprint():
    from repro.compiler.cache import compile_fingerprint

    source = get_kernel("gemm").source
    default_key = compile_fingerprint(source, CompileOptions(), None)
    detect_key = compile_fingerprint(
        source, CompileOptions(pipeline="detect-only"), None
    )
    assert default_key != detect_key


# ----------------------------------------------------------------------
# Offload policies
# ----------------------------------------------------------------------
def test_always_offload_policy_ignores_threshold_and_kinds():
    kernel = get_kernel("mvt")  # gemv-like: rejected by both filters below
    options = CompileOptions(
        offload_policy="always",
        offload_kinds=("gemm",),
        min_macs_per_write=1e9,
        **UNCACHED,
    )
    result = compile_source(
        kernel.source, options=options, size_hint=kernel.params("SMALL")
    )
    assert result.report.offloaded_kernels == result.report.detected_kernels > 0
    assert all("always-offload" in d.reason for d in result.report.decisions)


def test_never_offload_policy_keeps_everything_on_host():
    kernel = get_kernel("gemm")
    options = CompileOptions(offload_policy="never", **UNCACHED)
    result = compile_source(
        kernel.source, options=options, size_hint=kernel.params("SMALL")
    )
    assert result.report.offloaded_kernels == 0
    assert result.report.detected_kernels > 0
    assert not result.offloaded
    # Intensity is still estimated for the report.
    assert any(
        d.estimated_macs_per_write is not None for d in result.report.decisions
    )


def test_policy_instance_override_disables_cache():
    compiler = TdoCimCompiler(CompileOptions(), policy=AlwaysOffload())
    assert compiler.cache is None
    result = compiler.compile(get_kernel("gemm").source)
    assert result.report.offloaded_kernels == result.report.detected_kernels


def test_policy_registry_round_trip():
    from repro.compiler.passes import POLICY_REGISTRY, resolve_policy

    for name, cls in POLICY_REGISTRY.items():
        assert isinstance(resolve_policy(name), cls)
    assert isinstance(resolve_policy("threshold"), ThresholdPolicy)
    assert NeverOffload.name in POLICY_REGISTRY


# ----------------------------------------------------------------------
# Intensity estimation (satellite fixes)
# ----------------------------------------------------------------------
def test_missing_extent_recorded_in_decision_reason():
    kernel = get_kernel("gemm")
    options = CompileOptions(**UNCACHED)
    # Size hint present but missing the loop-extent parameters: the kernel
    # is still offloaded (the heuristic cannot reject it), and the reason
    # records why no intensity estimate exists.
    result = compile_source(
        kernel.source, options=options, size_hint={"alpha": 1.5}
    )
    offloaded = [d for d in result.report.decisions if d.offloaded]
    assert offloaded
    assert all(d.estimated_macs_per_write is None for d in offloaded)
    assert any("size hint missing extent" in d.reason for d in offloaded)


def test_complete_size_hint_reason_is_clean():
    kernel = get_kernel("gemm")
    result = compile_source(
        kernel.source,
        options=CompileOptions(**UNCACHED),
        size_hint=kernel.params("SMALL"),
    )
    offloaded = [d for d in result.report.decisions if d.offloaded]
    assert offloaded
    assert all(d.reason == "pattern matched by Loop Tactics" for d in offloaded)
    assert all(d.estimated_macs_per_write is not None for d in offloaded)


def test_estimated_intensity_none_without_hint():
    program = parse_program(get_kernel("gemm").source)
    options = CompileOptions(pipeline="detect-only", **UNCACHED)
    result = compile_source(program, options=options)
    match = result.matches[0]
    assert estimated_intensity(match, None) == (None, None)
    intensity, note = estimated_intensity(match, {"NI": 8, "NJ": 8, "NK": 8})
    assert intensity is not None and note is None
    intensity, note = estimated_intensity(match, {"NI": 8})
    assert intensity is None and "size hint missing extent" in note


# ----------------------------------------------------------------------
# Options snapshot (satellite regression test)
# ----------------------------------------------------------------------
def test_cached_options_snapshot_is_deep():
    from repro.compiler.cache import KernelCompileCache

    dump_list = ["parse"]
    options = CompileOptions(dump_ir_after=dump_list)
    compiler = TdoCimCompiler(options, cache=KernelCompileCache())
    result = compiler.compile(get_kernel("gemm").source)
    # Mutating the caller's list after compile must not leak into the
    # cached artifact's options snapshot.
    dump_list.append("lower")
    assert list(result.options.dump_ir_after) == ["parse"]
    assert result.options is not options


def test_uncached_result_keeps_live_options():
    options = CompileOptions(**UNCACHED)
    compiler = TdoCimCompiler(options)
    result = compiler.compile(get_kernel("gemm").source)
    assert result.options is options
