"""Tests for the pass-manager subsystem (repro.compiler.passes): pass
ordering, instrumentation, named and explicit pipelines, the offload
policies and the intensity estimate.  What the default pipeline prints
and decides is pinned by ``tests/test_compiler_golden.py``.
"""

from __future__ import annotations

import sys

import pytest

from repro.compiler import (
    CompileOptions,
    PipelineError,
    TdoCimCompiler,
    compile_source,
)
from repro.compiler.passes import (
    NAMED_PIPELINES,
    OFFLOAD_POLICIES,
    BuildScheduleTreesPass,
    DetectScopsPass,
    IsolatePass,
    MatchKernelsPass,
    NormalizeReductionsPass,
    ParsePass,
    PassManager,
    SelectOffloadPass,
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


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
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


@pytest.mark.parametrize(
    "changes, match",
    [
        (dict(offload_kinds=("gemmm",)), "unknown kernel kind 'gemmm'"),
        (dict(offload_kinds="gemm"), "offload_kinds takes a sequence"),
        (dict(dump_ir_after="lower"), "dump_ir_after takes a sequence"),
        (dict(enable_tiling=True, crossbar_rows=0), "crossbar_rows must be a positive int"),
        (dict(enable_tiling=True, crossbar_cols=-4), "crossbar_cols must be a positive int"),
        (dict(crossbar_rows=256.0), "crossbar_rows must be a positive int"),
        (dict(crossbar_cols=True), "crossbar_cols must be a positive int"),
        (dict(min_macs_per_write=float("nan")), "min_macs_per_write must be"),
        (dict(min_macs_per_write=-1.0), "min_macs_per_write must be"),
    ],
    ids=[
        "unknown-kind", "kinds-string", "dump-string", "zero-rows", "negative-cols",
        "float-rows", "bool-cols", "nan-threshold", "negative-threshold",
    ],
)
def test_options_reject_values_they_cannot_mean(changes, match):
    with pytest.raises(ValueError, match=match):
        CompileOptions(**changes)


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


def test_policy_registry_round_trip():
    """The registry is the tuple of names ``offload_policy`` accepts."""
    for name in OFFLOAD_POLICIES:
        assert CompileOptions(offload_policy=name).offload_policy == name
    assert OFFLOAD_POLICIES == ("threshold", "always", "never")


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


@pytest.mark.parametrize(
    "kernel, kind, intensity, partial_hint, missing",
    [
        ("gemm", "gemm", 14.0, {"NI": 12}, "NJ"),
        ("atax", "gemv", 1.0, {"M": 14}, "N"),
        ("conv", "conv2d", 80.0, {"OH": 8, "OW": 10}, "KH"),
    ],
)
def test_estimated_intensity_per_kind(kernel, kind, intensity, partial_hint, missing):
    workload = get_kernel(kernel)
    options = CompileOptions(pipeline="detect-only", **UNCACHED)
    match = compile_source(workload.source, options=options).matches[0]
    assert match.kind == kind
    assert estimated_intensity(match, workload.params("MINI")) == (intensity, None)
    assert estimated_intensity(match, partial_hint) == (
        None, f"size hint missing extent: {missing!r}"
    )


# ----------------------------------------------------------------------
# Options are a value
# ----------------------------------------------------------------------
def test_cached_result_options_do_not_follow_the_callers_list():
    from repro.compiler.cache import KernelCompileCache

    dump_list = ["parse"]
    options = CompileOptions(dump_ir_after=dump_list)
    compiler = TdoCimCompiler(options, cache=KernelCompileCache())
    result = compiler.compile(get_kernel("gemm").source)
    # The list was stored as a tuple at construction, so mutating the
    # caller's list after compile cannot leak into the cached artifact.
    dump_list.append("lower")
    assert list(result.options.dump_ir_after) == ["parse"]
    assert result.options is options


def test_uncached_result_keeps_live_options():
    options = CompileOptions(**UNCACHED)
    compiler = TdoCimCompiler(options)
    result = compiler.compile(get_kernel("gemm").source)
    assert result.options is options


# ----------------------------------------------------------------------
# Facts computed once per compile
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ["bicg", "gesummv", "atax"])
def test_dependences_are_computed_once_per_scop(kernel, monkeypatch):
    """These kernels share a nest between two contractions, so isolating
    them takes several distribution steps; all of them share one list."""
    import repro.poly.dependence as dependence

    original = dependence.compute_dependences
    scops = []

    def counting(scop):
        scops.append(scop)
        return original(scop)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "compute_dependences", None) is original:
            monkeypatch.setattr(module, "compute_dependences", counting)
    spec = get_kernel(kernel)
    result = compile_source(spec.source, CompileOptions(**UNCACHED), spec.params("MEDIUM"))
    assert sum(decision.offloaded for decision in result.report.decisions) == 2
    assert scops, "isolating these kernels needs dependences"
    assert len({id(scop) for scop in scops}) == len(scops) <= len(result.scops)
    assert all(any(scop is s for s in result.scops) for scop in scops)
