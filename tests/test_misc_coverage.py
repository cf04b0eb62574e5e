"""Additional coverage: runtime-call rendering, options, errors."""

import inspect

import numpy as np
import pytest

from repro.codegen.runtime_calls import (
    ALL_RUNTIME_CALLS,
    BatchedGemmCallArgs,
    CopyCallArgs,
    InitCallArgs,
    KernelCallArgs,
    MallocCallArgs,
)
from repro.compiler import CompileOptions
from repro.hw.microengine import Conv2DRequest, GemmRequest
from repro.ir.expr import IntConst, ParamRef
from repro.runtime.blas import CimBlas
from repro.tactics.patterns import KERNEL_SPECS
from repro.workloads import PAPER_KERNELS, get_kernel


# ----------------------------------------------------------------------
# Runtime call argument rendering (Listing 1 fidelity)
# ----------------------------------------------------------------------
def _call_args(kind, *values):
    """A kind's payload with *values* in its layout's order."""
    spec = next(spec for spec in KERNEL_SPECS if spec.kind == kind)
    return KernelCallArgs(spec.entry, tuple(zip(spec.layout, values, strict=True)), {},
                          spec.stationary)


def test_runtime_call_arg_rendering():
    m, n, k = ParamRef("M"), ParamRef("N"), ParamRef("K")
    alpha, beta = ParamRef("alpha"), ParamRef("beta")
    gemm = _call_args(
        "gemm", False, True, m, n, k, alpha, "cim_A", k, "cim_B", n, beta, "cim_C", n
    )
    assert str(gemm) == (
        "CimNoTrans, CimTrans, M, N, K, &alpha, cim_A, K, cim_B, N, &beta, cim_C, N"
    )
    assert str(InitCallArgs(0)) == "0"
    assert str(MallocCallArgs("cim_A", "A", m)) == "(void**)&cim_A, M"
    assert str(CopyCallArgs("cim_C", "C", m)) == "cim_C, C, M"
    gemv = _call_args("gemv", True, m, n, alpha, "cim_A", n, "cim_x", beta, "cim_y")
    assert str(gemv) == "CimTrans, M, N, &alpha, cim_A, N, cim_x, &beta, cim_y"
    conv = _call_args(
        "conv2d", m, n, IntConst(3), IntConst(3), alpha, "cim_img", "cim_W", beta, "cim_out"
    )
    assert str(conv) == "M, N, 3, 3, &alpha, cim_img, cim_W, &beta, cim_out"
    batched = BatchedGemmCallArgs((gemm, gemm))
    assert str(batched) == (
        "CimNoTrans, CimTrans, M, N, K, &alpha, {cim_A, cim_A}, K, "
        "{cim_B, cim_B}, N, &beta, {cim_C, cim_C}, N, 2"
    )
    with pytest.raises(ValueError, match="GEMM problems only"):
        BatchedGemmCallArgs((gemm, gemv))
    with pytest.raises(ValueError):
        BatchedGemmCallArgs(())


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda spec: spec.kind)
def test_spec_layout_fills_its_blas_entry(spec):
    parameters = list(inspect.signature(getattr(CimBlas, spec.entry)).parameters.values())[1:]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)
    assert len(spec.layout) == len(parameters)
    assert spec.call in ALL_RUNTIME_CALLS


# ----------------------------------------------------------------------
# Compile options helpers
# ----------------------------------------------------------------------
def test_compile_options_presets():
    host_only = CompileOptions.host_only()
    assert host_only == CompileOptions(offload_policy="never")
    selective = CompileOptions.selective(threshold=10.0)
    assert selective.min_macs_per_write == 10.0
    assert CompileOptions().wants_kind("gemm")
    assert not CompileOptions(offload_kinds=("gemm",)).wants_kind("gemv")


# ----------------------------------------------------------------------
# Micro-engine request validation
# ----------------------------------------------------------------------
def test_gemm_request_validation():
    request = GemmRequest(m=0, n=1, k=1, addr_a=0, addr_b=0, addr_c=0,
                          lda=1, ldb=1, ldc=1)
    with pytest.raises(ValueError):
        request.validate()
    wrong_elem = GemmRequest(m=1, n=1, k=1, addr_a=0, addr_b=0, addr_c=0,
                             lda=1, ldb=1, ldc=1, elem_size=8)
    with pytest.raises(ValueError):
        wrong_elem.validate()


def test_conv_request_validation():
    bad = Conv2DRequest(out_h=4, out_w=4, filter_h=3, filter_w=3,
                        img_h=4, img_w=6, addr_img=0, addr_filter=0, addr_out=0)
    with pytest.raises(ValueError):
        bad.validate()
    good = Conv2DRequest(out_h=4, out_w=4, filter_h=3, filter_w=3,
                         img_h=6, img_w=6, addr_img=0, addr_filter=0, addr_out=0)
    good.validate()


def test_oversized_filter_rejected_by_microengine(system, rng):
    system.runtime.cim_init(0)
    taps = system.accelerator.tile.rows + 1
    # A filter with more taps than crossbar rows cannot be made resident.
    img = rng.random((600, 600), dtype=np.float32)
    with pytest.raises(Exception):
        request = Conv2DRequest(
            out_h=2, out_w=2, filter_h=taps, filter_w=1,
            img_h=taps + 1, img_w=2, addr_img=0, addr_filter=0, addr_out=0,
        )
        system.accelerator.micro_engine.run_conv2d(request)


# ----------------------------------------------------------------------
# Workload metadata sanity
# ----------------------------------------------------------------------
def test_paper_kernel_categories_match_figure6_grouping():
    gemm_like = {"2mm", "3mm", "gemm", "conv"}
    for name in PAPER_KERNELS:
        kernel = get_kernel(name)
        expected = "gemm-like" if name in gemm_like else "gemv-like"
        assert kernel.category == expected


def test_kernel_sources_parse_and_offload_consistently():
    from repro import compile_source

    for name in PAPER_KERNELS:
        kernel = get_kernel(name)
        result = compile_source(kernel.source, size_hint=kernel.params("MINI"))
        assert result.report.offloaded_kernels >= 1, name
        # Every offloaded kernel emits at least malloc + compute + copy-back.
        assert len(result.report.runtime_calls_emitted) >= 1
