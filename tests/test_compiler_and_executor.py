"""Tests for the TDO-CIM compiler driver, lowering, and the executor."""

import numpy as np
import pytest

from repro import CompileOptions, OffloadExecutor, TdoCimCompiler, compile_source
from repro.codegen.lowering import reassemble_program
from repro.codegen.runtime_calls import (
    CIM_DEV_TO_HOST,
    CIM_GEMM,
    CIM_GEMM_BATCHED,
    CIM_GEMV,
    CIM_HOST_TO_DEV,
    CIM_INIT,
    CIM_MALLOC,
)
from repro.frontend import parse_program
from repro.ir import Interpreter, to_source
from repro.ir.stmt import CallStmt, Loop
from repro.poly import detect_scops
from repro.system import CimSystem, SystemConfig


# ----------------------------------------------------------------------
# Compiler driver
# ----------------------------------------------------------------------
def test_compiled_gemm_matches_listing_1_structure(gemm_source):
    result = compile_source(gemm_source)
    text = to_source(result.program)
    assert "polly_cimInit(0);" in text
    assert text.count("polly_cimMalloc") == 3
    assert "polly_cimBlasSGemm(CimNoTrans, CimNoTrans, M, N, K, &alpha" in text
    assert "polly_cimDevToHost(cim_C, C" in text
    # The original loop nest is gone.
    assert "for (int k" not in text


def test_report_records_decisions(gemm_source):
    result = compile_source(gemm_source)
    report = result.report
    assert report.scop_count == 1
    assert report.detected_kernels == 1
    assert report.offloaded_kernels == 1
    assert report.runtime_calls_emitted == [CIM_GEMM]
    assert "offloaded" in report.summary()


def test_offload_disabled_keeps_program_intact(gemm_source):
    result = compile_source(gemm_source, options=CompileOptions.host_only())
    assert not result.offloaded
    assert result.report.offloaded_kernels == 0
    text = to_source(result.program)
    assert "polly_cim" not in text


def test_kind_filtering(gemv_source):
    options = CompileOptions(offload_kinds=("gemm",))
    result = compile_source(gemv_source, options=options)
    assert result.report.offloaded_kernels == 0
    assert any("excluded" in d.reason for d in result.report.decisions)


def test_selective_offloading_skips_low_intensity(gemv_source, gemm_source):
    options = CompileOptions.selective(threshold=32.0)
    gemv_result = compile_source(
        gemv_source, options=options, size_hint={"M": 64, "N": 64}
    )
    assert gemv_result.report.offloaded_kernels == 0
    assert any("intensity" in d.reason for d in gemv_result.report.decisions)
    gemm_result = compile_source(
        gemm_source,
        options=options,
        size_hint={"M": 64, "N": 64, "K": 64, "alpha": 1.0, "beta": 1.0},
    )
    assert gemm_result.report.offloaded_kernels == 1


def test_fusion_emits_batched_call(two_gemms_source):
    result = compile_source(two_gemms_source)
    assert result.report.runtime_calls_emitted == [CIM_GEMM_BATCHED]
    assert result.report.fusion_groups and len(result.report.fusion_groups[0]) == 2
    text = to_source(result.program)
    assert "polly_cimBlasGemmBatched" in text


def test_fusion_disabled_emits_two_calls(two_gemms_source):
    result = compile_source(two_gemms_source, options=CompileOptions(pipeline="no-fusion"))
    assert result.report.runtime_calls_emitted == [CIM_GEMM, CIM_GEMM]


def test_non_offloadable_program_unchanged():
    source = """
    void stencil(int N, float A[N], float B[N]) {
      for (int i = 1; i < N - 1; i++)
        A[i] = B[i - 1] + B[i] + B[i + 1];
    }
    """
    result = compile_source(source)
    assert result.report.detected_kernels == 0
    assert not result.offloaded
    assert "polly_cim" not in to_source(result.program)


def test_compiling_an_ir_program_directly(gemm_program):
    result = TdoCimCompiler().compile(gemm_program)
    assert result.report.offloaded_kernels == 1


# ----------------------------------------------------------------------
# Lowering / reassembly
# ----------------------------------------------------------------------
def test_reassemble_preserves_non_scop_statements(gemm_source):
    program = parse_program(gemm_source)
    scop = detect_scops(program)[0]
    replacement = [CallStmt("replacement_call", [])]
    compiled = reassemble_program(program, [(scop, replacement)], add_init_call=True)
    callees = [s.callee for s in compiled.body.stmts if isinstance(s, CallStmt)]
    assert callees == [CIM_INIT, "replacement_call"]
    assert compiled.name == program.name + "_cim"
    assert compiled.params == program.params


def test_reassemble_rejects_foreign_scop(gemm_source, gemv_source):
    program_a = parse_program(gemm_source)
    program_b = parse_program(gemv_source)
    scop_b = detect_scops(program_b)[0]
    with pytest.raises(ValueError):
        reassemble_program(program_a, [(scop_b, [])])


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
def test_executor_gemm_correctness_and_report(gemm_source, rng):
    result = compile_source(gemm_source)
    params = {"M": 24, "N": 20, "K": 18, "alpha": 1.5, "beta": 0.5}
    arrays = {
        "A": rng.random((24, 18), dtype=np.float32),
        "B": rng.random((18, 20), dtype=np.float32),
        "C": rng.random((24, 20), dtype=np.float32),
    }
    executor = OffloadExecutor()
    outputs, report = executor.run(result.program, params, arrays)
    reference = Interpreter(result.source_program).run(params, arrays)
    np.testing.assert_allclose(outputs["C"], reference["C"], rtol=1e-4)
    assert report.offloaded
    assert report.gemv_count == 20
    assert report.crossbar_cell_writes == 24 * 18
    assert report.accelerator_macs == 24 * 20 * 18
    assert report.macs_per_cim_write == pytest.approx(20.0)
    assert report.total_energy_j > 0 and report.total_time_s > 0
    assert report.edp == pytest.approx(report.total_energy_j * report.total_time_s)
    assert CIM_HOST_TO_DEV in report.runtime_calls
    assert CIM_DEV_TO_HOST in report.runtime_calls


def test_executor_offload_overhead_is_positive(gemm_source, rng):
    result = compile_source(gemm_source)
    params = {"M": 8, "N": 8, "K": 8, "alpha": 1.0, "beta": 0.0}
    arrays = {
        "A": rng.random((8, 8), dtype=np.float32),
        "B": rng.random((8, 8), dtype=np.float32),
        "C": np.zeros((8, 8), dtype=np.float32),
    }
    _, report = OffloadExecutor().run(result.program, params, arrays)
    assert report.offload_instructions > 0
    assert report.offload_energy_j > 0
    assert report.offload_time_s >= report.accelerator_time_s


def test_executor_host_only_program_reports_no_accelerator_use(gemm_source, rng):
    result = compile_source(gemm_source, options=CompileOptions.host_only())
    params = {"M": 6, "N": 6, "K": 6, "alpha": 1.0, "beta": 0.0}
    arrays = {
        "A": rng.random((6, 6), dtype=np.float32),
        "B": rng.random((6, 6), dtype=np.float32),
        "C": np.zeros((6, 6), dtype=np.float32),
    }
    outputs, report = OffloadExecutor().run(result.program, params, arrays)
    assert not report.offloaded
    assert report.accelerator_energy_j == 0
    assert report.host_estimate.instructions > 0
    reference = Interpreter(result.source_program).run(params, arrays)
    np.testing.assert_allclose(outputs["C"], reference["C"], rtol=1e-5)


def test_executor_quantized_system_accuracy(gemm_source, rng):
    result = compile_source(gemm_source)
    params = {"M": 16, "N": 16, "K": 16, "alpha": 1.0, "beta": 0.0}
    arrays = {
        "A": rng.random((16, 16), dtype=np.float32),
        "B": rng.random((16, 16), dtype=np.float32),
        "C": np.zeros((16, 16), dtype=np.float32),
    }
    system = CimSystem(SystemConfig.quantized())
    outputs, _ = OffloadExecutor(system).run(result.program, params, arrays)
    reference = Interpreter(result.source_program).run(params, arrays)
    rel = np.abs(outputs["C"] - reference["C"]) / np.abs(reference["C"]).max()
    assert rel.max() < 0.05


def test_executor_batched_gemm_writes_shared_operand_once(two_gemms_source, rng):
    fused = compile_source(two_gemms_source)
    unfused = compile_source(two_gemms_source, options=CompileOptions(pipeline="no-fusion"))
    n = 20
    params = {"N": n}
    arrays = {
        "A": rng.random((n, n), dtype=np.float32),
        "B": rng.random((n, n), dtype=np.float32),
        "E": rng.random((n, n), dtype=np.float32),
        "C": np.zeros((n, n), dtype=np.float32),
        "D": np.zeros((n, n), dtype=np.float32),
    }
    _, fused_report = OffloadExecutor().run(fused.program, params, arrays)
    _, unfused_report = OffloadExecutor().run(unfused.program, params, arrays)
    assert fused_report.crossbar_cell_writes == n * n
    assert unfused_report.crossbar_cell_writes == 2 * n * n
    ref = Interpreter(fused.source_program).run(params, arrays)
    out, _ = OffloadExecutor().run(fused.program, params, arrays)
    np.testing.assert_allclose(out["C"], ref["C"], rtol=1e-4)
    np.testing.assert_allclose(out["D"], ref["D"], rtol=1e-4)
