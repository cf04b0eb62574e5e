"""Tests for batched GEMV dispatch and crossbar operand residency."""

import numpy as np
import pytest

from repro.hw.accelerator import AcceleratorConfig, CIMAccelerator
from repro.hw.crossbar import Crossbar, CrossbarConfig
from repro.system import CimSystem, SystemConfig
from repro.system.memory import SharedMemory

from tests.test_hw_accelerator import make_accelerator, run_gemm_on_accelerator


# ----------------------------------------------------------------------
# Batched crossbar dispatch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["ideal", "quantized"])
def test_crossbar_gemv_batch_matches_sequential(mode, rng):
    config = CrossbarConfig(rows=24, cols=20, mode=mode)
    matrix = rng.random((24, 20)) - 0.5
    xs = rng.random((7, 24)) - 0.5

    seq = Crossbar(config)
    seq.write(matrix)
    seq_results = np.stack([seq.gemv(x)[0] for x in xs])

    bat = Crossbar(config)
    bat.write(matrix)
    bat_results, report = bat.gemv_batch(xs)

    if mode == "quantized":
        # The quantized path is exact integer arithmetic in float64, so
        # batching is bit-identical to the sequential dispatch.
        np.testing.assert_array_equal(seq_results, bat_results)
    else:
        # Ideal mode maps to BLAS gemv/gemm, which may round differently.
        np.testing.assert_allclose(seq_results, bat_results, rtol=1e-13)
    assert report.gemv_count == 7
    assert report.macs == 7 * 24 * 20
    assert bat.total_gemvs == seq.total_gemvs == 7
    assert bat.total_macs == seq.total_macs
    assert bat.adc.total_conversions == seq.adc.total_conversions
    assert bat.digital.alu_ops == seq.digital.alu_ops
    assert bat.digital.weighted_sums == seq.digital.weighted_sums


@pytest.mark.parametrize("mode", ["ideal", "quantized"])
def test_batched_accelerator_accounting_matches_sequential(mode, rng):
    a = rng.random((40, 30), dtype=np.float32)
    b = rng.random((30, 9), dtype=np.float32)
    c = rng.random((40, 9), dtype=np.float32)
    runs = {}
    outs = {}
    for batch in (True, False):
        mem = SharedMemory(4 * 1024 * 1024, 2 * 1024 * 1024)
        acc = CIMAccelerator(
            mem,
            crossbar_config=CrossbarConfig(rows=16, cols=16, mode=mode),
            config=AcceleratorConfig(batch_gemv=batch),
        )
        outs[batch] = run_gemm_on_accelerator(acc, mem, a, b, c, alpha=1.25, beta=0.5)
        runs[batch] = acc.last_run
    if mode == "quantized":
        np.testing.assert_array_equal(outs[True], outs[False])
    else:
        # Ideal mode: BLAS gemm vs gemv may differ by a few ULPs.
        np.testing.assert_allclose(outs[True], outs[False], rtol=1e-6)
    for field in ("gemv_count", "crossbar_cell_writes", "crossbar_write_ops",
                  "macs", "dma_bytes"):
        assert getattr(runs[True], field) == getattr(runs[False], field), field
    assert runs[True].latency_s == pytest.approx(runs[False].latency_s, rel=1e-12)
    assert runs[True].energy_j == pytest.approx(runs[False].energy_j, rel=1e-12)


def test_batched_conv_accounting_matches_sequential(rng):
    from repro import compile_source
    from repro.codegen.executor import OffloadExecutor
    from repro.workloads.polybench import KERNELS

    kernel = KERNELS["conv"]
    params = kernel.params("SMALL")
    arrays = kernel.arrays("SMALL", seed=9)
    result = compile_source(kernel.source)
    reports = {}
    outs = {}
    for batch in (True, False):
        system = CimSystem(SystemConfig(batch_gemv=batch))
        outs[batch], reports[batch] = OffloadExecutor(system).run(
            result.program, params, arrays
        )
    np.testing.assert_allclose(outs[True]["out"], outs[False]["out"], rtol=1e-6)
    assert reports[True].gemv_count == reports[False].gemv_count
    assert reports[True].crossbar_cell_writes == reports[False].crossbar_cell_writes
    assert reports[True].accelerator_energy_j == pytest.approx(
        reports[False].accelerator_energy_j, rel=1e-12
    )
    assert reports[True].accelerator_time_s == pytest.approx(
        reports[False].accelerator_time_s, rel=1e-12
    )


# ----------------------------------------------------------------------
# Resident operand reuse across GEMV invocations
# ----------------------------------------------------------------------
def _gemv_setup(system, rng, m, n):
    runtime = system.runtime
    runtime.cim_init(0)
    a = rng.random((m, n), dtype=np.float32)
    x = rng.random(n, dtype=np.float32)
    a_buf = runtime.cim_malloc(m * n * 4)
    x_buf = runtime.cim_malloc(n * 4)
    y_buf = runtime.cim_malloc(m * 4)
    runtime.cim_host_to_dev(a_buf, a)
    runtime.cim_host_to_dev(x_buf, x)
    return a, x, a_buf, x_buf, y_buf


def test_repeated_gemv_reuses_programmed_matrix(rng):
    system = CimSystem()
    m = n = 20
    a, x, a_buf, x_buf, y_buf = _gemv_setup(system, rng, m, n)

    first = system.blas.sgemv(False, m, n, 1.0, a_buf, n, x_buf, 0.0, y_buf)
    assert first.accelerator.crossbar_cell_writes == m * n
    # The matrix stays resident: streaming another vector costs no writes.
    second = system.blas.sgemv(False, m, n, 1.0, a_buf, n, x_buf, 0.0, y_buf)
    assert second.accelerator.crossbar_cell_writes == 0
    assert second.accelerator.gemv_count == 1
    assert system.accelerator.counters.get("cim.crossbar_write_reuse") == 1
    y = system.runtime.cim_dev_to_host(y_buf, (m,))
    np.testing.assert_allclose(y, a @ x, rtol=1e-4)


def test_transposed_gemv_does_not_reuse_programmed_matrix(rng):
    """A and A^T at the same address are different operands (mvt/bicg)."""
    system = CimSystem()
    m = n = 16
    a, x, a_buf, x_buf, y_buf = _gemv_setup(system, rng, m, n)

    system.blas.sgemv(False, m, n, 1.0, a_buf, n, x_buf, 0.0, y_buf)
    second = system.blas.sgemv(True, m, n, 1.0, a_buf, n, x_buf, 0.0, y_buf)
    assert second.accelerator.crossbar_cell_writes == m * n
    y = system.runtime.cim_dev_to_host(y_buf, (m,))
    np.testing.assert_allclose(y, a.T @ x, rtol=1e-4)


def test_rewritten_operand_is_reprogrammed(rng):
    """Host updates to the buffer invalidate residency (staleness guard)."""
    system = CimSystem()
    m = n = 12
    a, x, a_buf, x_buf, y_buf = _gemv_setup(system, rng, m, n)

    system.blas.sgemv(False, m, n, 1.0, a_buf, n, x_buf, 0.0, y_buf)
    a2 = rng.random((m, n), dtype=np.float32)
    system.runtime.cim_host_to_dev(a_buf, a2)
    second = system.blas.sgemv(False, m, n, 1.0, a_buf, n, x_buf, 0.0, y_buf)
    assert second.accelerator.crossbar_cell_writes == m * n
    y = system.runtime.cim_dev_to_host(y_buf, (m,))
    np.testing.assert_allclose(y, a2 @ x, rtol=1e-4)


def test_reset_stats_invalidates_residency(rng):
    """Repeated identical measurements must report identical costs."""
    system = CimSystem()
    m = n = 14
    a, x, a_buf, x_buf, y_buf = _gemv_setup(system, rng, m, n)
    first = system.blas.sgemv(False, m, n, 1.0, a_buf, n, x_buf, 0.0, y_buf)
    system.reset_stats()
    second = system.blas.sgemv(False, m, n, 1.0, a_buf, n, x_buf, 0.0, y_buf)
    assert second.accelerator.crossbar_cell_writes == m * n
    assert second.accelerator.energy_j == pytest.approx(first.accelerator.energy_j)
    assert second.accelerator.latency_s == pytest.approx(first.accelerator.latency_s)


def test_gemm_calls_still_reprogram_between_invocations(rng):
    """Cross-call residency is a GEMV-streaming feature; separate (unfused)
    GEMM invocations still pay the write — that is exactly the endurance
    cost the paper's kernel fusion removes."""
    mem = SharedMemory(4 * 1024 * 1024, 2 * 1024 * 1024)
    acc = CIMAccelerator(mem)
    a = rng.random((8, 8), dtype=np.float32)
    b = rng.random((8, 8), dtype=np.float32)
    c = np.zeros((8, 8), dtype=np.float32)
    run_gemm_on_accelerator(acc, mem, a, b, c, 1.0, 0.0)
    run_gemm_on_accelerator(acc, mem, a, b, c, 1.0, 0.0)
    assert acc.total_cell_writes() == 2 * 8 * 8
