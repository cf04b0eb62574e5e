"""Tests for the CMA allocator, page table, kernel driver, and runtime API."""

import numpy as np
import pytest

from repro.driver import CMAAllocator, CMAError, CimDriver, DriverError, PageTable, TranslationError
from repro.driver.ioctl import IoctlCommand
from repro.hw.context_regs import Register, Status
from repro.runtime import CimRuntime, CimRuntimeError
from repro.system import CimSystem, SystemConfig


# ----------------------------------------------------------------------
# CMA allocator
# ----------------------------------------------------------------------
def test_cma_alloc_is_aligned_and_within_region():
    cma = CMAAllocator(base=0x1000, size=4096, alignment=64)
    block = cma.alloc(100)
    assert block.address % 64 == 0
    assert block.address >= 0x1000
    assert block.size >= 100
    assert cma.used_bytes == block.size


def test_cma_free_coalesces_and_allows_reuse():
    cma = CMAAllocator(base=0, size=1024, alignment=64)
    a = cma.alloc(256)
    b = cma.alloc(256)
    c = cma.alloc(256)
    cma.free(a.address)
    cma.free(b.address)
    # After coalescing, a 512-byte allocation must fit in the freed space.
    d = cma.alloc(512)
    assert d.address == a.address
    cma.free(c.address)
    cma.free(d.address)
    assert cma.free_bytes == 1024
    assert cma.live_allocations == 0


def test_cma_exhaustion_raises():
    cma = CMAAllocator(base=0, size=1024)
    cma.alloc(512)
    cma.alloc(448)
    with pytest.raises(CMAError):
        cma.alloc(256)
    assert cma.failed_allocations == 1


def test_cma_double_free_rejected():
    cma = CMAAllocator(base=0, size=1024)
    block = cma.alloc(64)
    cma.free(block.address)
    with pytest.raises(CMAError):
        cma.free(block.address)


def test_cma_invalid_requests():
    with pytest.raises(ValueError):
        CMAAllocator(base=0, size=0)
    cma = CMAAllocator(base=0, size=1024)
    with pytest.raises(CMAError):
        cma.alloc(0)


# ----------------------------------------------------------------------
# Page table
# ----------------------------------------------------------------------
def test_page_table_translation_roundtrip():
    table = PageTable()
    virt = table.map(physical_base=0x8000, size=100)
    assert table.translate(virt) == 0x8000
    assert table.translate(virt + 40) == 0x8000 + 40
    assert table.is_mapped(virt, 100)


def test_page_table_unmapped_access_raises():
    table = PageTable()
    with pytest.raises(TranslationError):
        table.translate(0x12345)
    virt = table.map(0x8000, 64)
    table.unmap(virt)
    with pytest.raises(TranslationError):
        table.translate(virt)


def test_page_table_range_crossing_guard_page_rejected():
    table = PageTable(page_size=4096)
    virt = table.map(0x8000, 4096)
    with pytest.raises(TranslationError):
        table.translate(virt, 2 * 4096 + 1)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def test_driver_requires_open(system):
    driver = system.driver
    with pytest.raises(DriverError):
        driver.alloc(64)


def test_driver_alloc_translate_free(system):
    driver = system.driver
    driver.open()
    virt, phys = driver.alloc(1024)
    assert driver.translate(virt) == phys
    assert system.memory.cma_region.contains(phys, 1024)
    assert driver.buffer_size(virt) >= 1024
    driver.free(virt)
    with pytest.raises(DriverError):
        driver.free(virt)


def test_driver_overhead_charged_for_calls(system):
    driver = system.driver
    before = driver.overhead.instructions
    driver.open()
    virt, _ = driver.alloc(4096)
    assert driver.overhead.instructions > before
    energy_per_inst = driver.host_model.energy_per_instruction_j
    assert driver.overhead.energy_j == pytest.approx(
        driver.overhead.instructions * energy_per_inst
    )


def test_driver_flush_cost_scales_with_lines(system):
    driver = system.driver
    driver.open()
    before = driver.overhead.instructions
    driver._flush_caches(64 * 100)
    delta_small = driver.overhead.instructions - before
    before = driver.overhead.instructions
    driver._flush_caches(64 * 200)
    delta_large = driver.overhead.instructions - before
    assert delta_large == pytest.approx(2 * delta_small)


def test_driver_ioctl_dispatch(system):
    driver = system.driver
    driver.open()
    virt, phys = driver.ioctl(IoctlCommand.CIM_ALLOC, size=256)
    assert driver.translate(virt) == phys
    driver.ioctl(IoctlCommand.CIM_FREE, virtual=virt)
    with pytest.raises(DriverError):
        driver.ioctl(IoctlCommand.CIM_FREE, virtual=virt)


# ----------------------------------------------------------------------
# Runtime API
# ----------------------------------------------------------------------
def test_runtime_requires_init(system):
    runtime = system.runtime
    with pytest.raises(CimRuntimeError):
        runtime.cim_malloc(64)


def test_runtime_malloc_copy_roundtrip(system, rng):
    runtime = system.runtime
    runtime.cim_init(0)
    data = rng.random((16, 16), dtype=np.float32)
    buffer = runtime.cim_malloc(data.nbytes)
    runtime.cim_host_to_dev(buffer, data)
    back = runtime.cim_dev_to_host(buffer, data.shape)
    np.testing.assert_array_equal(back, data)
    runtime.cim_free(buffer)
    assert runtime.live_buffers == 0


def test_runtime_rejects_oversized_copy(system, rng):
    runtime = system.runtime
    runtime.cim_init(0)
    buffer = runtime.cim_malloc(64)
    with pytest.raises(CimRuntimeError):
        runtime.cim_host_to_dev(buffer, rng.random(1024, dtype=np.float32))


def test_runtime_double_free_rejected(system):
    runtime = system.runtime
    runtime.cim_init(0)
    buffer = runtime.cim_malloc(64)
    runtime.cim_free(buffer)
    with pytest.raises(CimRuntimeError):
        runtime.cim_free(buffer)


def test_runtime_unknown_device_rejected(system):
    with pytest.raises(CimRuntimeError):
        system.runtime.cim_init(3)


# ----------------------------------------------------------------------
# BLAS runtime calls
# ----------------------------------------------------------------------
def _device_array(system, array):
    buffer = system.runtime.cim_malloc(array.nbytes)
    system.runtime.cim_host_to_dev(buffer, array)
    return buffer


def test_blas_sgemm_end_to_end(system, rng):
    system.runtime.cim_init(0)
    a = rng.random((12, 10), dtype=np.float32)
    b = rng.random((10, 9), dtype=np.float32)
    c = rng.random((12, 9), dtype=np.float32)
    buf_a, buf_b, buf_c = (_device_array(system, x) for x in (a, b, c))
    stats = system.blas.sgemm(False, False, 12, 9, 10, 2.0, buf_a, 10, buf_b, 9,
                              0.5, buf_c, 9)
    out = system.runtime.cim_dev_to_host(buf_c, (12, 9))
    ref = 2.0 * (a.astype(np.float64) @ b.astype(np.float64)) + 0.5 * c
    np.testing.assert_allclose(out, ref, rtol=1e-4)
    assert stats.accelerator.gemv_count == 9
    assert stats.flush_bytes > 0


def test_blas_sgemv_end_to_end(system, rng):
    system.runtime.cim_init(0)
    a = rng.random((14, 11), dtype=np.float32)
    x = rng.random(11, dtype=np.float32)
    y = np.zeros(14, dtype=np.float32)
    buf_a, buf_x, buf_y = (_device_array(system, arr) for arr in (a, x, y))
    system.blas.sgemv(False, 14, 11, 1.0, buf_a, 11, buf_x, 0.0, buf_y)
    out = system.runtime.cim_dev_to_host(buf_y, (14,))
    np.testing.assert_allclose(out, a @ x, rtol=1e-4)


def test_a_retriggered_gemv_is_charged_like_an_sgemv():
    """``sgemv`` is a descriptor plus a launch; re-triggering the
    descriptor the registers hold writes only ``COMMAND.START`` and moves
    every host and device record exactly as a full ``sgemv`` does."""

    def serve(retrigger: bool) -> tuple[CimSystem, list[np.ndarray], list]:
        rng = np.random.default_rng(4)
        system = CimSystem(SystemConfig(crossbar_rows=16, crossbar_cols=16))
        system.runtime.cim_init(0)
        a = rng.standard_normal((20, 12)).astype(np.float32)
        buf_a = _device_array(system, a)
        buf_x = system.runtime.cim_malloc(12 * 4)
        buf_y = _device_array(system, rng.standard_normal(20).astype(np.float32))
        args = (False, 20, 12, 0.75, buf_a, 12, buf_x, 1.25, buf_y)
        descriptor = system.blas.gemv_descriptor(*args)
        outputs = []
        with system.accelerator.on_run.collect() as runs:
            for index in range(3):
                system.runtime.cim_host_to_dev(
                    buf_x, rng.standard_normal(12).astype(np.float32))
                if retrigger:
                    system.blas.launch(descriptor, programmed=index > 0)
                else:
                    system.blas.sgemv(*args)
                outputs.append(system.runtime.cim_dev_to_host(buf_y, (20,)))
        return system, outputs, runs

    (full, full_out, full_runs), (lease, lease_out, lease_runs) = serve(False), serve(True)
    assert all(np.array_equal(f, r) for f, r in zip(full_out, lease_out))
    assert [vars(run) for run in full_runs] == [vars(run) for run in lease_runs]
    for record in (
        lambda s: vars(s.host_overhead),
        lambda s: s.accelerator.energy.as_dict(),
        lambda s: s.accelerator.tile.energy.as_dict(),
        lambda s: s.accelerator.timeline.events,
        lambda s: vars(s.accelerator.totals),
    ):
        assert record(full) == record(lease)
    full_counts = full.driver.counters.as_dict()
    lease_counts = lease.driver.counters.as_dict()
    # Two re-triggers skip the eleven descriptor registers each.
    assert full_counts.pop("driver.reg_write") - lease_counts.pop("driver.reg_write") == 22
    assert full_counts == lease_counts


def test_blas_batched_gemm_reuses_shared_operand(system, rng):
    system.runtime.cim_init(0)
    n = 16
    a = rng.random((n, n), dtype=np.float32)
    b = rng.random((n, n), dtype=np.float32)
    e = rng.random((n, n), dtype=np.float32)
    c = np.zeros((n, n), dtype=np.float32)
    d = np.zeros((n, n), dtype=np.float32)
    buf = {name: _device_array(system, arr) for name, arr in
           [("a", a), ("b", b), ("e", e), ("c", c), ("d", d)]}
    stats = system.blas.gemm_batched(
        False,
        False,
        [
            {"m": n, "n": n, "k": n, "alpha": 1.0, "beta": 0.0,
             "a": buf["a"], "b": buf["b"], "c": buf["c"]},
            {"m": n, "n": n, "k": n, "alpha": 1.0, "beta": 0.0,
             "a": buf["a"], "b": buf["e"], "c": buf["d"]},
        ],
    )
    out_c = system.runtime.cim_dev_to_host(buf["c"], (n, n))
    out_d = system.runtime.cim_dev_to_host(buf["d"], (n, n))
    np.testing.assert_allclose(out_c, a @ b, rtol=1e-4)
    np.testing.assert_allclose(out_d, a @ e, rtol=1e-4)
    # The shared A operand is written to the crossbar only once.
    assert stats.accelerator.crossbar_cell_writes == n * n
    assert stats.batch_size == 2


def test_blas_conv2d_end_to_end(system, rng):
    system.runtime.cim_init(0)
    oh, ow, kh, kw = 6, 7, 3, 3
    img = rng.random((oh + kh - 1, ow + kw - 1), dtype=np.float32)
    weights = rng.random((kh, kw), dtype=np.float32)
    out = np.zeros((oh, ow), dtype=np.float32)
    buf_img, buf_w, buf_out = (_device_array(system, x) for x in (img, weights, out))
    system.blas.conv2d(oh, ow, kh, kw, 1.0, buf_img, buf_w, 0.0, buf_out)
    result = system.runtime.cim_dev_to_host(buf_out, (oh, ow))
    ref = np.zeros((oh, ow))
    for p in range(kh):
        for q in range(kw):
            ref += weights[p, q] * img[p : p + oh, q : q + ow]
    np.testing.assert_allclose(result, ref, rtol=1e-4)


def test_blas_rejects_undersized_buffers(system, rng):
    system.runtime.cim_init(0)
    small = system.runtime.cim_malloc(64)
    with pytest.raises(CimRuntimeError):
        system.blas.sgemm(False, False, 64, 64, 64, 1.0, small, 64, small, 64,
                          0.0, small, 64)
