"""Tests for the micro-engine and the full accelerator (register interface)."""

import numpy as np
import pytest

from repro import CimServer, ServerConfig
from repro.gateway.loadgen import GEMV_SOURCE
from repro.hw.accelerator import AcceleratorConfig, CIMAccelerator
from repro.hw.context_regs import (
    Command,
    ContextRegisterFile,
    Flags,
    Opcode,
    Register,
    Status,
    decode_scalar,
    encode_scalar,
)
from repro.system import CimSystem
from repro.system.memory import SharedMemory


def make_accelerator(memory=None, **kwargs):
    memory = memory or SharedMemory(4 * 1024 * 1024, 2 * 1024 * 1024)
    return CIMAccelerator(memory, **kwargs), memory


def run_gemm_on_accelerator(acc, mem, a, b, c, alpha, beta, trans_a=False, trans_b=False):
    m, k = (a.shape if not trans_a else a.shape[::-1])
    k2, n = (b.shape if not trans_b else b.shape[::-1])
    assert k == k2
    addr_a, addr_b, addr_c = 0, 256 * 1024, 512 * 1024
    mem.write_array(addr_a, a.astype(np.float32))
    mem.write_array(addr_b, b.astype(np.float32))
    mem.write_array(addr_c, c.astype(np.float32))
    flags = (Flags.TRANS_A if trans_a else Flags.NONE) | (
        Flags.TRANS_B if trans_b else Flags.NONE
    )
    for reg, value in {
        Register.OPCODE: int(Opcode.GEMM),
        Register.ADDR_A: addr_a,
        Register.ADDR_B: addr_b,
        Register.ADDR_C: addr_c,
        Register.DIM_M: m,
        Register.DIM_N: n,
        Register.DIM_K: k,
        Register.ALPHA: encode_scalar(alpha),
        Register.BETA: encode_scalar(beta),
        Register.FLAGS: int(flags),
        Register.ELEM_SIZE: 4,
    }.items():
        acc.mmio_write(reg, value)
    acc.mmio_write(Register.COMMAND, int(Command.START))
    out = mem.read_array(addr_c, m * n).reshape(m, n)
    return out


# ----------------------------------------------------------------------
# Context registers
# ----------------------------------------------------------------------
def test_scalar_fixed_point_roundtrip():
    for value in (0.0, 1.0, 1.5, -2.25, 0.125):
        assert decode_scalar(encode_scalar(value)) == pytest.approx(value, abs=1e-4)


def test_register_file_triggers_start_handler():
    fired = []
    regs = ContextRegisterFile(on_start=lambda: fired.append(True))
    regs.write(Register.COMMAND, int(Command.START))
    assert fired == [True]
    assert regs.status() is Status.BUSY


def test_register_file_rejects_unknown_register():
    regs = ContextRegisterFile(on_start=lambda: None)
    with pytest.raises(KeyError):
        regs.write(0x55, 1)


def test_register_snapshot_contains_all_registers():
    regs = ContextRegisterFile(on_start=lambda: None)
    snapshot = regs.snapshot()
    assert set(snapshot) == {r.name for r in Register}


# ----------------------------------------------------------------------
# GEMM execution paths
# ----------------------------------------------------------------------
def test_gemm_functional_correctness(rng):
    acc, mem = make_accelerator()
    a = rng.random((20, 17), dtype=np.float32)
    b = rng.random((17, 13), dtype=np.float32)
    c = rng.random((20, 13), dtype=np.float32)
    out = run_gemm_on_accelerator(acc, mem, a, b, c, alpha=1.25, beta=0.5)
    ref = 1.25 * (a.astype(np.float64) @ b.astype(np.float64)) + 0.5 * c
    np.testing.assert_allclose(out, ref, rtol=1e-4)
    assert acc.registers.status() is Status.DONE


def test_gemm_transposed_operands(rng):
    acc, mem = make_accelerator()
    a_t = rng.random((9, 12), dtype=np.float32)   # stored as K x M
    b_t = rng.random((10, 9), dtype=np.float32)   # stored as N x K
    c = np.zeros((12, 10), dtype=np.float32)
    out = run_gemm_on_accelerator(
        acc, mem, a_t, b_t, c, alpha=1.0, beta=0.0, trans_a=True, trans_b=True
    )
    ref = a_t.astype(np.float64).T @ b_t.astype(np.float64).T
    np.testing.assert_allclose(out, ref, rtol=1e-4)


def test_gemm_larger_than_crossbar_is_tiled(rng):
    from repro.hw.crossbar import CrossbarConfig

    acc, mem = make_accelerator(crossbar_config=CrossbarConfig(rows=8, cols=8))
    a = rng.random((20, 18), dtype=np.float32)
    b = rng.random((18, 5), dtype=np.float32)
    c = np.zeros((20, 5), dtype=np.float32)
    out = run_gemm_on_accelerator(acc, mem, a, b, c, alpha=1.0, beta=0.0)
    ref = a.astype(np.float64) @ b.astype(np.float64)
    np.testing.assert_allclose(out, ref, rtol=1e-4)
    run = acc.last_run
    # ceil(20/8) * ceil(18/8) = 3 * 3 tiles, each writing a block once.
    assert run.crossbar_write_ops == 9
    assert run.gemv_count == 9 * 5


def test_gemv_opcode_uses_single_column(rng):
    acc, mem = make_accelerator()
    a = rng.random((15, 11), dtype=np.float32)
    x = rng.random((11, 1), dtype=np.float32)
    y = np.zeros((15, 1), dtype=np.float32)
    addr_a, addr_x, addr_y = 0, 64 * 1024, 128 * 1024
    mem.write_array(addr_a, a)
    mem.write_array(addr_x, x)
    mem.write_array(addr_y, y)
    for reg, value in {
        Register.OPCODE: int(Opcode.GEMV),
        Register.ADDR_A: addr_a,
        Register.ADDR_B: addr_x,
        Register.ADDR_C: addr_y,
        Register.DIM_M: 15,
        Register.DIM_K: 11,
        Register.ALPHA: encode_scalar(1.0),
        Register.BETA: encode_scalar(0.0),
        Register.ELEM_SIZE: 4,
    }.items():
        acc.mmio_write(reg, value)
    acc.mmio_write(Register.COMMAND, int(Command.START))
    out = mem.read_array(addr_y, 15)
    np.testing.assert_allclose(out, a @ x.ravel(), rtol=1e-4)
    assert acc.last_run.gemv_count == 1


def _gemv_registers(addr_x: int) -> dict:
    return {
        Register.OPCODE: int(Opcode.GEMV),
        Register.ADDR_A: 0,
        Register.ADDR_B: addr_x,
        Register.ADDR_C: 128 * 1024,
        Register.DIM_M: 15,
        Register.DIM_K: 11,
        Register.ALPHA: encode_scalar(1.5),
        Register.BETA: encode_scalar(0.0),
        Register.ELEM_SIZE: 4,
    }


def _gemv_on(rng_seed: int, registers: dict, starts: int):
    """A GEMV programmed with *registers* on a fresh accelerator and
    started *starts* times; returns (accelerator, memory, output)."""
    rng = np.random.default_rng(rng_seed)
    acc, mem = make_accelerator()
    mem.write_array(0, rng.standard_normal((15, 11)).astype(np.float32))
    mem.write_array(64 * 1024, rng.standard_normal(11).astype(np.float32))
    mem.write_array(192 * 1024, rng.standard_normal(11).astype(np.float32))
    for reg, value in registers.items():
        acc.mmio_write(reg, value)
    for _ in range(starts):
        acc.mmio_write(Register.COMMAND, int(Command.START))
    return acc, mem, mem.read_array(128 * 1024, 15)


@pytest.mark.parametrize(
    "register, value",
    [
        (Register.ALPHA, encode_scalar(-0.75)),
        (Register.ADDR_B, 192 * 1024),
        (Register.DIM_M, 7),
        (Register.ELEM_SIZE, 4),
    ],
)
def test_a_bare_start_reruns_the_decoded_descriptor_until_a_register_changes(
    register, value
):
    """START alone re-runs the request decoded at the previous start; a
    write to any other register through ``mmio_write`` drops it, even a
    write of the value the register already holds."""
    acc, mem, first = _gemv_on(3, _gemv_registers(64 * 1024), starts=1)
    decoded = acc._decoded_gemm[1]
    with acc.on_run.collect() as runs:
        acc.mmio_write(Register.COMMAND, int(Command.START))
    assert acc._decoded_gemm[1] is decoded
    assert np.array_equal(mem.read_array(128 * 1024, 15), first)
    assert runs == [acc.last_run]

    acc.mmio_write(register, value)
    acc.mmio_write(Register.COMMAND, int(Command.START))
    assert acc._decoded_gemm[1] is not decoded
    changed = {**_gemv_registers(64 * 1024), register: value}
    _, _, expected = _gemv_on(3, changed, starts=1)
    rows = changed[Register.DIM_M]
    assert np.array_equal(mem.read_array(128 * 1024, 15)[:rows], expected[:rows])


def test_energy_and_latency_accounting_consistency(rng):
    acc, mem = make_accelerator()
    a = rng.random((16, 16), dtype=np.float32)
    b = rng.random((16, 16), dtype=np.float32)
    c = np.zeros((16, 16), dtype=np.float32)
    run_gemm_on_accelerator(acc, mem, a, b, c, alpha=1.0, beta=0.0)
    run = acc.last_run
    assert run.energy_j > 0
    assert run.latency_s > 0
    assert run.crossbar_cell_writes == 16 * 16
    assert run.gemv_count == 16
    assert run.macs == 16 * 16 * 16
    # The breakdown must sum (approximately) to the reported total.
    assert sum(run.energy_breakdown.values()) == pytest.approx(run.energy_j, rel=1e-6)
    # Crossbar writes dominate the accelerator energy for one GEMM of this
    # shape (256 cells * 200 pJ >> compute energy).
    assert run.energy_breakdown["cim.crossbar_write"] == pytest.approx(
        16 * 16 * acc.energy_model.write_energy_per_cell_j
    )


def test_double_buffering_reduces_latency(rng):
    a = rng.random((32, 32), dtype=np.float32)
    b = rng.random((32, 32), dtype=np.float32)
    c = np.zeros((32, 32), dtype=np.float32)
    acc_db, mem_db = make_accelerator(config=AcceleratorConfig(double_buffering=True))
    acc_nodb, mem_nodb = make_accelerator(config=AcceleratorConfig(double_buffering=False))
    run_gemm_on_accelerator(acc_db, mem_db, a, b, c, 1.0, 0.0)
    run_gemm_on_accelerator(acc_nodb, mem_nodb, a, b, c, 1.0, 0.0)
    assert acc_db.last_run.latency_s < acc_nodb.last_run.latency_s


def test_unsupported_opcode_sets_error_status():
    acc, mem = make_accelerator()
    acc.mmio_write(Register.OPCODE, 99)
    with pytest.raises(ValueError):
        acc.mmio_write(Register.COMMAND, int(Command.START))
    assert acc.registers.status() is Status.ERROR


def test_reset_stats_clears_history(rng):
    acc, mem = make_accelerator()
    a = rng.random((4, 4), dtype=np.float32)
    run_gemm_on_accelerator(acc, mem, a, a, np.zeros((4, 4), dtype=np.float32), 1.0, 0.0)
    assert acc.last_run is not None and acc.total_cell_writes() > 0
    acc.reset_stats()
    assert acc.last_run is None
    assert acc.total_energy_j() == 0.0 and acc.total_cell_writes() == 0


# ----------------------------------------------------------------------
# A run that raises
# ----------------------------------------------------------------------
def _gemv_system(matrix: np.ndarray, x: np.ndarray):
    system = CimSystem()
    runtime = system.runtime
    runtime.cim_init(0)
    buffers = [runtime.cim_malloc(array.nbytes) for array in (matrix, x, x)]
    for buffer, array in zip(buffers, (matrix, x)):
        runtime.cim_host_to_dev(buffer, array)
    m, n = matrix.shape
    descriptor = system.blas.gemv_descriptor(False, m, n, 1.0, buffers[0], n, buffers[1],
                                             0.0, buffers[2])
    return system, buffers[0], descriptor


def _events(acc, since: int = 0) -> list:
    events = list(acc.timeline.events)[since:]
    return [(e.component, e.action, e.start_s, e.duration_s) for e in events]


def test_a_failed_run_keeps_its_charges_but_not_its_clock(rng):
    """A crossbar write that rejects its operand (an inf cannot be
    quantised) fails the run after the block's DMA-in was charged.  The
    failed run keeps the charges made before the raise — reading A and x,
    the tile's DMA-in and its timeline phase — records no run, and leaves
    the clock at zero: the next run's latency and phase start times are
    those of the same run on a fresh device."""
    matrix = rng.integers(-4, 5, (64, 64)).astype(np.float32)
    x = rng.integers(-4, 5, 64).astype(np.float32)
    fresh, _, descriptor = _gemv_system(matrix, x)
    fresh.blas.launch(descriptor)
    expected = fresh.accelerator.last_run

    poisoned = matrix.copy()
    poisoned[3, 5] = np.inf
    system, a_buffer, descriptor = _gemv_system(poisoned, x)
    acc = system.accelerator
    memory_before = (system.memory.reads, system.memory.bytes_read)
    with acc.on_run.collect() as runs, pytest.raises(ValueError, match="cannot be quantised"):
        system.blas.launch(descriptor)
    assert acc.registers.status() is Status.ERROR
    assert runs == [] and acc.last_run is None
    model = acc.energy_model
    tile_bytes = 64 * 64 * 4
    assert acc.energy.as_dict() == {"cim.dma_traffic": tile_bytes * model.dma_energy_per_byte_j}
    assert acc.counters.as_dict() == {"cim.dma_bytes": tile_bytes}
    assert acc.tile.energy.as_dict() == {} and acc.tile.crossbar.total_cell_writes == 0
    assert _events(acc) == [
        ("dma", "fill_buffer", 0.0, tile_bytes / model.dma_bandwidth_bytes_per_s)]
    assert (system.memory.reads, system.memory.bytes_read) == (
        memory_before[0] + 2, memory_before[1] + tile_bytes + 64 * 4)
    assert acc.dma.total_bytes == 0

    system.runtime.cim_host_to_dev(a_buffer, matrix)
    system.blas.launch(descriptor)
    assert acc.last_run.latency_s == expected.latency_s
    assert _events(acc, since=1) == _events(fresh.accelerator)


def test_a_failed_request_does_not_delay_the_next_tenant(rng):
    """The same through the serving layer: tenant b's request costs the
    same simulated time alone and right after tenant a's failed one."""
    matrix = rng.integers(0, 8, (64, 64)).astype(np.float32)
    arrays = {"A": matrix, "x": rng.integers(0, 8, 64).astype(np.float32),
              "y": np.zeros(64, dtype=np.float32)}
    poisoned = {**arrays, "A": np.where(np.eye(64, dtype=bool), np.inf, matrix).astype(np.float32)}
    params = {"M": 64, "N": 64}
    times = []
    for first in (None, poisoned):
        with CimServer(ServerConfig(batch_window_s=0.0)) as server:
            if first is not None:
                failed = server.submit("a", GEMV_SOURCE, params, first)
                server.drain()
                assert failed.status.value == "failed"
            handle = server.submit("b", GEMV_SOURCE, params, arrays)
            server.drain()
            times.append(handle.report.total_time_s)
    assert times[0] == times[1]
