"""Tests for the host cost model, cache model, CPU model, bus, and memory."""

import numpy as np
import pytest

from repro.frontend import parse_program
from repro.host import ArmA7Core, CacheConfig, CacheModel, HostCostModel, HostCPU
from repro.host.cache import default_host_hierarchy
from repro.ir import Interpreter
from repro.ir.normalize import normalize_reductions
from repro.system import CimSystem, SystemConfig
from repro.system.bus import BusError, SystemBus
from repro.system.memory import MemoryAccessError, SharedMemory


# ----------------------------------------------------------------------
# Host cost model
# ----------------------------------------------------------------------
def test_analytic_estimate_matches_interpreter_trace(gemm_program):
    params = {"M": 6, "N": 5, "K": 4, "alpha": 1.5, "beta": 0.5}
    model = HostCostModel(assume_register_promotion=False)
    analytic = model.estimate_program(gemm_program, params)
    interp = Interpreter(gemm_program)
    interp.run(params)
    measured = model.estimate_trace(interp.trace)
    # The two estimates count the same classes of operations; allow a small
    # relative slack for loop-control bookkeeping differences.
    assert analytic.instructions == pytest.approx(measured.instructions, rel=0.10)
    assert analytic.flops == pytest.approx(measured.flops, rel=0.05)
    assert analytic.loads == pytest.approx(measured.loads, rel=0.05)
    assert analytic.stores == pytest.approx(measured.stores, rel=0.05)


def test_register_promotion_reduces_memory_traffic(gemm_program):
    params = {"M": 8, "N": 8, "K": 8, "alpha": 1.0, "beta": 1.0}
    with_promo = HostCostModel(assume_register_promotion=True).estimate_program(
        gemm_program, params
    )
    without_promo = HostCostModel(assume_register_promotion=False).estimate_program(
        gemm_program, params
    )
    assert with_promo.loads < without_promo.loads
    assert with_promo.stores < without_promo.stores
    assert with_promo.instructions < without_promo.instructions


def test_estimate_scales_with_problem_size(gemm_program):
    model = HostCostModel()
    small = model.estimate_program(gemm_program, {"M": 8, "N": 8, "K": 8,
                                                  "alpha": 1.0, "beta": 1.0})
    large = model.estimate_program(gemm_program, {"M": 16, "N": 16, "K": 16,
                                                  "alpha": 1.0, "beta": 1.0})
    assert large.instructions == pytest.approx(8 * small.instructions, rel=0.15)


def test_energy_and_time_derived_from_instructions(gemm_program):
    model = HostCostModel()
    estimate = model.estimate_program(
        gemm_program, {"M": 4, "N": 4, "K": 4, "alpha": 1.0, "beta": 1.0}
    )
    assert estimate.energy_j == pytest.approx(
        estimate.instructions * model.model.energy_per_instruction_j
    )
    assert estimate.time_s == pytest.approx(
        estimate.instructions / model.model.frequency_hz
    )


def test_empty_loop_contributes_nothing():
    source = """
    void f(int N, float A[N]) {
      for (int i = 0; i < N; i++)
        A[i] = 0.0;
    }
    """
    program = parse_program(source)
    estimate = HostCostModel().estimate_program(program, {"N": 0})
    assert estimate.instructions == 0


# ----------------------------------------------------------------------
# Cache model
# ----------------------------------------------------------------------
def test_cache_hit_after_miss():
    cache = CacheModel(CacheConfig(size_bytes=1024, line_bytes=64, associativity=2))
    assert cache.access(0) is False
    assert cache.access(32) is True  # same line
    assert cache.stats.misses == 1 and cache.stats.hits == 1


def test_cache_eviction_lru():
    cache = CacheModel(CacheConfig(size_bytes=2 * 64, line_bytes=64, associativity=2))
    # Single set with 2 ways: three distinct lines mapping to the same set.
    cache.access(0)
    cache.access(64)
    cache.access(128)
    assert cache.stats.evictions == 1
    assert cache.access(0) is False  # evicted


def test_cache_flush_range_counts_lines():
    cache = CacheModel(CacheConfig(size_bytes=4096, line_bytes=64, associativity=4))
    for address in range(0, 640, 64):
        cache.access(address, is_write=True)
    flushed = cache.flush_range(0, 640)
    assert flushed == 10
    assert cache.stats.writebacks == 10


def test_default_hierarchy_has_two_levels():
    l1 = default_host_hierarchy()
    assert l1.next_level is not None
    l1.access(0)
    assert l1.next_level.stats.accesses == 1


def test_cache_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1000, line_bytes=64, associativity=3)


# ----------------------------------------------------------------------
# CPU model
# ----------------------------------------------------------------------
def test_core_execute_accounting():
    core = ArmA7Core()
    time_s, energy_j = core.execute(1.2e9)
    assert time_s == pytest.approx(1.0)
    assert energy_j == pytest.approx(1.2e9 * 128e-12)
    assert core.retired_instructions == 1.2e9
    with pytest.raises(ValueError):
        core.execute(-1)


def test_host_cpu_has_two_cores():
    cpu = HostCPU()
    assert len(cpu.cores) == 2
    cpu.core0.execute(100)
    assert cpu.total_retired_instructions() == 100


# ----------------------------------------------------------------------
# Shared memory and bus
# ----------------------------------------------------------------------
def test_memory_read_write_roundtrip():
    memory = SharedMemory(1024 * 1024, 512 * 1024)
    payload = bytes(range(100))
    memory.write(1000, payload)
    assert memory.read(1000, 100) == payload
    assert memory.bytes_written == 100 and memory.bytes_read == 100


def test_memory_typed_array_helpers(rng):
    memory = SharedMemory(1024 * 1024, 512 * 1024)
    data = rng.random((8, 8), dtype=np.float32)
    memory.write_array(4096, data)
    np.testing.assert_array_equal(memory.read_array(4096, 64).reshape(8, 8), data)


def test_memory_view_is_zero_copy_read_only_and_counted():
    memory = SharedMemory(1024 * 1024, 512 * 1024)
    memory.write(1000, bytes(range(100)))
    window = memory.view(1000, 100)
    assert (memory.reads, memory.bytes_read) == (1, 100)  # exactly like read()
    assert window.tobytes() == bytes(range(100))
    with pytest.raises(ValueError):
        window[0] = 1
    memory.write(1000, b"\xff")  # the window aliases memory; writes still work
    assert window[0] == 0xFF
    with pytest.raises(MemoryAccessError):
        memory.view(1024 * 1024 - 10, 20)


def test_memory_write_accepts_bytes_bytearray_and_byte_valued_arrays():
    memory = SharedMemory(4096, 1024)
    assert memory.write(0, b"\x01\x02") == 2
    assert memory.write(2, bytearray(b"\x03")) == 1
    assert memory.write(3, np.array([[4, 5], [6, 7]], dtype=np.uint8)) == 4
    assert memory.read(0, 7) == bytes(range(1, 8))
    assert (memory.writes, memory.bytes_written) == (3, 7)


def test_memory_out_of_range_access_rejected():
    memory = SharedMemory(4096, 1024)
    with pytest.raises(MemoryAccessError):
        memory.read(4000, 200)
    with pytest.raises(MemoryAccessError):
        memory.write(-4, b"1234")


def test_memory_regions_partition_space():
    memory = SharedMemory(1024 * 1024, 256 * 1024)
    assert memory.regions["system"].size + memory.cma_region.size == memory.size_bytes
    assert memory.cma_region.contains(memory.cma_region.base, 1)


def test_bus_routes_pmio_to_accelerator(system):
    bus = system.bus
    window = system.pmio_window
    from repro.hw.context_regs import Register

    address = bus.register_address(window, Register.DIM_M)
    bus.pmio_write(address, 17)
    assert bus.pmio_read(address) == 17
    assert bus.pmio_writes == 1 and bus.pmio_reads == 1


def test_bus_unmapped_address_rejected():
    bus = SystemBus()
    with pytest.raises(BusError):
        bus.pmio_read(0x1234)


# ----------------------------------------------------------------------
# System assembly
# ----------------------------------------------------------------------
def test_system_default_configuration_is_table_i(system):
    assert system.config.cim.crossbar_rows == 256
    assert system.crossbar.config.rows == 256
    assert system.config.crossbar_mode == "ideal"
    assert "256x256" in repr(system)


def test_system_reset_stats(system, rng):
    system.runtime.cim_init(0)
    data = rng.random((8, 8), dtype=np.float32)
    buffer = system.runtime.cim_malloc(data.nbytes)
    system.runtime.cim_host_to_dev(buffer, data)
    assert system.host_overhead.instructions > 0
    system.reset_stats()
    assert system.host_overhead.instructions == 0
    assert system.accelerator.total_energy_j() == 0


def test_quantized_configuration():
    system = CimSystem(SystemConfig.quantized())
    assert system.crossbar.config.mode == "quantized"
