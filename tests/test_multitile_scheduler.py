"""Multi-tile offload scheduler and kernel-compile cache tests.

Covers the PR 2 tentpole: sharded multi-tile offload must be numerically
and energetically identical to the single-tile model (only latency may
change), the tile scheduler must respect the double-buffered pipeline
invariants on its event timeline, and the content-addressed compile cache
must return identical results on a hit.
"""

import numpy as np
import pytest

from repro import CimSystem, CompileOptions, OffloadExecutor, SystemConfig, compile_source
from repro.compiler import (
    KernelCompileCache,
    TdoCimCompiler,
    compile_fingerprint,
)
from repro.hw.accelerator import AcceleratorConfig
from repro.hw.scheduler import ShardWork, TileScheduler, plan_gemm_shards
from repro.workloads import PAPER_KERNELS, get_kernel
from tests.conftest import GEMM_SOURCE

# A crossbar small enough that MINI operands decompose into several shard
# blocks (and large enough for the conv kernel's 3x3 = 9-tap filter).
SHARD_CROSSBAR = 12


def _make_system(num_tiles: int) -> CimSystem:
    return CimSystem(SystemConfig(
        num_tiles=num_tiles,
        crossbar_rows=SHARD_CROSSBAR,
        crossbar_cols=SHARD_CROSSBAR,
    ))


# ----------------------------------------------------------------------
# Sharded offload: numerical + accounting identity, latency improvement
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", PAPER_KERNELS)
def test_sharded_offload_identical_to_single_tile(name):
    kernel = get_kernel(name)
    params = kernel.params("MINI")
    arrays = kernel.arrays("MINI", seed=7)
    compiled = compile_source(kernel.source, size_hint=params)

    outputs = {}
    reports = {}
    for tiles in (1, 4):
        outputs[tiles], reports[tiles] = OffloadExecutor(
            _make_system(tiles)
        ).run(compiled, params, arrays)

    for array_name in kernel.output_arrays:
        np.testing.assert_array_equal(
            outputs[1][array_name], outputs[4][array_name],
            err_msg=f"{name}: sharded result differs for {array_name}",
        )
    # Energy, wear and op counts are tile-count-invariant by construction.
    assert reports[4].accelerator_energy_j == reports[1].accelerator_energy_j
    assert reports[4].crossbar_cell_writes == reports[1].crossbar_cell_writes
    assert reports[4].gemv_count == reports[1].gemv_count
    assert reports[4].dma_bytes == reports[1].dma_bytes
    # Latency must never regress; MINI operands shard into several blocks
    # on the small crossbar, so every paper kernel actually speeds up.
    assert reports[4].accelerator_time_s < reports[1].accelerator_time_s


def test_tile_latency_is_monotone_in_tile_count():
    kernel = get_kernel("gesummv")
    params = kernel.params("MINI")
    arrays = kernel.arrays("MINI", seed=3)
    compiled = compile_source(kernel.source, size_hint=params)
    latencies = []
    for tiles in (1, 2, 4, 8):
        _, report = OffloadExecutor(_make_system(tiles)).run(compiled, params, arrays)
        latencies.append(report.accelerator_time_s)
    assert all(a >= b for a, b in zip(latencies, latencies[1:]))
    assert latencies[2] < latencies[0]


def test_single_tile_timeline_keeps_seed_component_names():
    kernel = get_kernel("gemm")
    params = kernel.params("MINI")
    arrays = kernel.arrays("MINI", seed=1)
    compiled = compile_source(kernel.source, size_hint=params)
    system = _make_system(1)
    OffloadExecutor(system).run(compiled, params, arrays)
    components = {e.component for e in system.accelerator.timeline.events}
    assert "crossbar" in components and "dma" in components
    assert not any(c.startswith("tile") for c in components)


def test_multitile_timeline_pipeline_invariants():
    kernel = get_kernel("gemm")
    params = kernel.params("MINI")
    arrays = kernel.arrays("MINI", seed=1)
    compiled = compile_source(kernel.source, size_hint=params)
    system = _make_system(4)
    OffloadExecutor(system).run(compiled, params, arrays)
    timeline = system.accelerator.timeline
    by_component = timeline.by_component()
    tile_components = [c for c in by_component if c.startswith("tile")]
    assert len({c.split(".")[0] for c in tile_components}) > 1, (
        "expected shards on more than one tile lane"
    )
    # Per-component serialization: one tile lane never overlaps itself.
    for component in tile_components:
        events = sorted(by_component[component], key=lambda e: e.start_s)
        for prev, cur in zip(events, events[1:]):
            assert cur.start_s >= prev.end_s - 1e-15, (
                f"{component} events overlap: {prev} / {cur}"
            )
    # Pipelining: total busy time across lanes exceeds the makespan (work
    # genuinely overlapped), yet the makespan bounds every event.
    busy = sum(timeline.busy_time(c) for c in tile_components)
    assert busy > timeline.makespan_s


# ----------------------------------------------------------------------
# TileScheduler unit behaviour
# ----------------------------------------------------------------------
def test_scheduler_double_buffering_overlaps_dma_with_compute():
    shards = [ShardWork(dma_in_s=1.0, compute_s=2.0) for _ in range(4)]
    pipelined = TileScheduler(1, double_buffering=True).schedule(shards)
    serial = TileScheduler(1, double_buffering=False).schedule(shards)
    # Ping-pong: first DMA exposed, the rest hide behind compute.
    assert pipelined == pytest.approx(1.0 + 4 * 2.0)
    assert serial == pytest.approx(4 * (1.0 + 2.0))


def test_scheduler_balances_equal_shards_across_tiles():
    shards = [ShardWork(compute_s=1.0) for _ in range(8)]
    for tiles in (1, 2, 4, 8):
        makespan = TileScheduler(tiles).schedule(shards)
        assert makespan == pytest.approx(8.0 / tiles)


def test_scheduler_compute_starts_after_its_dma():
    scheduler = TileScheduler(3)
    scheduler.schedule(
        [ShardWork(dma_in_s=0.5, program_s=0.25, compute_s=1.0) for _ in range(7)]
    )
    assert len(scheduler.placements) == 7
    for placement in scheduler.placements:
        assert placement.compute_start_s >= placement.dma_end_s
        assert placement.tile < 3


def test_scheduler_rejects_bad_tile_count():
    with pytest.raises(ValueError):
        TileScheduler(0)
    with pytest.raises(ValueError):
        AcceleratorConfig(num_tiles=0)


def test_plan_gemm_shards_respects_geometry():
    shards = plan_gemm_shards(20, 16, cols=12, rows=12)
    assert len(shards) == 4
    assert all(s.i_size <= 12 and s.k_size <= 12 for s in shards)
    with pytest.raises(ValueError):
        plan_gemm_shards(0, 16, cols=12, rows=12)


# ----------------------------------------------------------------------
# Wiring: SystemConfig / executor / driver / runtime
# ----------------------------------------------------------------------
def test_executor_num_tiles_convenience():
    executor = OffloadExecutor(num_tiles=4)
    assert executor.system.accelerator.num_tiles == 4
    with pytest.raises(ValueError):
        OffloadExecutor(_make_system(2), num_tiles=4)
    with pytest.raises(ValueError):
        OffloadExecutor(num_tiles=0)


def test_invalid_crossbar_override_raises():
    with pytest.raises(ValueError):
        CimSystem(SystemConfig(crossbar_rows=0))


def test_runtime_device_info_reports_tiles_and_geometry():
    system = _make_system(4)
    system.runtime.cim_init(0)
    info = system.runtime.cim_device_info()
    assert info["num_tiles"] == 4
    assert info["crossbar_rows"] == SHARD_CROSSBAR
    assert info["crossbar_cols"] == SHARD_CROSSBAR
    assert system.driver.counters.get("driver.query") == 1


# ----------------------------------------------------------------------
# Kernel-compile cache
# ----------------------------------------------------------------------
def test_compile_cache_hit_returns_identical_result():
    cache = KernelCompileCache()
    options = CompileOptions()
    first = compile_source(GEMM_SOURCE, options=options, cache=cache)
    second = compile_source(GEMM_SOURCE, options=options, cache=cache)
    assert second is first
    assert cache.hits == 1 and cache.misses == 1
    # The cached result still runs end to end.
    rng = np.random.default_rng(0)
    arrays = {
        "A": rng.random((8, 6), dtype=np.float32),
        "B": rng.random((6, 5), dtype=np.float32),
        "C": rng.random((8, 5), dtype=np.float32),
    }
    params = {"M": 8, "N": 5, "K": 6, "alpha": 1.5, "beta": 1.2}
    outputs, _ = OffloadExecutor().run(second, params, arrays)
    reference = 1.2 * arrays["C"] + 1.5 * (
        arrays["A"].astype(np.float64) @ arrays["B"].astype(np.float64)
    )
    np.testing.assert_allclose(outputs["C"], reference, rtol=1e-5, atol=1e-6)


def test_compile_cache_distinguishes_options_and_hints():
    cache = KernelCompileCache()
    base = compile_source(GEMM_SOURCE, cache=cache)
    host_only = compile_source(
        GEMM_SOURCE, options=CompileOptions.host_only(), cache=cache
    )
    hinted = compile_source(
        GEMM_SOURCE, size_hint={"M": 4, "N": 4, "K": 4}, cache=cache
    )
    assert host_only is not base and hinted is not base
    assert cache.misses == 3 and len(cache) == 3


def test_compile_fingerprint_ignores_cache_control_fields(tmp_path):
    plain = compile_fingerprint(GEMM_SOURCE, CompileOptions())
    controlled = compile_fingerprint(
        GEMM_SOURCE,
        CompileOptions(enable_compile_cache=False, compile_cache_dir=str(tmp_path)),
    )
    assert plain == controlled
    assert plain != compile_fingerprint(GEMM_SOURCE, CompileOptions(engine="interpreter"))


def test_compile_cache_disabled_by_option():
    compiler = TdoCimCompiler(CompileOptions(enable_compile_cache=False))
    assert compiler.cache is None
    first = compiler.compile(GEMM_SOURCE)
    second = compiler.compile(GEMM_SOURCE)
    assert first is not second


def test_explicit_cache_wins_over_disabled_option():
    cache = KernelCompileCache()
    options = CompileOptions(enable_compile_cache=False)
    first = compile_source(GEMM_SOURCE, options=options, cache=cache)
    second = compile_source(GEMM_SOURCE, options=options, cache=cache)
    assert second is first
    assert cache.hits == 1 and cache.misses == 1


def test_compile_cache_lru_eviction():
    cache = KernelCompileCache(capacity=2)
    sources = [
        GEMM_SOURCE,
        GEMM_SOURCE.replace("gemm", "gemm_b"),
        GEMM_SOURCE.replace("gemm", "gemm_c"),
    ]
    for source in sources:
        compile_source(source, cache=cache)
    assert len(cache) == 2
    # The first source was evicted: compiling it again is a miss.
    misses_before = cache.misses
    compile_source(sources[0], cache=cache)
    assert cache.misses == misses_before + 1


def test_compile_cache_disk_persistence(tmp_path):
    options = CompileOptions(compile_cache_dir=str(tmp_path))
    writer = TdoCimCompiler(options)
    original = writer.compile(GEMM_SOURCE)
    assert list(tmp_path.glob("*.pkl")), "expected an on-disk cache entry"

    # A fresh compiler (cold in-memory cache) loads the persisted result.
    reader = TdoCimCompiler(CompileOptions(compile_cache_dir=str(tmp_path)))
    restored = reader.compile(GEMM_SOURCE)
    assert restored is not original
    assert reader.cache.hits == 1
    assert restored.report.offloaded_kernels == original.report.offloaded_kernels
    assert [d.offloaded for d in restored.report.decisions] == [
        d.offloaded for d in original.report.decisions
    ]

    params = {"M": 6, "N": 6, "K": 6, "alpha": 1.0, "beta": 0.0}
    rng = np.random.default_rng(5)
    arrays = {
        "A": rng.random((6, 6), dtype=np.float32),
        "B": rng.random((6, 6), dtype=np.float32),
        "C": np.zeros((6, 6), dtype=np.float32),
    }
    out_restored, _ = OffloadExecutor().run(restored, params, arrays)
    out_original, _ = OffloadExecutor().run(original, params, arrays)
    np.testing.assert_array_equal(out_restored["C"], out_original["C"])
