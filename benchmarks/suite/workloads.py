"""The seven workloads of the benchmark, run one per process.

``run.py`` starts this file as a subprocess with the host environment
pinned; it is not meant to be started by hand.  One process makes one
*pass* over one workload (or, with ``--trace 1``, an untraced and a traced
pass at the same reduced size) and prints one JSON document as the last
line of its standard output.

Every workload has a fixed operation count derived from ``--seconds``
(the rates below were sized on a 2-vCPU box so that the timed region
lasts about ``--seconds`` there).  Counts, not durations, are fixed
because every serving tier slows with its own history: the same code
gives a different throughput at a different run length.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from spans import OP_SPAN, Tracer

from repro import (
    AsyncGateway,
    CimServer,
    CompileOptions,
    FleetConfig,
    FleetServer,
    GatewayConfig,
    OffloadExecutor,
    compile_source,
)
from repro.gateway.loadgen import GEMV_SOURCE, synthetic_gemv_workload
from repro.gateway.wire import GatewayRequest, GatewayResponse
from repro.gateway.worker import build_worker_server, serve_one
from repro.hw.endurance import system_lifetime_years
from repro.ir.printer import to_source
from repro.serve.request import RequestStatus
from repro.system.config import SystemConfig
from repro.trace.arrivals import poisson_plan
from repro.workloads import KERNELS, PAPER_KERNELS

clock = time.perf_counter

#: Share of ``--seconds`` each of the two passes of a traced run gets.
TRACED_SHARE = 0.4
#: Correctness is checked against the NumPy reference on every Nth
#: operation of the PolyBench workloads (every operation elsewhere).
CHECK_EVERY = 50
#: The timed region is cut into equal segments and every timing is the
#: median over them, which ignores the segments a neighbour disturbed.
MAX_SEGMENTS = 20
#: ... of at least this many operations, so that ten lie beyond the p90.
MIN_SEGMENT_OPS = 100
TENANTS = ("alpha", "beta", "gamma", "delta")
#: PCM cell endurance used for Eq. 1 (writes per cell), as in the paper.
CELL_ENDURANCE = 1e7
#: Offered rate of the open-loop workload, requests per second.
OPEN_LOOP_RPS = 100.0
#: ``gw_open_mix`` counts a request as missing its limit above this latency.
SLO_MS = 25.0
#: The machine-speed probe runs between operations, this often at most.
PROBE_EVERY_S = 0.05
#: What the probe takes on the box the workloads were sized on.  Timings
#: are scaled by reference / measured, so they read as on that box.
PROBE_REFERENCE_S = 0.30e-3
#: Closed-loop gateway clients pause for the probe this often (requests).
PROBE_BLOCK = 100

#: The option sets ``compile_cold`` compiles every kernel under.
OPTION_SETS = {
    "default": {},
    "tiling": {"enable_tiling": True},
    "selective": {"min_macs_per_write": 32},
    "no-fusion": {"pipeline": "no-fusion"},
}


# ----------------------------------------------------------------------
# One pass: what a workload records
# ----------------------------------------------------------------------
class Session:
    """State of one pass over one workload."""

    def __init__(self, args, seconds: float, traced: bool, setup_only: bool = False):
        self.seed = args.seed
        self.seconds = seconds
        self.spawned_at = args.spawned_at
        self.out_dir = Path(args.out_dir)
        self.setup_only = setup_only
        self.tracer = Tracer() if traced else None
        self.setup_s: float | None = None
        #: (input key, latency_s, end time on the timed clock) per operation.
        self.ops: list[tuple[str, float, float]] = []
        #: Simulated cost per input key: [ops, energy_j, time_s, cell_writes,
        #: gemvs, crossbar write ops, dma bytes].
        self.sims: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        #: A few of the failed operations, for the log.
        self.failures: list[str] = []
        #: Failed checks that make the whole pass invalid.
        self.errors: list[str] = []
        #: Per-layer values a workload measures directly (not from spans).
        self.layer: dict[str, float] = {}
        self.info: dict = {}
        #: Open loop: the rate is fixed by the schedule, so it is reported
        #: over the whole timed region instead of per segment.
        self.whole_run_rate = False
        self._timed_clock = 0.0
        #: Durations of the machine-speed probe (seconds).
        self.probes: list[float] = []
        self._last_probe = 0.0

    def count(self, per_second: float) -> int:
        """Operation (or round, or epoch) count of this pass."""
        return max(1, round(per_second * self.seconds))

    def setup_done(self) -> bool:
        """Called once, right before the first timed operation."""
        self.setup_s = time.time() - self.spawned_at
        if self.setup_only:
            return False
        if self.tracer is not None:
            instrument(self.tracer)
        return True

    def probe(self, samples: int = 1) -> None:
        """Sample the machine's speed: a fixed piece of interpreter and
        NumPy work, between operations and outside every timer."""
        for _ in range(samples):
            started = clock()
            total = 0
            for value in range(4000):
                total += value * value % 7
            for _ in range(4):
                (_PROBE_MATRIX @ _PROBE_MATRIX).tobytes()
            self._last_probe = clock()
            self.probes.append(self._last_probe - started)

    def probe_due(self) -> bool:
        return clock() - self._last_probe >= PROBE_EVERY_S

    def probe_if_due(self) -> None:
        """One sample, at most once per PROBE_EVERY_S."""
        if self.probe_due():
            self.probe()

    def machine_slowdown(self) -> float:
        """How much slower than the reference box this machine ran during
        the pass (1.0 = the same).  The sandbox's speed drifts by 10-15 %
        for tens of seconds at a time, longer than a run, so no statistic
        over one run's operations can remove it; the probe can, because it
        slows with them."""
        if not self.probes:
            return 1.0
        return statistics.median(self.probes) / PROBE_REFERENCE_S

    def op(self, index: int):
        """Root span of one operation (a no-op on the untraced pass)."""
        if self.tracer is None:
            return _NO_SPAN
        return self.tracer.operation(index)

    def record(self, key: str, latency_s: float) -> None:
        """One closed-loop operation on a single thread."""
        self._timed_clock += latency_s
        self.ops.append((key, latency_s, self._timed_clock))
        self.attempted += 1

    def record_epoch(self, keys, latencies_s, wall_s: float) -> None:
        """A burst of operations resolved together by one ``drain()``."""
        self._timed_clock += wall_s
        for key, latency_s in zip(keys, latencies_s):
            self.ops.append((key, latency_s, self._timed_clock))
        self.attempted += len(keys)

    def record_at(self, key: str, latency_s: float, end_s: float) -> None:
        """One operation on the wall clock (concurrent clients)."""
        self.ops.append((key, latency_s, end_s))
        self.attempted += 1

    def add_sim(self, key: str, energy_j: float, time_s: float, cell_writes: int,
                gemvs: int = 0, write_ops: int = 0, dma_bytes: int = 0) -> None:
        """What the modelled device spent on one operation."""
        row = self.sims.setdefault(key, [0, 0.0, 0.0, 0, 0, 0, 0])
        for column, value in enumerate(
            (1, energy_j, time_s, cell_writes, gemvs, write_ops, dma_bytes)
        ):
            row[column] += value

    def add_report(self, key: str, report) -> None:
        self.add_sim(
            key, report.total_energy_j, report.total_time_s,
            report.crossbar_cell_writes, report.gemv_count,
            report.crossbar_write_ops, report.dma_bytes,
        )

    def fail(self, message: str) -> None:
        """Count one operation as failed (wrong output, rejected, ...)."""
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def error(self, message: str) -> None:
        """A failed check that is not tied to one operation."""
        self.errors.append(message)



_NO_SPAN = nullcontext()
_PROBE_MATRIX = np.random.default_rng(0).random((48, 48), dtype=np.float32)


# ----------------------------------------------------------------------
# Layer boundaries the traced pass times (span name = per-layer metric)
# ----------------------------------------------------------------------
#: ``TdoCimCompiler.compile``: its own time is pass-manager overhead when
#: it runs a pipeline and cache-lookup cost when it is served from cache.
COMPILE_SPAN = "compiler.compile"


def instrument(tracer: Tracer) -> None:
    """Wrap the calls into every layer.  All workloads get the same set,
    so "this workload spends nothing in that layer" is a measurement."""
    import repro.codegen.executor as executor_module
    import repro.compiler.driver as compiler_driver
    import repro.fleet.server as fleet_server
    import repro.serve.server as serve_server
    from repro.compiler.cache import KernelCompileCache
    from repro.compiler.passes import PASS_REGISTRY
    from repro.compiler.passes.manager import PassManager
    from repro.driver.driver import CimDriver
    from repro.fleet.placement import WearAwarePlacement
    from repro.host.cost_model import HostCostModel
    from repro.hw.accelerator import CIMAccelerator
    from repro.hw.dma import DMAEngine
    from repro.hw.microengine import MicroEngine
    from repro.hw.tile import CIMTile
    from repro.ir.interp import Interpreter
    from repro.runtime.api import CimRuntime
    from repro.runtime.blas import CimBlas
    from repro.serve.accounting import AccountingLedger
    from repro.serve.admission import AdmissionController
    from repro.serve.batcher import DynamicBatcher
    from repro.serve.dispatch import LeaseExecutor
    from repro.serve.metrics import MetricsRegistry
    from repro.system.memory import SharedMemory

    pass_spans = {
        "parse": "frontend.parse_ms",
        "normalize-reductions": "ir.normalize_ms",
        "detect-scops": "poly.detect_scops_ms",
        "build-schedule-trees": "poly.schedule_tree_ms",
        "match-kernels": "tactics.match_ms",
        "select-offload": "compiler.select_offload_ms",
        "isolate": "transforms.isolate_ms",
        "fusion": "transforms.fusion_ms",
        "tiling": "transforms.tiling_ms",
        "device-map": "transforms.device_map_ms",
        "lower": "codegen.lower_ms",
        "engine-lower": "ir.engine.lower_ms",
    }
    for pass_name, pass_class in PASS_REGISTRY.items():
        tracer.wrap(pass_class, "run", pass_spans[pass_name])
    boundaries = {
        COMPILE_SPAN: [(compiler_driver.TdoCimCompiler, "compile")],
        "compiler.manager_overhead_ms": [(PassManager, "run")],
        "compiler.cache.fingerprint_us": [(compiler_driver, "compile_fingerprint")],
        "compiler.cache.hit_us": [(KernelCompileCache, "get")],
        # The engine calls back into the executor for every runtime call;
        # without the second span that time would be billed to ir.engine.
        "codegen.executor_self_ms": [(OffloadExecutor, "run"), (OffloadExecutor, "_handle_call")],
        "ir.engine.build_ms": [(executor_module, "make_engine")],
        "ir.engine.run_self_ms": [(Interpreter, "run")],
        "host.cost_model_ms": [(HostCostModel, "estimate_trace")],
        "runtime.copy_ms": [(CimRuntime, "cim_host_to_dev"), (CimRuntime, "cim_dev_to_host")],
        "runtime.malloc_free_ms": [
            (CimRuntime, "cim_malloc"), (CimRuntime, "cim_free"), (CimRuntime, "free_all")],
        "runtime.blas_self_ms": [
            (CimBlas, "sgemm"), (CimBlas, "sgemv"), (CimBlas, "gemm_batched"), (CimBlas, "conv2d")],
        "driver.self_ms": [
            (CimDriver, "alloc"), (CimDriver, "free"), (CimDriver, "submit"), (CimDriver, "wait")],
        "system.memory_ms": [(SharedMemory, "read_array"), (SharedMemory, "write_array")],
        "hw.accelerator_self_ms": [(CIMAccelerator, "mmio_write")],
        "hw.microengine_ms": [
            (MicroEngine, "run_gemm"), (MicroEngine, "run_gemm_batched"),
            (MicroEngine, "run_conv2d")],
        "hw.tile_write_ms": [(CIMTile, "write_matrix")],
        "hw.gemv_ms": [(CIMTile, "gemv"), (CIMTile, "gemv_batch")],
        "hw.dma_ms": [
            (DMAEngine, "read"), (DMAEngine, "write"),
            (DMAEngine, "read_array"), (DMAEngine, "write_array")],
        "serve.submit_us": [(CimServer, "submit"), (FleetServer, "submit")],
        "serve.signature_us": [
            (serve_server, "batch_signature"), (fleet_server, "batch_signature")],
        "serve.admission_us": [
            (AdmissionController, "admit"), (AdmissionController, "pick_seed"),
            (AdmissionController, "remove")],
        "serve.batcher_us": [(DynamicBatcher, "form_batch")],
        "serve.dispatch_self_us": [(LeaseExecutor, "dispatch")],
        "serve.accounting_us": [
            (AccountingLedger, "record"), (AccountingLedger, "record_housekeeping")],
        "serve.metrics_snapshot_us": [(MetricsRegistry, "snapshot")],
        "serve.step_self_us": [(CimServer, "step"), (CimServer, "drain")],
        "fleet.placement_us": [(WearAwarePlacement, "choose")],
        "fleet.step_self_us": [(FleetServer, "step"), (FleetServer, "drain")],
    }
    for name, targets in boundaries.items():
        for owner, attr in targets:
            tracer.wrap(owner, attr, name)
    # Bytes are counted where they move: every memory access goes through
    # read()/write() (the *_array helpers call them).
    tracer.wrap(SharedMemory, "read", "system.memory_ms", count=lambda args, _: args[2])
    tracer.wrap(SharedMemory, "write", "system.memory_ms", count=lambda _, written: written)


#: Layers, longest name first so that ``ir.engine`` wins over ``ir``.
LAYERS = (
    "ir.engine", "frontend", "poly", "tactics", "transforms", "compiler",
    "codegen", "ir", "host", "runtime", "driver", "system", "hw", "serve", "fleet",
)


def span_metrics(session: Session) -> tuple[dict[str, float], dict[str, float]]:
    """Per-operation self time of every layer from the traced pass, and
    each layer's share of the time the spans cover."""
    tracer = session.tracer
    own = tracer.self_times()
    ops = max(1, session.attempted)
    uncovered = own.pop(OP_SPAN)
    compile_self = own.pop(COMPILE_SPAN, 0.0)
    if compile_self:
        served_from_cache = "compiler.manager_overhead_ms" not in own
        name = "compiler.cache.hit_us" if served_from_cache else "compiler.manager_overhead_ms"
        own[name] = own.get(name, 0.0) + compile_self
    metrics = {
        name: seconds * (1e3 if name.endswith("_ms") else 1e6) / ops
        for name, seconds in own.items()
    }
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in own.items():
        shares[next(layer for layer in LAYERS if name.startswith(layer + "."))] += seconds
    covered = sum(shares.values())
    shares = {layer: seconds / covered for layer, seconds in shares.items()}
    metrics["system.memory_bytes_per_op"] = tracer.counts.get("system.memory_ms", 0.0) / ops
    metrics["spans.coverage"] = covered / (covered + uncovered)
    return metrics, shares


# ----------------------------------------------------------------------
# Independent correctness references
# ----------------------------------------------------------------------
def polybench_ok(kernel, params, arrays, outputs) -> bool:
    """Outputs against the kernel's float64 NumPy reference."""
    reference = kernel.numpy_reference(params, arrays)
    return all(
        np.allclose(outputs[name], reference[name], rtol=1e-3, atol=1e-4)
        for name in kernel.output_arrays
    )


def gemv_ok(matrix, x, y) -> bool:
    """Integer-valued GEMV result against an exact int64 product."""
    return np.array_equal(y, matrix.astype(np.int64) @ x.astype(np.int64))


class Request:
    """One serving request plus what is needed to check its result."""

    def __init__(self, key, tenant, source, params, arrays, kernel=None):
        self.key = key
        self.tenant = tenant
        self.source = source
        self.params = params
        self.arrays = arrays
        #: The PolyBench kernel it runs; None for the integer GEMV.
        self.kernel = kernel

    def checked(self, index: int) -> bool:
        """GEMV results are checked on every operation, PolyBench results
        (a float64 reference run each) on every CHECK_EVERYth."""
        return self.kernel is None or index % CHECK_EVERY == 0

    def result_ok(self, result) -> bool:
        if self.kernel is None:
            return gemv_ok(self.arrays["A"], self.arrays["x"], result["y"])
        return polybench_ok(self.kernel, self.params, self.arrays, result)


# ----------------------------------------------------------------------
# 1. compile_cold
# ----------------------------------------------------------------------
def compile_cold(s: Session) -> None:
    options = {
        name: CompileOptions(enable_compile_cache=False, **changes)
        for name, changes in OPTION_SETS.items()
    }
    inputs = [(kernel, name) for kernel in sorted(KERNELS) for name in OPTION_SETS]
    hints = {kernel: KERNELS[kernel].params("MEDIUM") for kernel in KERNELS}

    def compile_input(kernel: str, option_set: str):
        return compile_source(
            KERNELS[kernel].source, options[option_set], size_hint=hints[kernel]
        )

    for kernel, option_set in inputs:  # warm every code path once
        compile_input(kernel, option_set)
    order_rng = random.Random(s.seed)
    rounds = s.count(8)
    if not s.setup_done():
        return
    compiled = {}
    index = 0
    for _ in range(rounds):
        order = list(inputs)
        order_rng.shuffle(order)
        for kernel, option_set in order:
            with s.op(index):
                started = clock()
                result = compile_input(kernel, option_set)
                elapsed = clock() - started
            s.record(f"{kernel}/{option_set}", elapsed)
            s.probe_if_due()
            if result.cache_key is not None:
                s.fail(f"{kernel}/{option_set}: compile was served a cache key")
            compiled[kernel, option_set] = result
            index += 1

    # Untimed: determinism, correctness and quality of every compiled
    # program, in the paper's currencies, from one run at MINI.
    executor = OffloadExecutor()
    counts = dict.fromkeys(
        ("tactics.kernels_matched", "compiler.kernels_offloaded",
         "transforms.fusion_groups", "codegen.runtime_calls", "codegen.ir_lines_out"),
        0.0,
    )
    for kernel_name, option_set in inputs:
        key = f"{kernel_name}/{option_set}"
        first = compiled[kernel_name, option_set]
        second = compile_input(kernel_name, option_set)
        if to_source(first.program) != to_source(second.program) or (
            _decisions(first) != _decisions(second)
        ):
            s.error(f"{key}: two compiles of the same input differ")
        kernel = KERNELS[kernel_name]
        params = kernel.params("MINI")
        arrays = kernel.arrays("MINI", s.seed)
        outputs, report = executor.run(first.program, params, arrays)
        executor.system.runtime.free_all()
        if not polybench_ok(kernel, params, arrays, outputs):
            s.error(f"{key}: compiled program disagrees with the NumPy reference")
        s.add_report(key, report)
        counts["tactics.kernels_matched"] += first.report.detected_kernels
        counts["compiler.kernels_offloaded"] += first.report.offloaded_kernels
        counts["transforms.fusion_groups"] += len(first.report.fusion_groups)
        counts["codegen.runtime_calls"] += len(first.report.runtime_calls_emitted)
        counts["codegen.ir_lines_out"] += len(to_source(first.program).splitlines())
    for name, total in counts.items():
        s.layer[name] = total / len(inputs)


def _decisions(result) -> list[tuple]:
    """Offload decisions without the statement names, which come from a
    process-wide counter and so differ between two compiles of one input."""
    return [
        (d.scop, d.kind, d.offloaded, d.reason, len(d.fused_with),
         d.estimated_macs_per_write)
        for d in result.report.decisions
    ]


# ----------------------------------------------------------------------
# 2./3. exec_host and exec_offload
# ----------------------------------------------------------------------
def _exec(s: Session, options: CompileOptions, rounds_per_second: float,
          release_buffers: bool) -> None:
    kernels = {name: KERNELS[name] for name in PAPER_KERNELS}
    params = {name: kernel.params("MEDIUM") for name, kernel in kernels.items()}
    arrays = {name: kernel.arrays("MEDIUM", s.seed) for name, kernel in kernels.items()}
    programs = {
        name: compile_source(kernel.source, options, size_hint=params[name]).program
        for name, kernel in kernels.items()
    }
    executor = OffloadExecutor()
    runtime = executor.system.runtime
    for name in kernels:  # warm-up
        executor.run(programs[name], params[name], arrays[name])
        runtime.free_all()
    order_rng = random.Random(s.seed)
    rounds = s.count(rounds_per_second)
    if not s.setup_done():
        return
    index = 0
    for _ in range(rounds):
        order = list(kernels)
        order_rng.shuffle(order)
        for name in order:
            with s.op(index):
                started = clock()
                outputs, report = executor.run(programs[name], params[name], arrays[name])
                if release_buffers:
                    # A long-lived executor otherwise exhausts the CMA
                    # region after a few hundred offloaded runs.
                    runtime.free_all()
                elapsed = clock() - started
            s.record(name, elapsed)
            s.probe_if_due()
            s.add_report(name, report)
            if index % CHECK_EVERY == 0 and not polybench_ok(
                kernels[name], params[name], arrays[name], outputs
            ):
                s.fail(f"{name}: output disagrees with the NumPy reference")
            index += 1


def exec_host(s: Session) -> None:
    _exec(s, CompileOptions.host_only(), 30, release_buffers=False)


def exec_offload(s: Session) -> None:
    _exec(s, CompileOptions(), 45, release_buffers=True)


# ----------------------------------------------------------------------
# 4./5. serve_batched and fleet_unbatched
# ----------------------------------------------------------------------
def _serve_epochs(s: Session, server, epochs) -> None:
    """Drive *server* with bursts: each epoch is a list of requests
    submitted at one simulated instant and resolved by one ``drain()``.
    *epochs* is consumed lazily, so the inputs are generated between the
    timed intervals."""
    cache = server.compile_cache
    hits, misses = cache.hits, cache.misses
    index = 0
    occupancy = 0
    for epoch_index, epoch in enumerate(epochs):
        with s.op(epoch_index):
            started = clock()
            submitted = []
            for request in epoch:
                at = clock()
                submitted.append((at, server.submit(
                    request.tenant, request.source, request.params, request.arrays
                )))
            server.drain()
            ended = clock()
        s.record_epoch(
            [request.key for request in epoch],
            [ended - at for at, _ in submitted],
            ended - started,
        )
        s.probe_if_due()
        for request, (_, handle) in zip(epoch, submitted):
            if handle.status is not RequestStatus.COMPLETED:
                s.fail(f"{request.key}: {handle.status.value} ({handle.reject_reason})")
            else:
                s.add_report(request.key, handle.report)
                occupancy += handle.batch_size
                if request.checked(index) and not request.result_ok(handle.result()):
                    s.fail(f"{request.key}: wrong output")
            index += 1
    s.layer["serve.batch_occupancy"] = occupancy / max(1, index)
    lookups = (cache.hits - hits) + (cache.misses - misses)
    s.layer["compiler.cache.hit_rate"] = (cache.hits - hits) / max(1, lookups)
    if cache.misses != misses:
        s.error(f"{cache.misses - misses} compile-cache misses in the timed region")


def serve_batched(s: Session) -> None:
    side = 128
    rng = np.random.default_rng(s.seed)
    # Integers below 8: float32 holds every partial sum exactly.
    models = [rng.integers(0, 8, size=(side, side)).astype(np.float32) for _ in range(4)]
    params = {"M": side, "N": side}
    zeros = np.zeros(side, dtype=np.float32)
    epochs_wanted = s.count(100)

    def epoch(model_index: int) -> list[Request]:
        return [
            Request(
                f"model{model_index}/{TENANTS[slot % 4]}",
                TENANTS[slot % 4],
                GEMV_SOURCE,
                params,
                {
                    "A": models[model_index],
                    "x": rng.integers(0, 8, size=side).astype(np.float32),
                    "y": zeros,
                },
            )
            for slot in range(16)
        ]

    with CimServer() as server:
        for model_index in range(4):  # warm-up: compile once, touch every model
            for request in epoch(model_index):
                server.submit(request.tenant, request.source, request.params, request.arrays)
            server.drain()
        # Built one at a time between epochs, outside the timed clock.
        epochs = (epoch(int(rng.integers(0, 4))) for _ in range(epochs_wanted))
        if not s.setup_done():
            return
        _serve_epochs(s, server, epochs)
        partition = server.ledger.verify_partition(server.system.accelerator)
    _check_partition(s, partition)


def fleet_unbatched(s: Session) -> None:
    epochs_wanted = s.count(60)
    rng = random.Random(s.seed)

    def request(serial: int) -> Request:
        name = PAPER_KERNELS[serial % len(PAPER_KERNELS)]
        kernel = KERNELS[name]
        tenant = TENANTS[serial % 4]
        # Unique operands per request: no two requests share a crossbar
        # lease, so every one of them programs the crossbar.
        arrays = kernel.arrays("SMALL", s.seed * 1_000_003 + serial)
        return Request(f"{tenant}/{name}", tenant, kernel.source,
                       kernel.params("SMALL"), arrays, kernel)

    with FleetServer(FleetConfig(num_devices=4)) as fleet:
        for serial in range(len(PAPER_KERNELS)):  # warm-up: compile every kernel
            warm = request(serial)
            fleet.submit(warm.tenant, warm.source, warm.params, warm.arrays)
        fleet.drain()
        serials = rng.sample(range(100, 100 + epochs_wanted * 8), epochs_wanted * 8)
        epochs = (
            [request(serial) for serial in serials[start:start + 8]]
            for start in range(0, len(serials), 8)
        )
        if not s.setup_done():
            return
        _serve_epochs(s, fleet, epochs)
        partition = fleet.verify_fleet_partition()
    _check_partition(s, partition)


def _check_partition(s: Session, partition: dict) -> None:
    broken = sorted(name for name, ok in partition.items() if not ok)
    if broken:
        s.error(f"accounting partition broken: {broken}")


# ----------------------------------------------------------------------
# 6./7. gw_closed_small and gw_open_mix
# ----------------------------------------------------------------------
def pool_size() -> int:
    """One core stays with the gateway process itself."""
    return min(2, max(1, (os.cpu_count() or 1) - 1))


def _small_items(s: Session, count: int) -> list[Request]:
    bank = synthetic_gemv_workload(4, 16, 16, s.seed)
    items = []
    for index in range(4):
        work = bank(index)
        items.append(Request(work.tenant, work.tenant, work.source, work.params, work.arrays))
    return [items[index % 4] for index in range(count)]


def _mix_items(s: Session, count: int) -> list[Request]:
    combos = []
    for tenant_index, tenant in enumerate(TENANTS):
        for kernel_index, name in enumerate(PAPER_KERNELS):
            kernel = KERNELS[name]
            arrays = kernel.arrays("SMALL", s.seed * 1_000_003 + 7 * tenant_index + kernel_index)
            combos.append(
                Request(f"{tenant}/{name}", tenant, kernel.source,
                      kernel.params("SMALL"), arrays, kernel)
            )
    rng = random.Random(s.seed)
    items: list[Request] = []
    while len(items) < count:
        cycle = list(combos)
        rng.shuffle(cycle)
        items.extend(cycle)
    return items[:count]


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


async def _gateway_pass(s: Session, items: list[Request], warmup: int, open_loop: bool) -> None:
    """The pool on the wall clock: warm up, then drive *items* closed loop
    (two clients) or open loop (Poisson schedule at OPEN_LOOP_RPS)."""
    cache_dir = tempfile.mkdtemp(prefix="compile-cache-", dir=s.out_dir)
    gateway = AsyncGateway(GatewayConfig(num_workers=pool_size(), cache_dir=cache_dir))
    done: list[tuple] = []  # (index, latency_s, end_s, response)
    info: dict = {"num_workers": pool_size()}
    started = clock()
    await gateway.start()
    s.layer["gateway.start_s"] = clock() - started
    try:
        for item in items[:warmup]:
            await gateway.submit(item.tenant, item.source, item.params, item.arrays)
        if not s.setup_done():
            return
        misses = gateway.metrics.compile_cache_misses
        work = items[warmup:]
        # The gateway's feeder and collector threads contend for the
        # interpreter lock while a request is in flight, so the probe runs
        # only while the pool is quiet.
        outstanding = 0
        origin = clock()

        def keep(index: int, latency_s: float, response) -> None:
            nonlocal outstanding
            outstanding -= 1
            if not work[index].checked(index):
                response.result = {}  # never looked at: free it
            done.append((index, latency_s, clock() - origin, response))

        if open_loop:
            # Poisson gaps, rescaled so every seed offers exactly the
            # same mean rate over the same span.
            times = np.array(poisson_plan(len(work), OPEN_LOOP_RPS, s.seed).times_s)
            times *= (len(work) - 1) / OPEN_LOOP_RPS / times[-1]
            futures = []
            lag_s = 0.0
            for index, (item, offset) in enumerate(zip(work, times)):
                due = origin + offset
                delay = due - clock()
                if delay > 0.002 and s.probe_due():
                    # Wake a little early; probe if every answer is in.
                    await asyncio.sleep(delay - 0.001)
                    if outstanding == 0:
                        s.probe()
                    delay = due - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                else:
                    lag_s = max(lag_s, -delay)
                    if index % 64 == 0:
                        await asyncio.sleep(0)  # behind schedule: let responses in
                outstanding += 1
                future = gateway.submit_nowait(
                    item.tenant, item.source, item.params, item.arrays
                )
                future.add_done_callback(
                    lambda f, index=index, due=due: keep(index, clock() - due, f.result())
                )
                futures.append(future)
            backlog = sum(1 for future in futures if not future.done())
            await asyncio.gather(*futures)
            s.layer["gateway.schedule_lag_ms_max"] = lag_s * 1e3
            info["backlog_at_last_arrival"] = backlog
            info["offered_rps"] = OPEN_LOOP_RPS
        else:
            async def client(ticket) -> None:
                for index in ticket:
                    item = work[index]
                    at = clock()
                    response = await gateway.submit(
                        item.tenant, item.source, item.params, item.arrays
                    )
                    keep(index, clock() - at, response)

            # The two clients meet every PROBE_BLOCK requests, so that the
            # probe finds the pool quiet.
            for start in range(0, len(work), PROBE_BLOCK):
                ticket = iter(range(start, min(start + PROBE_BLOCK, len(work))))
                await asyncio.gather(client(ticket), client(ticket))
                s.probe(4)
        misses = gateway.metrics.compile_cache_misses - misses
        snapshot = gateway.snapshot()
    finally:
        started = clock()
        await gateway.drain()
        s.layer["gateway.drain_s"] = clock() - started
        shutil.rmtree(cache_dir, ignore_errors=True)

    queue_wait, in_flight = [], []
    for index, latency_s, end_s, response in done:
        item = work[index]
        s.record_at(item.key, latency_s, end_s)
        if response.status != "completed":
            s.fail(f"{item.key}: {response.status} ({response.reason})")
            continue
        usage = response.usage
        s.add_sim(
            item.key,
            usage["host_energy_j"] + usage["offload_energy_j"] + usage["accelerator_energy_j"],
            usage["service_s"],
            int(usage["crossbar_cell_writes"]),
            int(usage["gemv_count"]),
            int(usage["crossbar_write_ops"]),
            int(usage["dma_bytes"]),
        )
        queue_wait.append(response.dispatched_s - response.submitted_s)
        in_flight.append(response.completed_s - response.dispatched_s)
        if response.result and not item.result_ok(response.result):
            s.fail(f"{item.key}: wrong output")
    _check_partition(s, gateway.verify_partition())
    if misses:
        s.error(f"{misses} compile-cache misses in the timed region")
    s.layer["compiler.cache.hit_rate"] = 1.0 - misses / max(1, len(work))
    s.layer["gateway.queue_wait_ms_p50"] = _percentile(queue_wait, 50) * 1e3
    s.layer["gateway.queue_wait_ms_p90"] = _percentile(queue_wait, 90) * 1e3
    s.layer["gateway.in_flight_ms_p50"] = _percentile(in_flight, 50) * 1e3
    s.layer["gateway.in_flight_ms_p90"] = _percentile(in_flight, 90) * 1e3
    workers = snapshot["gateway"]["workers"].values()
    s.layer["gateway.worker_utilization"] = statistics.fmean(
        worker["utilization"] for worker in workers
    )
    if open_loop:
        latencies_ms = [latency_s * 1e3 for _, latency_s, _, _ in done]
        s.whole_run_rate = True
        s.layer["gateway.latency_p99_ms"] = _percentile(latencies_ms, 99)
        missed = sum(
            1 for _, latency_s, _, response in done
            if response.status != "completed" or latency_s * 1e3 > SLO_MS
        )
        s.layer["gateway.slo_miss_fraction"] = missed / len(work)
        achieved = len(done) / max(end_s for _, _, end_s, _ in done)
        info["achieved_rps"] = achieved
        info["overloaded"] = achieved < 0.95 * OPEN_LOOP_RPS or backlog > 5
        if info["overloaded"]:
            s.error(
                f"overloaded: {achieved:.1f} of {OPEN_LOOP_RPS:.0f} requests/s "
                f"served, {backlog} unanswered at the last arrival"
            )
    s.info.update(info)


def _worker_stream(s: Session, items: list[Request], unique: int) -> None:
    """The traced pass of the gateway workloads: the same request stream
    through one worker's serving stack in this process (``serve_one``),
    once untraced and once traced, plus the wire codec on the workload's
    own frames.  The pool's processes cannot be traced from outside."""
    requests = [
        GatewayRequest(index + 1, item.tenant, item.source, dict(item.params), item.arrays)
        for index, item in enumerate(items)
    ]

    def stream(traced: bool) -> list[float]:
        server = build_worker_server(GatewayConfig().worker_wire())
        try:
            for request in requests[:unique]:  # warm-up: compile every kernel
                serve_one(server, request, 0)
            if traced:
                instrument(s.tracer)
            latencies = []
            for index, (item, request) in enumerate(zip(items, requests)):
                with (s.op(index) if traced else _NO_SPAN):
                    started = clock()
                    response = serve_one(server, request, 0)
                    latencies.append(clock() - started)
                if traced:
                    s.record(item.key, latencies[-1])
                s.probe_if_due()
                if response.status != "completed" or (
                    item.checked(index) and not item.result_ok(response.result)
                ):
                    s.fail(f"{item.key}: in-process worker gave {response.status}")
            return latencies
        finally:
            server.shutdown()

    untraced = stream(traced=False)
    traced = stream(traced=True)
    s.tracer.unwrap_all()
    s.layer["gateway.worker_service_ms"] = statistics.median(untraced) * 1e3
    s.layer["spans.overhead_ratio"] = sum(untraced) / sum(traced)

    # Wire codec, on this workload's own request and response frames.
    server = build_worker_server(GatewayConfig().worker_wire())
    try:
        codec = {name: [] for name in (
            "request_encode_us", "request_decode_us", "response_encode_us",
            "response_decode_us", "request_bytes", "response_bytes")}
        for request in requests[:unique]:
            response = serve_one(server, request, 0)
            request_frame = request.to_json()
            response_frame = response.to_json()
            codec["request_bytes"].append(len(request_frame))
            codec["response_bytes"].append(len(response_frame))
            for name, call in (
                ("request_encode_us", request.to_json),
                ("request_decode_us", lambda: GatewayRequest.from_json(request_frame)),
                ("response_encode_us", response.to_json),
                ("response_decode_us", lambda: GatewayResponse.from_json(response_frame)),
            ):
                samples = []
                for _ in range(15):
                    started = clock()
                    call()
                    samples.append(clock() - started)
                codec[name].append(statistics.median(samples) * 1e6)
    finally:
        server.shutdown()
    for name, values in codec.items():
        s.layer[f"gateway.wire.{name}"] = statistics.fmean(values)


def _gateway_workload(s: Session, make_items, per_second: float, warmup: int,
                      unique: int, open_loop: bool) -> None:
    # Whole cycles of the distinct requests, so every seed serves one mix.
    count = unique * max(1, round(s.count(per_second) / unique))
    if s.tracer is None:
        asyncio.run(_gateway_pass(s, make_items(s, warmup + count), warmup, open_loop))
    else:
        # One in-process worker serves several times faster than the pool
        # answers; a quarter of the requests keeps the pass short.
        _worker_stream(s, make_items(s, max(unique, count // 4)), unique)


def gw_closed_small(s: Session) -> None:
    _gateway_workload(s, _small_items, 600, warmup=50, unique=4, open_loop=False)


def gw_open_mix(s: Session) -> None:
    _gateway_workload(s, _mix_items, OPEN_LOOP_RPS, warmup=56, unique=28, open_loop=True)


WORKLOADS = {
    "compile_cold": compile_cold,
    "exec_host": exec_host,
    "exec_offload": exec_offload,
    "serve_batched": serve_batched,
    "fleet_unbatched": fleet_unbatched,
    "gw_closed_small": gw_closed_small,
    "gw_open_mix": gw_open_mix,
}
#: Workloads whose history-dependence is reported as ``<tier>.sustain_ratio``.
SUSTAIN_TIER = {
    "serve_batched": "serve",
    "fleet_unbatched": "fleet",
    "gw_closed_small": "gateway",
    "gw_open_mix": "gateway",
}


# ----------------------------------------------------------------------
# Folding a pass into metrics
# ----------------------------------------------------------------------
def segment_stats(s: Session) -> dict:
    """Throughput and latency per segment of the timed region."""
    segments = max(1, min(MAX_SEGMENTS, len(s.ops) // MIN_SEGMENT_OPS))
    size = len(s.ops) // segments
    rates, p50s, p90s = [], [], []
    previous_end = 0.0
    for segment in range(segments):
        stop = (segment + 1) * size if segment < segments - 1 else len(s.ops)
        chunk = s.ops[segment * size:stop]
        latencies = [latency_s for _, latency_s, _ in chunk]
        end = max(end_s for _, _, end_s in chunk)
        rates.append(len(chunk) / (end - previous_end))
        previous_end = end
        p50s.append(_percentile(latencies, 50) * 1e3)
        p90s.append(_percentile(latencies, 90) * 1e3)
    slowdown = s.machine_slowdown()
    if s.whole_run_rate:
        rate = len(s.ops) / previous_end  # set by the schedule, not the machine
    else:
        rate = statistics.median(rates) * slowdown
    return {
        "ops_per_s": rate,
        "latency_p50_ms": statistics.median(p50s) / slowdown,
        "latency_p90_ms": statistics.median(p90s) / slowdown,
        "segment_ops_per_s": rates,
        "samples_per_segment": size,
        "machine_probe_ms": slowdown * PROBE_REFERENCE_S * 1e3,
    }


def sim_totals(s: Session) -> dict[str, float]:
    ops, energy, seconds, writes, gemvs, write_ops, dma_bytes = (
        math.fsum(column) for column in zip(*s.sims.values())
    )
    crossbar = SystemConfig().crossbar_config()
    lifetime = 0.0  # no cell is ever written: Eq. 1 does not bound this workload
    if writes:
        lifetime = system_lifetime_years(
            CELL_ENDURANCE, crossbar.rows * crossbar.cols, writes / seconds
        )
    return {
        "sim_energy_uj_per_op": energy / ops * 1e6,
        "sim_time_us_per_op": seconds / ops * 1e6,
        "sim_cell_writes_per_op": writes / ops,
        "sim_lifetime_years": lifetime,
        "hw.gemv_count_per_op": gemvs / ops,
        "hw.write_ops_per_op": write_ops / ops,
        "hw.dma_bytes_per_op": dma_bytes / ops,
    }


def input_rows(s: Session) -> tuple[list[dict], float]:
    """One row per input, and the geometric mean of their medians."""
    latencies: dict[str, list[float]] = {}
    for key, latency_s, _ in s.ops:
        latencies.setdefault(key, []).append(latency_s)
    rows = []
    for key in sorted(latencies):
        row = {
            "input": key,
            "count": len(latencies[key]),
            "latency_p50_ms": statistics.median(latencies[key]) * 1e3,
        }
        if key in s.sims:
            ops, energy, seconds, writes = s.sims[key][:4]
            row["sim_energy_uj_per_op"] = energy / ops * 1e6
            row["sim_time_us_per_op"] = seconds / ops * 1e6
            row["sim_cell_writes_per_op"] = writes / ops
        rows.append(row)
    geomean = math.exp(statistics.fmean(math.log(row["latency_p50_ms"]) for row in rows))
    return rows, geomean


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_pass(args, seconds: float, traced: bool, setup_only: bool = False) -> Session:
    session = Session(args, seconds, traced, setup_only)
    try:
        WORKLOADS[args.workload](session)
    finally:
        if session.tracer is not None:
            session.tracer.unwrap_all()
    return session


def pass_document(s: Session) -> dict:
    stats = segment_stats(s)
    rows, geomean = input_rows(s)
    sims = sim_totals(s)
    return {
        "end_to_end": {
            "setup_s": s.setup_s,
            "ops_per_s": stats["ops_per_s"],
            "latency_p50_ms": stats["latency_p50_ms"],
            "peak_rss_mb": peak_rss_mb(),
            "sim_energy_uj_per_op": sims["sim_energy_uj_per_op"],
            "sim_time_us_per_op": sims["sim_time_us_per_op"],
        },
        "sims": sims,
        "failed_fraction": min(1.0, s.failed / s.attempted),
        "attempted": s.attempted,
        "failed": s.failed,
        "errors": s.errors,
        "failures": s.failures,
        "latency_p90_ms": stats["latency_p90_ms"],
        "machine_probe_ms": stats["machine_probe_ms"],
        "samples_per_segment": stats["samples_per_segment"],
        "segment_ops_per_s": stats["segment_ops_per_s"],
        "rows": rows,
        "rows_geomean_ms": geomean,
        "info": s.info,
    }


def traced_document(args, plain: Session, traced: Session) -> dict:
    """Per-layer metrics from an untraced and a traced pass of one size."""
    document = pass_document(plain)
    layer = dict(plain.layer)
    layer.update(traced.layer)
    span_values, document["layer_share"] = span_metrics(traced)
    layer.update(span_values)
    if "spans.overhead_ratio" not in layer:
        layer["spans.overhead_ratio"] = (
            segment_stats(traced)["ops_per_s"] / document["end_to_end"]["ops_per_s"]
        )
    if "gateway.worker_service_ms" in layer:
        layer["gateway.ipc_ms"] = (
            layer["gateway.in_flight_ms_p50"]
            - layer["gateway.worker_service_ms"]
            - (layer["gateway.wire.request_decode_us"]
               + layer["gateway.wire.response_encode_us"]) / 1e3
        )
    tier = SUSTAIN_TIER.get(args.workload)
    if tier is not None:
        rates = document["segment_ops_per_s"]
        fifth = max(1, len(rates) // 5)
        layer[f"{tier}.sustain_ratio"] = (
            statistics.median(rates[-fifth:]) / statistics.median(rates[:fifth])
        )
    layer.update(document["sims"], failed_fraction=document["failed_fraction"])
    layer["latency_p90_ms"] = document["latency_p90_ms"]
    layer["machine.probe_ms"] = document["machine_probe_ms"]
    for name in document["end_to_end"]:
        layer.pop(name, None)
    document["per_layer"] = layer
    document["errors"] = plain.errors + traced.errors
    document["failures"] = plain.failures + traced.failures
    document["failed"] = plain.failed + traced.failed
    document["attempted"] = plain.attempted + traced.attempted
    spans_path = Path(args.out_dir) / f"spans_{args.workload}.json"
    traced.tracer.dump(spans_path)
    return document


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--out-dir", default=str(Path(__file__).parent / "out"))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.spawned_at is None:
        args.spawned_at = time.time()
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        session = run_pass(args, args.seconds, traced=False, setup_only=True)
        document = {"end_to_end": {"setup_s": session.setup_s}}
    elif args.trace:
        seconds = args.seconds * TRACED_SHARE
        plain = run_pass(args, seconds, traced=False)
        document = traced_document(args, plain, run_pass(args, seconds, traced=True))
    else:
        document = pass_document(run_pass(args, args.seconds, traced=False))
    document.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                    trace=args.trace, numpy=np.__version__)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
