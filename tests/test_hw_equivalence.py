"""The device model's outputs, pinned bit for bit.

How Python arrives at the emulated device's numbers is free; the numbers
are not.  Each case below drives the full stack (runtime -> driver ->
accelerator -> micro-engine -> tile -> crossbar) and records everything
the model reports: result bytes, every field of the run statistics and
the execution report, the timeline, both energy ledgers and counter sets,
buffer and shared-memory traffic, per-cell wear and the stored levels.
``tests/golden/hw/device_reports.json`` holds what the tree *before* the
values/charges split produced, except for what the crossbar's region
store moved on purpose (tiles in their own squares: wear, stored levels
and the reuse of a tile still held; ``tests/test_region_store.py`` checks
that one origin region reproduces the earlier file); the comparison is
``==``.

Operands are integer-valued, so float32 holds every partial sum exactly
and the result bytes do not depend on the BLAS build or on whether a
product was dispatched as ``dgemv`` or ``dgemm``.

Re-recording (only when a cost-model change is intended and announced)::

    PYTHONPATH=src python tests/test_hw_equivalence.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro import compile_source
from repro.codegen.executor import OffloadExecutor
from repro.system import CimSystem, SystemConfig
from repro.workloads.polybench import KERNELS, PAPER_KERNELS

GOLDEN = Path(__file__).resolve().parent / "golden" / "hw" / "device_reports.json"


# ----------------------------------------------------------------------
# Configurations
# ----------------------------------------------------------------------
def _configs() -> dict[str, dict]:
    configs = {}
    for xbar, tiles, dbuf, mode in itertools.product(
        (None, 16), (1, 4), (True, False), ("ideal", "quantized")
    ):
        name = f"xbar{xbar or 256}-tiles{tiles}-{'dbuf' if dbuf else 'nodbuf'}-{mode}"
        configs[name] = dict(
            crossbar_rows=xbar, crossbar_cols=xbar, num_tiles=tiles,
            double_buffering=dbuf, crossbar_mode=mode,
        )
    # The per-vector reference dispatch.
    configs["xbar16-tiles1-dbuf-ideal-pervector"] = dict(
        crossbar_rows=16, crossbar_cols=16, batch_gemv=False)
    configs["xbar16-tiles4-nodbuf-quantized-pervector"] = dict(
        crossbar_rows=16, crossbar_cols=16, num_tiles=4, double_buffering=False,
        crossbar_mode="quantized", batch_gemv=False)
    return configs


CONFIGS = _configs()
#: Whole compiled programs (for the ExecutionReport) run on these two.
PROGRAM_CONFIGS = ("xbar256-tiles1-dbuf-ideal", "xbar16-tiles4-nodbuf-quantized")


def _system(config_name: str) -> CimSystem:
    return CimSystem(SystemConfig(
        memory_bytes=8 << 20, cma_bytes=4 << 20, **CONFIGS[config_name]))


def _ints(seed: int, *shape: int) -> np.ndarray:
    """Small integers as float32 (RandomState's stream is frozen)."""
    return np.random.RandomState(seed).randint(-4, 5, size=shape).astype(np.float32)


# ----------------------------------------------------------------------
# Scenarios: each drives *system* and returns the arrays it read back
# ----------------------------------------------------------------------
def _upload(system: CimSystem, *arrays: np.ndarray):
    runtime = system.runtime
    runtime.cim_init(0)
    buffers = [runtime.cim_malloc(array.nbytes) for array in arrays]
    for buffer, array in zip(buffers, arrays):
        runtime.cim_host_to_dev(buffer, array)
    return buffers


def scenario_gemm(system: CimSystem) -> list[np.ndarray]:
    """Multi-block on the 16x16 crossbar; transposed A; alpha and beta."""
    m, n, k = 40, 9, 30
    a, at, b, c = _ints(1, m, k), _ints(2, k, m), _ints(3, k, n), _ints(4, m, n)
    a_buf, at_buf, b_buf, c_buf = _upload(system, a, at, b, c)
    outputs = []
    system.blas.sgemm(False, False, m, n, k, 1.0, a_buf, k, b_buf, n, 0.0, c_buf, n)
    outputs.append(system.runtime.cim_dev_to_host(c_buf, (m, n)))
    system.blas.sgemm(True, False, m, n, k, 1.5, at_buf, m, b_buf, n, 0.5, c_buf, n)
    outputs.append(system.runtime.cim_dev_to_host(c_buf, (m, n)))
    return outputs


def scenario_gemv_resident(system: CimSystem) -> list[np.ndarray]:
    """The same GEMV twice (resident reuse), A^T at the same address,
    then again after the host rewrites A (the stale guard re-programs)."""
    m = n = 20
    a, x, y = _ints(5, m, n), _ints(6, n), _ints(7, m)
    a_buf, x_buf, y_buf = _upload(system, a, x, y)
    outputs = []

    def gemv(trans: bool, alpha: float, beta: float) -> None:
        system.blas.sgemv(trans, m, n, alpha, a_buf, n, x_buf, beta, y_buf)
        outputs.append(system.runtime.cim_dev_to_host(y_buf, (m,)))

    gemv(False, 1.0, 0.0)
    gemv(False, 1.0, 0.0)
    gemv(False, 2.0, 1.0)
    gemv(True, 1.0, 0.0)
    gemv(False, 1.0, 0.0)
    system.runtime.cim_host_to_dev(a_buf, _ints(8, m, n))
    gemv(False, 1.0, 0.0)
    gemv(False, 1.0, 0.0)
    return outputs


def scenario_gemm_batched(system: CimSystem) -> list[np.ndarray]:
    """Two problems sharing A (programmed once), then one that does not."""
    m, n, k = 12, 7, 14
    a, a2 = _ints(9, m, k), _ints(10, m, k)
    b1, b2, b3 = _ints(11, k, n), _ints(12, k, n), _ints(13, k, n)
    c1, c2, c3 = _ints(14, m, n), _ints(15, m, n), _ints(16, m, n)
    a_buf, a2_buf, b1_buf, b2_buf, b3_buf, c1_buf, c2_buf, c3_buf = _upload(
        system, a, a2, b1, b2, b3, c1, c2, c3)
    system.blas.gemm_batched(False, False, [
        dict(m=m, n=n, k=k, alpha=1.0, beta=0.0, a=a_buf, b=b1_buf, c=c1_buf),
        dict(m=m, n=n, k=k, alpha=2.0, beta=1.0, a=a_buf, b=b2_buf, c=c2_buf),
        dict(m=m, n=n, k=k, alpha=1.0, beta=0.0, a=a2_buf, b=b3_buf, c=c3_buf),
    ])
    return [system.runtime.cim_dev_to_host(buf, (m, n))
            for buf in (c1_buf, c2_buf, c3_buf)]


def _conv(system: CimSystem, out_h: int, out_w: int, alpha: float, beta: float):
    kh = kw = 3
    img = _ints(17, out_h + kh - 1, out_w + kw - 1)
    weights, out = _ints(18, kh, kw), _ints(19, out_h, out_w)
    img_buf, w_buf, out_buf = _upload(system, img, weights, out)
    system.blas.conv2d(out_h, out_w, kh, kw, alpha, img_buf, w_buf, beta, out_buf)
    return [system.runtime.cim_dev_to_host(out_buf, (out_h, out_w))]


def scenario_conv_single_slab(system: CimSystem) -> list[np.ndarray]:
    """``out_w <= t_cols`` on both geometries: one slab per output row."""
    return _conv(system, 5, 3, 1.0, 0.0)


def scenario_conv_multi_slab(system: CimSystem) -> list[np.ndarray]:
    """Several slabs per output row, the last one partial; beta != 0."""
    return _conv(system, 6, 200, 2.0, 1.0)


SCENARIOS = {
    "gemm": scenario_gemm,
    "gemv_resident": scenario_gemv_resident,
    "gemm_batched": scenario_gemm_batched,
    "conv_single_slab": scenario_conv_single_slab,
    "conv_multi_slab": scenario_conv_multi_slab,
}

CASES = [
    f"{scenario}/{config}" for scenario in SCENARIOS for config in CONFIGS
] + [
    f"program:{kernel}/{config}" for kernel in PAPER_KERNELS for config in PROGRAM_CONFIGS
]


# ----------------------------------------------------------------------
# What is recorded
# ----------------------------------------------------------------------
def _digest(array, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def _floats(mapping: dict[str, float]) -> list[list[str]]:
    """In the mapping's own order: a ledger's ``total()`` adds its
    categories in insertion order, so the order is part of the model."""
    return [[key, repr(float(value))] for key, value in mapping.items()]


def _fields(obj, names) -> dict:
    record = {}
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, dict):
            record[name] = _floats(value)
        elif isinstance(value, float):
            record[name] = repr(value)
        else:
            record[name] = value
    return record


RUN_FIELDS = ("latency_s", "energy_j", "energy_breakdown", "gemv_count",
              "crossbar_cell_writes", "crossbar_write_ops", "macs", "dma_bytes")
REPORT_FIELDS = (
    "offload_instructions", "offload_energy_j", "offload_time_s",
    "accelerator_energy_j", "accelerator_time_s", "accelerator_energy_breakdown",
    "gemv_count", "crossbar_cell_writes", "crossbar_write_ops", "accelerator_macs",
    "dma_bytes", "runtime_calls", "total_energy_j", "total_time_s",
)


def _device_state(system: CimSystem, runs) -> dict:
    """The device's reports; *runs* are the runs it made (``on_run``)."""
    acc = system.accelerator
    tile = acc.tile
    xbar = tile.crossbar
    memory = system.memory
    events = "\n".join(
        f"{e.component}|{e.action}|{e.start_s!r}|{e.duration_s!r}"
        for e in acc.timeline.events
    )
    write_counts = xbar.write_counts()
    stored = xbar.stored_quantised()
    return {
        "runs": [_fields(run, RUN_FIELDS) for run in runs],
        "timeline": {
            "events": len(acc.timeline.events),
            "sha256": hashlib.sha256(events.encode()).hexdigest(),
        },
        "ledgers": {
            "accelerator": _floats(acc.energy.as_dict()),
            "tile": _floats(tile.energy.as_dict()),
        },
        "counters": {
            "accelerator": dict(sorted(acc.counters.as_dict().items())),
            "tile": dict(sorted(tile.counters.as_dict().items())),
        },
        "buffers_bytes_written": {
            buffer.name: buffer.bytes_written
            for buffer in (tile.row_buffer, tile.column_buffer, tile.output_buffer)
        },
        "memory": _fields(memory, ("reads", "writes", "bytes_read", "bytes_written")),
        "dma": _fields(acc.dma, ("total_bytes", "total_energy_j", "total_time_s")),
        "host_overhead": _fields(
            system.host_overhead, ("instructions", "energy_j", "time_s")),
        "crossbar": {
            **_fields(xbar, ("total_cell_writes", "total_gemvs", "total_macs",
                             "total_rows_written", "max_cell_writes")),
            "adc_conversions": xbar.adc.total_conversions,
            "digital_weighted_sums": xbar.digital.weighted_sums,
            "digital_alu_ops": xbar.digital.alu_ops,
        },
        "write_counts": {
            "dtype": str(write_counts.dtype),
            "sha256": _digest(write_counts, np.int64),
        },
        "stored_quantised": {
            "dtype": str(stored.dtype),
            "sha256": _digest(stored, np.float64),
        },
    }


def run_case(case: str) -> dict:
    scenario, config = case.split("/")
    system = _system(config)
    with system.accelerator.on_run.collect() as runs:
        record = _run_scenario(system, scenario)
    record.update(_device_state(system, runs))
    return record


def _run_scenario(system: CimSystem, scenario: str) -> dict:
    if scenario.startswith("program:"):
        kernel = KERNELS[scenario.partition(":")[2]]
        params = kernel.params("MINI")
        arrays = {
            name: _ints(20 + index, *array.shape).astype(array.dtype)
            for index, (name, array) in enumerate(sorted(kernel.arrays("MINI", 0).items()))
        }
        program = compile_source(kernel.source, size_hint=params).program
        outputs, report = OffloadExecutor(system).run(program, params, arrays)
        record = {
            "outputs": {name: _digest(outputs[name], outputs[name].dtype)
                        for name in sorted(kernel.output_arrays)},
            "report": _fields(report, REPORT_FIELDS),
            "host_estimate": _fields(
                report.host_estimate, ("instructions", "energy_j", "time_s")),
        }
    else:
        outputs = SCENARIOS[scenario](system)
        record = {"outputs": [_digest(out, np.float32) for out in outputs]}
    return record


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_device_reports_equal_golden(case, golden):
    record = json.loads(json.dumps(run_case(case)))
    expected = golden[case]
    for key in expected:
        assert record[key] == expected[key], f"{case}: {key} moved"
    assert record == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps({case: run_case(case) for case in CASES}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"recorded {len(CASES)} cases to {GOLDEN}")
