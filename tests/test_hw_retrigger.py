"""Re-triggered descriptors, pinned bit for bit.

A launch writes a kernel descriptor into the context registers and then
``COMMAND.START``; a bare re-trigger (``CimBlas.launch(descriptor,
programmed=True)``) writes ``COMMAND.START`` only, and the accelerator
re-runs the descriptor its registers still hold.  Each case below drives a
sequence of full launches, bare re-triggers and host rewrites of the
operands (so a resident operand goes stale and is programmed again), and
records the result bytes after every step and, at the end, the run
records, both energy ledgers (hex floats, in insertion order), the
counters, the timeline, the DMA, shared-memory and host-overhead totals,
the buffer bytes, the crossbar totals and the wear.
``tests/golden/hw/retrigger.json`` holds what the tree *before* the device
ran decoded plans produced, except for what the crossbar's region store
moved on purpose (``tests/test_region_store.py``); the comparison is
``==``.

Operands are small integers, so float32 holds every partial sum exactly
and the result bytes do not depend on the BLAS build.

The property test states the contract behind the golden: a bare START
leaves the device, the host overhead and the results exactly as rewriting
the same registers and starting would.  Only the register traffic itself
differs (``driver.reg_write`` and the register file's own counters).

Recording (only from a tree whose device model is the reference)::

    PYTHONPATH=<reference tree>/src python tests/test_hw_retrigger.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.context_regs import Flags, Opcode, Register, encode_scalar
from repro.runtime.blas import KernelDescriptor
from repro.system import CimSystem, SystemConfig

GOLDEN = Path(__file__).resolve().parent / "golden" / "hw" / "retrigger.json"


def _config(xbar: int, tiles: int, mode: str, batch_gemv: bool = True,
            dbuf: bool = True) -> dict:
    return dict(crossbar_rows=xbar, crossbar_cols=xbar, num_tiles=tiles,
                crossbar_mode=mode, batch_gemv=batch_gemv, double_buffering=dbuf)


CONFIGS = {
    f"xbar16-tiles{tiles}-{mode}-{'batched' if batched else 'pervector'}":
        _config(16, tiles, mode, batched)
    for tiles in (1, 4) for mode in ("ideal", "quantized") for batched in (True, False)
}
CONFIGS["xbar16-tiles4-nodbuf-quantized-pervector"] = _config(16, 4, "quantized", False, False)
# One block per operand: the resident operand survives between triggers.
CONFIGS["xbar256-tiles1-ideal-batched"] = _config(256, 1, "ideal")
CONFIGS["xbar256-tiles4-quantized-pervector"] = _config(256, 4, "quantized", False)


def _system(config: dict) -> CimSystem:
    system = CimSystem(SystemConfig(memory_bytes=8 << 20, cma_bytes=4 << 20, **config))
    system.runtime.cim_init(0)
    return system


def _ints(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.integers(-4, 5, size=shape).astype(np.float32)


def gemm_descriptor(m, n, k, alpha, beta, trans_a, a, b, c) -> KernelDescriptor:
    """The registers ``CimBlas.sgemm`` writes, as a re-triggerable descriptor."""
    registers = {
        Register.OPCODE: int(Opcode.GEMM),
        Register.ADDR_A: a.physical,
        Register.ADDR_B: b.physical,
        Register.ADDR_C: c.physical,
        Register.DIM_M: m,
        Register.DIM_N: n,
        Register.DIM_K: k,
        Register.ALPHA: encode_scalar(alpha),
        Register.BETA: encode_scalar(beta),
        Register.FLAGS: int(Flags.TRANS_A if trans_a else Flags.NONE),
        Register.ELEM_SIZE: 4,
    }
    flush = (m * k + k * n + (m * n if beta != 0.0 else 0)) * 4
    return KernelDescriptor("sgemm", registers, flush)


class Host:
    """The host side of one sequence: operand buffers and descriptors."""

    def __init__(self, system: CimSystem, kind: str, m: int, n: int, k: int, seed: int):
        self.system, self.kind = system, kind
        self.m, self.n, self.k = m, n, k
        self.rng = np.random.default_rng(seed)
        runtime = system.runtime
        self.shapes = {"a": (m, k), "b": (k, n), "c": (m, n)}
        self.buffers = {name: runtime.cim_malloc(int(np.prod(shape)) * 4)
                        for name, shape in self.shapes.items()}
        for name in self.buffers:
            self.rewrite(name)

    def rewrite(self, name: str) -> None:
        """The host writes new contents into one operand buffer."""
        self.system.runtime.cim_host_to_dev(self.buffers[name], _ints(self.rng, *self.shapes[name]))

    def descriptor(self, alpha: float, beta: float, trans_a: bool) -> KernelDescriptor:
        a, b, c = (self.buffers[name] for name in "abc")
        if self.kind == "gemv":
            return self.system.blas.gemv_descriptor(
                trans_a, self.m, self.k, alpha, a, self.k, b, beta, c)
        return gemm_descriptor(self.m, self.n, self.k, alpha, beta, trans_a, a, b, c)

    def result(self) -> np.ndarray:
        return self.system.runtime.cim_dev_to_host(self.buffers["c"], (self.m, self.n))


# ----------------------------------------------------------------------
# Sequences: ("launch", alpha, beta, trans_a) | ("start",) | ("rewrite", name)
# ----------------------------------------------------------------------
GEMV_STEPS = [
    ("launch", 1.5, 0.0, False), ("start",), ("start",),
    ("rewrite", "b"), ("start",),
    ("rewrite", "a"), ("start",), ("start",),
    ("launch", 1.0, -0.5, True), ("start",), ("rewrite", "c"), ("start",),
    ("rewrite", "a"), ("start",),
    ("launch", 1.5, 0.0, False), ("start",),
]
GEMM_STEPS = [
    ("launch", 1.5, 0.5, False), ("start",),
    ("rewrite", "b"), ("start",),
    ("rewrite", "a"), ("start",),
    ("launch", 1.0, 0.0, True), ("start",), ("start",),
]
SEQUENCES = {
    # op(A) is 20 x 20 (2 x 2 blocks on a 16 x 16 crossbar), N = 1.
    "gemv": ("gemv", 20, 1, 20, GEMV_STEPS),
    # op(A) is 40 x 30 (3 x 2 blocks), N = 9.
    "gemm": ("gemm", 40, 9, 30, GEMM_STEPS),
}

CASES = [f"{sequence}/{config}" for sequence in SEQUENCES for config in CONFIGS]


def run_steps(host: Host, steps, programmed: bool = True) -> list[np.ndarray]:
    """Drive *steps*; a ``start`` re-triggers the last launched descriptor
    (bare START when *programmed*, else a full rewrite of its registers)."""
    blas = host.system.blas
    outputs = []
    descriptor = None
    for step in steps:
        if step[0] == "rewrite":
            host.rewrite(step[1])
            continue
        if step[0] == "launch":
            descriptor = host.descriptor(*step[1:])
            blas.launch(descriptor)
        else:
            blas.launch(descriptor, programmed=programmed)
        outputs.append(host.result())
    return outputs


# ----------------------------------------------------------------------
# What is recorded
# ----------------------------------------------------------------------
def _digest(array: np.ndarray) -> str:
    data = np.ascontiguousarray(array)
    return f"{data.dtype.str}{data.shape}:" + hashlib.sha256(data.tobytes()).hexdigest()


def _hex(value) -> object:
    return float(value).hex() if isinstance(value, float) else value


def _run(run) -> dict:
    return {
        "latency_s": run.latency_s.hex(),
        "energy_j": run.energy_j.hex(),
        "energy_breakdown": [[key, value.hex()] for key, value in run.energy_breakdown.items()],
        "work": [run.gemv_count, run.crossbar_cell_writes, run.crossbar_write_ops,
                 run.macs, run.dma_bytes],
    }


def device_state(system: CimSystem, runs, with_registers: bool = True) -> dict:
    """Everything the device, driver and host overhead report; *runs* are
    the runs it made (``on_run``)."""
    acc = system.accelerator
    tile, xbar, memory = acc.tile, acc.tile.crossbar, system.memory
    events = "\n".join(f"{e.component}|{e.action}|{e.start_s.hex()}|{e.duration_s.hex()}"
                       for e in acc.timeline.events)
    driver_counters = dict(sorted(system.driver.counters.as_dict().items()))
    state = {
        "runs": [_run(run) for run in runs],
        "totals": _run(acc.totals),
        "ledgers": {
            "accelerator": [[k, v.hex()] for k, v in acc.energy.as_dict().items()],
            "tile": [[k, v.hex()] for k, v in tile.energy.as_dict().items()],
        },
        "counters": {
            "accelerator": dict(sorted(acc.counters.as_dict().items())),
            "tile": dict(sorted(tile.counters.as_dict().items())),
            "driver": driver_counters,
        },
        "timeline": f"{len(acc.timeline.events)}:"
                    + hashlib.sha256(events.encode()).hexdigest(),
        "dma": [_hex(acc.dma.total_bytes), _hex(acc.dma.total_energy_j),
                _hex(acc.dma.total_time_s)],
        "memory": [memory.reads, memory.writes, memory.bytes_read, memory.bytes_written],
        "host_overhead": [_hex(system.host_overhead.instructions),
                          _hex(system.host_overhead.energy_j),
                          _hex(system.host_overhead.time_s)],
        "buffers_bytes_written": [buffer.bytes_written for buffer in
                                  (tile.row_buffer, tile.column_buffer, tile.output_buffer)],
        "crossbar": [xbar.total_cell_writes, xbar.total_gemvs, xbar.total_macs,
                     xbar.total_rows_written, xbar.adc.total_conversions,
                     xbar.digital.weighted_sums, xbar.digital.alu_ops],
        "wear": _digest(xbar.write_counts()),
        "stored_quantised": _digest(xbar.stored_quantised()),
        "registers": [acc.registers.writes, acc.registers.descriptor_version],
    }
    if not with_registers:
        del state["registers"]
        del state["counters"]["driver"]["driver.reg_write"]
    return state


def run_case(case: str) -> dict:
    sequence, config = case.split("/")
    kind, m, n, k, steps = SEQUENCES[sequence]
    system = _system(CONFIGS[config])
    host = Host(system, kind, m, n, k, seed=sum(case.encode()))
    with system.accelerator.on_run.collect() as runs:
        outputs = run_steps(host, steps)
    return json.loads(json.dumps({
        "outputs": [_digest(output) for output in outputs],
        **device_state(system, runs),
    }))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


def test_sequences_exercise_what_they_claim(golden):
    """On one block per operand a bare START finds the operand resident,
    and a host rewrite of A programs it again; on 2 x 2 blocks every
    trigger programs every block."""
    runs = golden["gemv/xbar256-tiles1-ideal-batched"]["runs"]
    writes = [run["work"][2] for run in runs]
    assert writes == [1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0]
    multi = golden["gemv/xbar16-tiles1-ideal-batched"]["runs"]
    assert [run["work"][2] for run in multi] == [4] * len(multi)
    assert len(golden["gemm/xbar16-tiles4-ideal-pervector"]["runs"]) == 7


@pytest.mark.parametrize("case", CASES)
def test_retrigger_equals_golden(case, golden):
    record = run_case(case)
    expected = golden[case]
    for key in expected:
        assert record[key] == expected[key], f"{case}: {key} moved"
    assert record == expected


# ----------------------------------------------------------------------
# A bare START is the same descriptor written again
# ----------------------------------------------------------------------
@st.composite
def sequences(draw):
    kind = draw(st.sampled_from(["gemv", "gemm"]))
    m, k = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    n = 1 if kind == "gemv" else draw(st.integers(1, 5))
    launch = ("launch", draw(st.sampled_from([1.0, 1.5, -0.75])),
              draw(st.sampled_from([0.0, 0.5])), draw(st.booleans()))
    later = draw(st.lists(st.one_of(
        st.just(("start",)),
        st.tuples(st.just("rewrite"), st.sampled_from("abc")),
    ), min_size=1, max_size=6))
    config = dict(
        crossbar_rows=draw(st.sampled_from([4, 8, 16, 32])),
        num_tiles=draw(st.sampled_from([1, 2, 4])),
        crossbar_mode=draw(st.sampled_from(["ideal", "quantized"])),
        batch_gemv=draw(st.booleans()),
        double_buffering=draw(st.booleans()),
    )
    config["crossbar_cols"] = config["crossbar_rows"]
    return kind, m, n, k, [launch, ("start",), *later, ("start",)], config


@settings(max_examples=40, deadline=None)
@given(sequences())
def test_a_bare_start_equals_rewriting_the_same_registers(sequence):
    kind, m, n, k, steps, config = sequence
    results = {}
    for programmed in (True, False):
        system = CimSystem(SystemConfig(memory_bytes=2 << 20, cma_bytes=1 << 20, **config))
        system.runtime.cim_init(0)
        host = Host(system, kind, m, n, k, seed=m * 1000 + k)
        with system.accelerator.on_run.collect() as runs:
            outputs = run_steps(host, steps, programmed=programmed)
        results[programmed] = ([_digest(output) for output in outputs],
                               device_state(system, runs, with_registers=False))
    assert results[True] == results[False]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps({case: run_case(case) for case in CASES}, indent=1, sort_keys=True) + "\n"
    )
    print(f"recorded {len(CASES)} cases to {GOLDEN}")
