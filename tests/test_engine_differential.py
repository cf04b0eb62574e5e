"""Differential tests: vectorized engine vs. reference interpreter.

Every PolyBench kernel is executed under both execution engines — through
the full compile + offload + emulated-system path and through the host-only
path — and in both crossbar modes.  The engines must agree *bit for bit* on
every output array and produce identical execution traces and therefore
identical energy/latency/instruction reports.
"""

import numpy as np
import pytest

from repro import CompileOptions, OffloadExecutor, compile_source
from repro.ir import Interpreter
from repro.ir.interp import ExecutionTrace
from repro.system import CimSystem, SystemConfig
from repro.workloads.polybench import KERNELS

DATASET = "MINI"

#: Engines that must match the interpreter bit for bit, trace included.
#: "native" silently degrades to the fold tier when the optional C
#: toolchain is absent — still exact, so it is always safe to test.
EXACT_ENGINES = ("vectorized", "fast", "native")


def _reports_equal(a, b) -> list[str]:
    """Field-by-field comparison of two ExecutionReports; returns diffs."""
    diffs = []
    scalar_fields = (
        "offload_instructions",
        "offload_energy_j",
        "offload_time_s",
        "accelerator_energy_j",
        "accelerator_time_s",
        "gemv_count",
        "crossbar_cell_writes",
        "crossbar_write_ops",
        "accelerator_macs",
        "dma_bytes",
    )
    for name in scalar_fields:
        if getattr(a, name) != getattr(b, name):
            diffs.append(f"{name}: {getattr(a, name)} != {getattr(b, name)}")
    host_fields = (
        "instructions",
        "flops",
        "loads",
        "stores",
        "int_ops",
        "branches",
        "time_s",
        "energy_j",
    )
    for name in host_fields:
        if getattr(a.host_estimate, name) != getattr(b.host_estimate, name):
            diffs.append(
                f"host.{name}: {getattr(a.host_estimate, name)} != "
                f"{getattr(b.host_estimate, name)}"
            )
    if a.runtime_calls != b.runtime_calls:
        diffs.append("runtime_calls differ")
    if a.accelerator_energy_breakdown != b.accelerator_energy_breakdown:
        diffs.append("energy breakdown differs")
    return diffs


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("crossbar_mode", ["ideal", "quantized"])
def test_offloaded_execution_is_engine_invariant(kernel_name, crossbar_mode):
    kernel = KERNELS[kernel_name]
    result = compile_source(kernel.source)
    params = kernel.params(DATASET)
    arrays = kernel.arrays(DATASET, seed=11)

    outputs = {}
    reports = {}
    for engine in ("interpreter",) + EXACT_ENGINES:
        system = CimSystem(SystemConfig(crossbar_mode=crossbar_mode))
        executor = OffloadExecutor(system, engine=engine)
        outputs[engine], reports[engine] = executor.run(result.program, params, arrays)

    for engine in EXACT_ENGINES:
        for name in outputs["interpreter"]:
            np.testing.assert_array_equal(
                outputs["interpreter"][name],
                outputs[engine][name],
                err_msg=(
                    f"{kernel_name}/{crossbar_mode}/{engine}: "
                    f"array {name!r} not bit-identical"
                ),
            )
        diffs = _reports_equal(reports["interpreter"], reports[engine])
        assert not diffs, (
            f"{kernel_name}/{crossbar_mode}/{engine}: report mismatch: {diffs}"
        )


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_host_only_execution_is_engine_invariant(kernel_name):
    """With offloading disabled the engines execute the loop nests
    themselves — the strongest test of the vectorized lowering."""
    kernel = KERNELS[kernel_name]
    result = compile_source(kernel.source, options=CompileOptions.host_only())
    params = kernel.params(DATASET)
    arrays = kernel.arrays(DATASET, seed=23)

    outputs = {}
    reports = {}
    for engine in ("interpreter",) + EXACT_ENGINES:
        executor = OffloadExecutor(engine=engine)
        outputs[engine], reports[engine] = executor.run(result.program, params, arrays)

    for engine in EXACT_ENGINES:
        for name in outputs["interpreter"]:
            np.testing.assert_array_equal(
                outputs["interpreter"][name],
                outputs[engine][name],
                err_msg=f"{kernel_name}/{engine}: array {name!r} not bit-identical",
            )
        diffs = _reports_equal(reports["interpreter"], reports[engine])
        assert not diffs, f"{kernel_name}/{engine}: report mismatch: {diffs}"


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_raw_program_traces_match(kernel_name):
    """Un-compiled source programs: identical traces, identical arrays."""
    from repro.frontend import parse_program

    kernel = KERNELS[kernel_name]
    program = parse_program(kernel.source)
    params = kernel.params(DATASET)
    arrays = kernel.arrays(DATASET, seed=5)

    from repro.ir.engine import make_engine

    interp = Interpreter(program)
    out_i = interp.run(params, {k: v.copy() for k, v in arrays.items()})
    for engine_name in EXACT_ENGINES:
        engine = make_engine(program, engine=engine_name)
        out_v = engine.run(params, {k: v.copy() for k, v in arrays.items()})
        for name in out_i:
            np.testing.assert_array_equal(out_i[name], out_v[name])
        assert interp.trace == engine.trace
        assert isinstance(engine.trace, ExecutionTrace)
