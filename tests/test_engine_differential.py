"""Differential tests: execution engines vs. reference interpreter.

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


class _ExtraKernel:
    """A hand-written input with the part of ``PolybenchKernel`` these
    tests use, so it can ride the same parametrisations."""

    def __init__(self, source: str, params: dict, shapes: dict):
        self.source, self._params, self._shapes = source, params, shapes

    def params(self, dataset: str) -> dict:
        return dict(self._params)

    def arrays(self, dataset: str, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            name: rng.random(shape, dtype=np.float32)
            for name, shape in self._shapes.items()
        }


#: The host-only and raw-program tests also run these: mini-C identifiers
#: that are Python keywords or names the engine itself uses, and a
#: statement whose right-hand side reads the element it writes.
HOST_KERNELS = {
    **KERNELS,
    "keyword-names": _ExtraKernel(
        """
        void lambda(int range, int scalars, float in[range][scalars],
                    float np[scalars], float arrays[range], float is) {
          for (int def = 0; def < range; def++) {
            arrays[def] = 0.0;
            for (int for_ = 0; for_ < scalars; for_++)
              arrays[def] = arrays[def] + is * in[def][for_] * np[scalars - 1 - for_];
          }
        }
        """,
        {"range": 7, "scalars": 5, "is": 1.5},
        {"in": (7, 5), "np": 5, "arrays": 7},
    ),
    "self-reading-target": _ExtraKernel(
        """
        void axpby(int N, float alpha, float beta, float A[N][N], float x[N],
                   float tmp[N], float y[N]) {
          for (int i = 0; i < N; i++) {
            tmp[i] = 0.0;
            for (int j = 0; j < N; j++)
              tmp[i] = A[i][j] * x[j] + tmp[i];
            y[i] = alpha * tmp[i] + beta * y[i];
          }
        }
        """,
        {"N": 9, "alpha": 1.5, "beta": 1.2},
        {"A": (9, 9), "x": 9, "tmp": 9, "y": 9},
    ),
}

#: Engines that must match the interpreter bit for bit, trace included.
#: "native" silently degrades to the fold tier when the optional C
#: toolchain is absent — still exact, so it is always safe to test.
EXACT_ENGINES = ("fast", "native")


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


@pytest.mark.parametrize("kernel_name", sorted(HOST_KERNELS))
def test_host_only_execution_is_engine_invariant(kernel_name):
    """With offloading disabled the engines execute the loop nests
    themselves — the strongest test of the emitted kernels."""
    kernel = HOST_KERNELS[kernel_name]
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


@pytest.mark.parametrize("kernel_name", sorted(HOST_KERNELS))
def test_raw_program_traces_match(kernel_name):
    """Un-compiled source programs: identical traces, identical arrays."""
    from repro.frontend import parse_program

    kernel = HOST_KERNELS[kernel_name]
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
