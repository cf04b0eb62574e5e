"""Per-kernel evaluation and the Figure 6 experiment.

For every PolyBench kernel the harness produces two configurations, exactly
as the paper's compilation strings do:

* **Host (Arm-A7)** — ``clang -O3``: the unmodified kernel, costed with the
  analytical host model (dynamic instructions x 128 pJ).
* **Host+CIM** — ``clang -O3 -enable-loop-tactics``: the TDO-CIM-compiled
  kernel executed on the emulated system; its energy is the sum of the host
  loops that remained, the host-side offload overhead (driver, copies,
  cache flushes, polling) and the accelerator energy.

Figure 6 (left) reports the two energies and the MACs-per-CIM-write compute
intensity; Figure 6 (right) reports EDP and runtime improvement factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.codegen.executor import ExecutionReport, OffloadExecutor
from repro.compiler.driver import CompilationResult, TdoCimCompiler
from repro.compiler.options import CompileOptions
from repro.eval.metrics import geometric_mean, improvement_factor, signed_log_improvement
from repro.host.cost_model import HostCostModel, HostExecutionEstimate
from repro.ir.normalize import normalize_reductions
from repro.system.config import SystemConfig
from repro.system.system import CimSystem
from repro.workloads.polybench import PAPER_KERNELS, get_kernel


@dataclass
class KernelEvaluation:
    """Host vs host+CIM comparison for one kernel and dataset.

    Both configurations are costed with the same analytical host model (the
    Gem5-profiling stand-in): the baseline is the original program, the CIM
    configuration is the host part of the compiled program plus the measured
    offload overhead and accelerator energy/latency.
    """

    kernel: str
    category: str
    dataset: str
    host: HostExecutionEstimate
    cim: ExecutionReport
    cim_host: HostExecutionEstimate
    compilation: CompilationResult

    # ------------------------------------------------------------------
    @property
    def host_energy_j(self) -> float:
        return self.host.energy_j

    @property
    def cim_energy_j(self) -> float:
        return (
            self.cim_host.energy_j
            + self.cim.offload_energy_j
            + self.cim.accelerator_energy_j
        )

    @property
    def host_time_s(self) -> float:
        return self.host.time_s

    @property
    def cim_time_s(self) -> float:
        return self.cim_host.time_s + self.cim.offload_time_s

    @property
    def energy_improvement(self) -> float:
        return improvement_factor(self.host_energy_j, self.cim_energy_j)

    @property
    def runtime_improvement(self) -> float:
        return improvement_factor(self.host_time_s, self.cim_time_s)

    @property
    def edp_improvement(self) -> float:
        return improvement_factor(
            self.host_energy_j * self.host_time_s,
            self.cim_energy_j * self.cim_time_s,
        )

    @property
    def macs_per_cim_write(self) -> float:
        return self.cim.macs_per_cim_write


def evaluate_kernel(
    name: str,
    dataset: str = "MEDIUM",
    options: Optional[CompileOptions] = None,
    system_config: Optional[SystemConfig] = None,
    seed: int = 0,
    verify: bool = False,
) -> KernelEvaluation:
    """Run the host-vs-CIM comparison for one PolyBench kernel.

    ``verify=True`` additionally checks the offloaded results against the
    NumPy reference (used by the integration tests; the benchmarks skip it
    to keep the timed region focused on the simulation itself).
    """
    kernel = get_kernel(name)
    params = kernel.params(dataset)
    arrays = kernel.arrays(dataset, seed=seed)

    compiler = TdoCimCompiler(options or CompileOptions())
    compilation = compiler.compile(kernel.source, size_hint=params)

    # Host baseline: analytical cost of the original (normalised) program.
    host_model = HostCostModel((system_config or SystemConfig()).host)
    host_program = normalize_reductions(compilation.source_program)
    host_estimate = host_model.estimate_program(host_program, params)
    # Host part of the compiled program (the loops left after offloading),
    # costed with the same analytical model for an apples-to-apples compare.
    cim_host_estimate = host_model.estimate_program(compilation.program, params)

    # Host+CIM: execute the compiled program on the emulated system.
    system = CimSystem(system_config or SystemConfig())
    executor = OffloadExecutor(system)
    outputs, report = executor.run(compilation.program, params, arrays)

    if verify:
        reference = kernel.numpy_reference(params, arrays)
        for array_name in kernel.output_arrays:
            if not np.allclose(
                outputs[array_name], reference[array_name], rtol=1e-3, atol=1e-4
            ):
                raise AssertionError(
                    f"offloaded {name} produced wrong results for {array_name!r}"
                )

    return KernelEvaluation(
        kernel=name,
        category=kernel.category,
        dataset=dataset,
        host=host_estimate,
        cim=report,
        cim_host=cim_host_estimate,
        compilation=compilation,
    )


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------
@dataclass
class Figure6Row:
    """One bar group of Figure 6 (both panels)."""

    kernel: str
    category: str
    host_energy_mj: float
    cim_energy_mj: float
    energy_improvement: float
    macs_per_cim_write: float
    edp_improvement: float
    runtime_improvement: float

    @property
    def edp_improvement_signed(self) -> float:
        return signed_log_improvement(self.edp_improvement)

    @property
    def runtime_improvement_signed(self) -> float:
        return signed_log_improvement(self.runtime_improvement)


@dataclass
class Figure6Data:
    """The complete Figure 6 dataset."""

    dataset: str
    rows: list[Figure6Row] = field(default_factory=list)
    evaluations: list[KernelEvaluation] = field(default_factory=list)

    @property
    def energy_geomean(self) -> float:
        """Geometric-mean energy improvement over all kernels."""
        return geometric_mean(r.energy_improvement for r in self.rows)

    @property
    def selective_energy_geomean(self) -> float:
        """Geometric-mean energy improvement over the GEMM-like kernels only
        (the paper's "Selective Geomean" bar)."""
        selective = [r.energy_improvement for r in self.rows if r.category == "gemm-like"]
        return geometric_mean(selective)

    @property
    def edp_average(self) -> float:
        """Average EDP improvement (the paper's rightmost bar)."""
        return geometric_mean(r.edp_improvement for r in self.rows)

    @property
    def best_edp_improvement(self) -> float:
        return max(r.edp_improvement for r in self.rows)

    def row(self, kernel: str) -> Figure6Row:
        for row in self.rows:
            if row.kernel == kernel:
                return row
        raise KeyError(f"no Figure 6 row for kernel {kernel!r}")


def figure6(
    dataset: str = "MEDIUM",
    kernels: Sequence[str] = PAPER_KERNELS,
    options: Optional[CompileOptions] = None,
    system_config: Optional[SystemConfig] = None,
    seed: int = 0,
) -> Figure6Data:
    """Regenerate the Figure 6 data (energy, intensity, EDP, runtime)."""
    data = Figure6Data(dataset=dataset)
    for name in kernels:
        evaluation = evaluate_kernel(
            name,
            dataset=dataset,
            options=options,
            system_config=system_config,
            seed=seed,
        )
        data.evaluations.append(evaluation)
        data.rows.append(
            Figure6Row(
                kernel=name,
                category=evaluation.category,
                host_energy_mj=evaluation.host_energy_j * 1e3,
                cim_energy_mj=evaluation.cim_energy_j * 1e3,
                energy_improvement=evaluation.energy_improvement,
                macs_per_cim_write=evaluation.macs_per_cim_write,
                edp_improvement=evaluation.edp_improvement,
                runtime_improvement=evaluation.runtime_improvement,
            )
        )
    return data
