"""Figure 5: PCM lifetime under naive vs smart (fused) mapping.

The workload is the Listing 2 pair of independent GEMMs sharing their ``A``
operand.  Under the *naive* mapping each kernel is offloaded separately and
the crossbar is (re)programmed once per kernel (equivalently, the paper's
framing: the non-shared operands ``B`` and ``E`` are the ones written);
under the *smart* mapping TDO-CIM fuses the two kernels into one batched
call and the shared operand ``A`` is written once, with the other operands
streamed through the input buffers.  The system lifetime follows Eq. (1):

    lifetime = cell_endurance * crossbar_size / write_traffic

Two modes are provided:

* ``figure5_simulated`` — compiles and runs the Listing 2 workload (small
  matrices) with fusion off/on and takes the crossbar write counts from the
  simulated accelerator.  This demonstrates that the fusion transformation
  really halves the number of crossbar writes.
* ``figure5`` (projection, the default) — evaluates Eq. (1) at the paper's
  scale: square matrices of 4096 byte-elements per side, write volume equal
  to two operand matrices (naive) versus one (smart), and the kernel-pair
  execution time taken from the analytical Arm-A7 host model.  This
  reproduces the 8-48-year range and the ~2x gap of the paper's figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.codegen.executor import ExecutionReport, OffloadExecutor
from repro.compiler.driver import TdoCimCompiler
from repro.compiler.options import CompileOptions
from repro.frontend.parser import parse_program
from repro.host.cost_model import HostCostModel
from repro.hw.endurance import system_lifetime_years
from repro.ir.normalize import normalize_reductions
from repro.system.config import SystemConfig
from repro.system.system import CimSystem

#: The endurance sweep of Figure 5 (10 to 40 million writes).
DEFAULT_ENDURANCE_POINTS = tuple(float(m) * 1e6 for m in range(10, 41, 2))

#: Listing 2 / Figure 5 use a 512 KB crossbar for the lifetime projection.
FIGURE5_CROSSBAR_BYTES = 512 * 1024

#: The paper assumes square matrices of 4096 byte-elements per side.
FIGURE5_MATRIX_SIDE = 4096

#: Mini-C source of the Listing 2 workload: two independent GEMMs sharing A.
SHARED_INPUT_GEMMS_SOURCE = """
void shared_input_gemms(int N, float C[N][N], float D[N][N],
                        float A[N][N], float B[N][N], float E[N][N]) {
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < N; k++)
        C[i][j] += A[i][k] * B[k][j];
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < N; k++)
        D[i][j] += A[i][k] * E[k][j];
}
"""


@dataclass
class MappingOutcome:
    """Write volume and time basis of one mapping strategy."""

    name: str
    crossbar_bytes_written: float
    execution_time_s: float
    report: Optional[ExecutionReport] = None

    @property
    def write_traffic_bytes_per_s(self) -> float:
        if self.execution_time_s <= 0:
            return 0.0
        return self.crossbar_bytes_written / self.execution_time_s

    def lifetime_years(
        self,
        cell_endurance_writes: float,
        crossbar_size_bytes: float = FIGURE5_CROSSBAR_BYTES,
    ) -> float:
        return system_lifetime_years(
            cell_endurance_writes, crossbar_size_bytes, self.write_traffic_bytes_per_s
        )


@dataclass
class Figure5Data:
    """Lifetime curves of Figure 5."""

    endurance_points: tuple[float, ...]
    naive: MappingOutcome = None  # type: ignore[assignment]
    smart: MappingOutcome = None  # type: ignore[assignment]
    crossbar_size_bytes: float = FIGURE5_CROSSBAR_BYTES
    mode: str = "projected"

    def naive_curve(self) -> list[tuple[float, float]]:
        return [
            (e, self.naive.lifetime_years(e, self.crossbar_size_bytes))
            for e in self.endurance_points
        ]

    def smart_curve(self) -> list[tuple[float, float]]:
        return [
            (e, self.smart.lifetime_years(e, self.crossbar_size_bytes))
            for e in self.endurance_points
        ]

    @property
    def lifetime_improvement(self) -> float:
        """Smart-over-naive lifetime ratio (the paper reports ~2x)."""
        return (
            self.naive.write_traffic_bytes_per_s
            / self.smart.write_traffic_bytes_per_s
        )

    @property
    def write_volume_ratio(self) -> float:
        """Naive-over-smart crossbar write volume (independent of time basis)."""
        return self.naive.crossbar_bytes_written / self.smart.crossbar_bytes_written


def _run_mapping(matrix_size: int, pipeline: str, name: str) -> MappingOutcome:
    """Compile and execute the Listing 2 workload under the named pipeline
    (``"no-fusion"`` for the naive mapping)."""
    options = CompileOptions(pipeline=pipeline)
    compilation = TdoCimCompiler(options).compile(
        SHARED_INPUT_GEMMS_SOURCE, size_hint={"N": matrix_size}
    )
    rng = np.random.default_rng(7)
    arrays = {
        "A": rng.random((matrix_size, matrix_size), dtype=np.float32),
        "B": rng.random((matrix_size, matrix_size), dtype=np.float32),
        "E": rng.random((matrix_size, matrix_size), dtype=np.float32),
        "C": np.zeros((matrix_size, matrix_size), dtype=np.float32),
        "D": np.zeros((matrix_size, matrix_size), dtype=np.float32),
    }
    system = CimSystem(SystemConfig())
    executor = OffloadExecutor(system)
    _, report = executor.run(compilation.program, {"N": matrix_size}, arrays)
    return MappingOutcome(
        name=name,
        # One byte per programmed 8-bit cell.
        crossbar_bytes_written=float(report.crossbar_cell_writes),
        execution_time_s=report.total_time_s,
        report=report,
    )


def figure5_simulated(
    matrix_size: int = 64,
    endurance_points: Sequence[float] = DEFAULT_ENDURANCE_POINTS,
    crossbar_size_bytes: float = FIGURE5_CROSSBAR_BYTES,
    common_time_basis: bool = True,
) -> Figure5Data:
    """Simulation-backed Figure 5 (small matrices).

    With ``common_time_basis`` (the paper's model: the kernel-pair execution
    time does not depend on the mapping), both mappings use the naive
    execution's time, so the lifetime gap equals the measured write-volume
    ratio.
    """
    naive = _run_mapping(matrix_size, pipeline="no-fusion", name="Naive mapping")
    smart = _run_mapping(matrix_size, pipeline="default", name='"Smart" mapping')
    if common_time_basis:
        smart = MappingOutcome(
            name=smart.name,
            crossbar_bytes_written=smart.crossbar_bytes_written,
            execution_time_s=naive.execution_time_s,
            report=smart.report,
        )
    return Figure5Data(
        endurance_points=tuple(endurance_points),
        naive=naive,
        smart=smart,
        crossbar_size_bytes=crossbar_size_bytes,
        mode="simulated",
    )


def figure5(
    matrix_side: int = FIGURE5_MATRIX_SIDE,
    endurance_points: Sequence[float] = DEFAULT_ENDURANCE_POINTS,
    crossbar_size_bytes: float = FIGURE5_CROSSBAR_BYTES,
) -> Figure5Data:
    """Paper-scale analytical projection of Figure 5.

    Write volume: the naive mapping programs the two non-shared operands
    (``B`` and ``E``), the smart mapping programs only the shared ``A`` —
    ``matrix_side**2`` byte-elements per matrix.  The kernel-pair execution
    time is the analytical Arm-A7 estimate of the Listing 2 loop nests, and
    the writes are assumed uniformly spread over a 512 KB crossbar (ideal
    wear levelling), as in the paper.
    """
    program = normalize_reductions(parse_program(SHARED_INPUT_GEMMS_SOURCE))
    host_model = HostCostModel()
    estimate = host_model.estimate_program(program, {"N": matrix_side})
    pair_time_s = estimate.time_s
    matrix_bytes = float(matrix_side * matrix_side)
    naive = MappingOutcome(
        name="Naive mapping",
        crossbar_bytes_written=2.0 * matrix_bytes,
        execution_time_s=pair_time_s,
    )
    smart = MappingOutcome(
        name='"Smart" mapping',
        crossbar_bytes_written=matrix_bytes,
        execution_time_s=pair_time_s,
    )
    return Figure5Data(
        endurance_points=tuple(endurance_points),
        naive=naive,
        smart=smart,
        crossbar_size_bytes=crossbar_size_bytes,
        mode="projected",
    )
