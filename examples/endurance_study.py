#!/usr/bin/env python3
"""PCM endurance study: the paper's Figure 5 plus crossbar wear inspection.

Part 1 regenerates Figure 5: system lifetime under the naive mapping (every
kernel writes its operand to the crossbar) versus the "smart" mapping
TDO-CIM's kernel fusion enables (the shared operand is written once and the
others are streamed), using the paper's Eq. (1) lifetime model.

Part 2 runs the Listing 2 workload through the actual simulator with fusion
off/on and inspects the per-cell wear counters of the PCM crossbar model.

Run with:  python examples/endurance_study.py
"""

import numpy as np

from repro import CompileOptions, OffloadExecutor, compile_source
from repro.eval import figure5, figure5_simulated, format_figure5
from repro.eval.lifetime import SHARED_INPUT_GEMMS_SOURCE
from repro.system import CimSystem, SystemConfig


def run_pipeline(pipeline: str, n: int = 64):
    """Compile the Listing 2 kernel pair under the named pipeline and
    execute it; return (system, report)."""
    options = CompileOptions(pipeline=pipeline)
    result = compile_source(SHARED_INPUT_GEMMS_SOURCE, options=options,
                            size_hint={"N": n})
    rng = np.random.default_rng(1)
    arrays = {
        "A": rng.random((n, n), dtype=np.float32),
        "B": rng.random((n, n), dtype=np.float32),
        "E": rng.random((n, n), dtype=np.float32),
        "C": np.zeros((n, n), dtype=np.float32),
        "D": np.zeros((n, n), dtype=np.float32),
    }
    system = CimSystem(SystemConfig())
    _, report = OffloadExecutor(system).run(result.program, {"N": n}, arrays)
    return system, report


def main() -> None:
    # ------------------------------------------------------------------
    # Part 1: Figure 5 (paper-scale projection via Eq. (1)).
    # ------------------------------------------------------------------
    print(format_figure5(figure5()))
    print()

    # ------------------------------------------------------------------
    # Part 2: simulation-backed study with wear counters.
    # ------------------------------------------------------------------
    simulated = figure5_simulated(matrix_size=64)
    print("Simulation-backed check (64x64 operands):")
    print(f"  naive mapping crossbar bytes written: "
          f"{simulated.naive.crossbar_bytes_written:.0f}")
    print(f"  smart mapping crossbar bytes written: "
          f"{simulated.smart.crossbar_bytes_written:.0f}")
    print(f"  write-volume ratio (expected 2.0):    "
          f"{simulated.write_volume_ratio:.2f}")
    print()

    for label, pipeline in (("naive (fusion off)", "no-fusion"),
                            ('"smart" (fusion on)', "default")):
        system, report = run_pipeline(pipeline)
        crossbar = system.crossbar
        print(f"{label}:")
        print(f"  runtime calls:         {len(report.runtime_calls)}")
        print(f"  crossbar write ops:    {report.crossbar_write_ops}")
        print(f"  crossbar cell writes:  {report.crossbar_cell_writes}")
        print(f"  max writes to one cell:{crossbar.max_cell_writes:>4d}")
        print(f"  mean writes per cell:  "
              f"{crossbar.write_counts().mean():.2f}")
        print(f"  accelerator energy:    {report.accelerator_energy_j * 1e6:.1f} uJ")
        print()

    print("The smart mapping programs the shared A operand once; with ideal")
    print("wear levelling this halves the crossbar write traffic and doubles")
    print("the projected system lifetime (Figure 5 of the paper).")


if __name__ == "__main__":
    main()
