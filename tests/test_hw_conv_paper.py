"""The paper-size convolution, pinned bit for bit.

``tests/golden/hw/device_reports.json`` drives convolutions of five and
six output rows; a float total that drifts only after many repeated
charges would not show there.  These cases run the PolyBench ``conv``
kernel at the paper's SMALL (30 output rows, 3x3 filter) and MEDIUM
(120 output rows, 5x5 filter) sizes through the whole stack and record
what ``test_hw_equivalence`` records for a program: output bytes, the
execution report and the full device state.  MEDIUM runs on the 256x256
crossbar only, because its 25 taps exceed a 16-row crossbar.

Operands are integer-valued, as in ``test_hw_equivalence``, so the result
bytes do not depend on the BLAS build.

Recording (only from a tree whose device model is the reference)::

    PYTHONPATH=<reference tree>/src:. python tests/test_hw_conv_paper.py
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro import compile_source
from repro.codegen.executor import OffloadExecutor
from repro.workloads.polybench import KERNELS
from tests.test_hw_equivalence import (
    REPORT_FIELDS, _device_state, _digest, _fields, _ints, _system,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "hw" / "conv_paper.json"

CASES = [
    f"conv:{dataset}/xbar{xbar}-tiles{tiles}-dbuf-{mode}"
    for (dataset, xbar), tiles, mode in itertools.product(
        (("SMALL", 256), ("SMALL", 16), ("MEDIUM", 256)), (1, 4), ("ideal", "quantized")
    )
]


def run_case(case: str) -> dict:
    scenario, config = case.split("/")
    kernel = KERNELS["conv"]
    dataset = scenario.partition(":")[2]
    params = kernel.params(dataset)
    arrays = {
        name: _ints(20 + index, *array.shape).astype(array.dtype)
        for index, (name, array) in enumerate(sorted(kernel.arrays(dataset, 0).items()))
    }
    system = _system(config)
    program = compile_source(kernel.source, size_hint=params).program
    outputs, report = OffloadExecutor(system).run(program, params, arrays)
    record = {
        "outputs": {name: _digest(outputs[name], outputs[name].dtype)
                    for name in sorted(kernel.output_arrays)},
        "report": _fields(report, REPORT_FIELDS),
        "host_estimate": _fields(
            report.host_estimate, ("instructions", "energy_j", "time_s")),
    }
    record.update(_device_state(system))
    return json.loads(json.dumps(record))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


def test_cases_charge_every_output_row(golden):
    """Each case offloads the whole convolution as one accelerator run."""
    for case, record in golden.items():
        rows = KERNELS["conv"].params(case.split("/")[0].partition(":")[2])["OH"]
        assert len(record["runs"]) == 1, case
        assert record["report"]["crossbar_write_ops"] == 1, case
        assert record["timeline"]["events"] >= rows, case


@pytest.mark.parametrize("case", CASES)
def test_conv_paper_equals_golden(case, golden):
    record = run_case(case)
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
