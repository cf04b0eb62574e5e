"""Pinned floats must not depend on the interpreter's ``sum()``.

CPython 3.12 changed builtin ``sum()`` over floats to a compensated
(Neumaier) algorithm, which rounds differently from 3.11's plain
left-to-right additions.  Every float that reaches pinned bytes (golden
traces, ``device_reports.json``) is therefore accumulated with explicit
``+=``.  This test makes the dependence visible on *any* interpreter: it
shadows the name ``sum`` in the modules on those paths with a
compensated sum and requires the goldens to stay identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.hw.accelerator
import repro.hw.stats
import repro.serve.accounting
import repro.serve.metrics
from repro.trace import TraceReplayer, load_trace
from tests.test_hw_equivalence import GOLDEN, run_case

TRACES_DIR = Path(__file__).parent / "traces"

#: Modules whose builtin ``sum()`` calls used to feed pinned floats, and
#: the ledger fold, whose ``sum()`` must only ever see integers.
MODULES = (repro.hw.stats, repro.hw.accelerator, repro.serve.accounting, repro.serve.metrics)

#: Five of the 55 (of 104) device reports a compensated sum moved before
#: the sums were spelled out.
DEVICE_CASES = (
    "gemm/xbar16-tiles4-nodbuf-quantized",
    "gemv_resident/xbar256-tiles1-dbuf-ideal",
    "gemm_batched/xbar16-tiles1-dbuf-ideal",
    "conv_multi_slab/xbar256-tiles4-dbuf-quantized",
    "program:3mm/xbar16-tiles4-nodbuf-quantized",
)


def neumaier_sum(values, start=0):
    """Compensated summation, the algorithm of 3.12's float ``sum()``."""
    total = start
    compensation = 0.0
    for value in values:
        new_total = total + value
        if abs(total) >= abs(value):
            compensation += (total - new_total) + value
        else:
            compensation += (value - new_total) + total
        total = new_total
    return total + compensation


@pytest.fixture
def compensated_sum(monkeypatch):
    for module in MODULES:
        monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)


def test_the_shadow_really_rounds_differently():
    values = [0.1] * 10
    total = 0.0
    for value in values:
        total += value
    assert neumaier_sum(values) == 1.0 != total


@pytest.mark.parametrize("name", ["serve_multitenant", "fleet_faultstorm"])
def test_golden_replays_do_not_depend_on_builtin_sum(compensated_sum, name):
    result = TraceReplayer(load_trace(TRACES_DIR / f"{name}.jsonl")).replay()
    assert result.identical, result.diff.summary()


@pytest.mark.parametrize("case", DEVICE_CASES)
def test_device_reports_do_not_depend_on_builtin_sum(compensated_sum, case):
    expected = json.loads(GOLDEN.read_text())[case]
    assert json.loads(json.dumps(run_case(case))) == expected
