"""The benchmark's span tracer pins names in ``src/repro``.

``benchmarks/suite/spans.py::Tracer.wrap`` saves ``vars(owner)[attr]`` and
``workloads.py::instrument`` wraps a fixed list of ``(owner, attr)`` pairs,
so a method that becomes inherited, or a module attribute that moves, is a
``KeyError``/``AttributeError`` in every traced benchmark run.  This test
makes that fail here, in the tier-1 run, instead.  It reads the suite; it
does not edit it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

SUITE_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "suite"


@pytest.fixture
def suite(monkeypatch):
    """The suite's two modules, imported the way ``run.py`` runs them
    (from their own directory) and forgotten again afterwards."""
    monkeypatch.syspath_prepend(str(SUITE_DIR))
    names = ("spans", "workloads")
    try:
        yield [importlib.import_module(name) for name in names]
    finally:
        for name in names:
            sys.modules.pop(name, None)


def test_instrument_wraps_and_restores_every_pinned_name(suite):
    spans, workloads = suite
    tracer = spans.Tracer()
    try:
        workloads.instrument(tracer)
        wrapped = list(tracer._saved)
        assert wrapped, "instrument() wrapped nothing"
        for owner, attr, original in wrapped:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.unwrap_all()
    # A name wrapped twice is saved twice; the first save is the original.
    first_saved = {}
    for owner, attr, original in wrapped:
        first_saved.setdefault((id(owner), attr), (owner, original))
    for (_, attr), (owner, original) in first_saved.items():
        assert vars(owner)[attr] is original, (owner, attr)

