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

import numpy as np
import pytest

from repro.system import CimSystem

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



def test_traced_device_calls_keep_the_conventions_the_tracer_reads(suite):
    """The tracer counts ``SharedMemory.read`` bytes from ``args[2]`` (the
    size must be passed positionally) and ``SharedMemory.write`` bytes from
    the return value, and times the device through the pinned names.  A
    keyword call, a non-numeric return or a hot path that bypasses a pinned
    name would otherwise only fail in the benchmark's traced pass."""
    spans, workloads = suite
    system = CimSystem()
    runtime = system.runtime
    runtime.cim_init(0)
    rng = np.random.default_rng(0)
    operands = {
        "a": rng.random((6, 5), dtype=np.float32),
        "x": rng.random(5, dtype=np.float32),
        "y": np.zeros(6, dtype=np.float32),
        "img": rng.random((6, 7), dtype=np.float32),
        "w": rng.random((3, 3), dtype=np.float32),
        "out": np.zeros((4, 5), dtype=np.float32),
    }
    tracer = spans.Tracer()
    try:
        workloads.instrument(tracer)
        with tracer.operation(0):
            buffers = {name: runtime.cim_malloc(array.nbytes) for name, array in operands.items()}
            for name, array in operands.items():
                runtime.cim_host_to_dev(buffers[name], array)
            system.blas.sgemv(
                False, 6, 5, 1.0, buffers["a"], 5, buffers["x"], 0.0, buffers["y"])
            system.blas.conv2d(
                4, 5, 3, 3, 1.0, buffers["img"], buffers["w"], 0.0, buffers["out"])
            y = runtime.cim_dev_to_host(buffers["y"], (6,))
            # The descriptor table is the one thing the device still
            # fetches with SharedMemory.read.
            system.blas.gemm_batched(False, False, [dict(
                m=6, n=1, k=5, a=buffers["a"], b=buffers["x"], c=buffers["y"])])
    finally:
        tracer.unwrap_all()
    np.testing.assert_allclose(y, operands["a"] @ operands["x"], rtol=1e-5)
    uploaded = sum(array.nbytes for array in operands.values())
    assert tracer.counts["system.memory_ms"] > uploaded
    calls = tracer.calls()
    for span in ("hw.tile_write_ms", "hw.gemv_ms", "hw.microengine_ms", "hw.dma_ms",
                 "system.memory_ms"):
        assert calls.get(span, 0) > 0, f"no traced call reached {span}"
