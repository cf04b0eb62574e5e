"""The vector unit a C body runs on does not change what it computes.

On x86-64 ELF builds every C body is compiled as two clones of one
function, for AVX2 and for baseline x86-64, and the loader picks one when
the object is loaded.  Each shape here runs five ways: on the cloned C
body, on a C body emitted without the clones (baseline only), on one
emitted without register tiles, on the fold body and on the reference
interpreter.  Result arrays and the execution trace must be the same
bytes from all five, on every PolyBench kernel of the paper at MEDIUM
(the interpreter only where it is quick there) and on gemm, gemv and
conv nests whose innermost extent is 1, 7, 127 or 129, so that the
vector loops' remainders run.
"""

from __future__ import annotations

import dataclasses
import platform
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro import CompileOptions, compile_source
from repro.gateway.loadgen import GEMV_SOURCE
from repro.ir import Interpreter
from repro.ir.engine import make_engine, native, native_available
from repro.workloads.polybench import KERNELS, PAPER_KERNELS

CLONES = '__attribute__((target_clones("avx2", "default")))'

#: What every C body with a register tile, and no other, contains.
TILE = "vector_size"

#: The interpreter runs MEDIUM's cubic kernels in 2-35 s each; they are
#: checked against it at the small extents below instead.
INTERPRETED_AT_MEDIUM = ("gesummv", "bicg", "mvt")

pytestmark = pytest.mark.skipif(not native_available(), reason="no C toolchain")


def _program(source: str):
    options = dataclasses.replace(CompileOptions.host_only(), enable_compile_cache=False)
    return compile_source(source, options=options).program


def _outcome(engine, params, arrays):
    """The bytes of every array a run left behind, and its trace."""
    engine.run(params, {name: array.copy() for name, array in arrays.items()})
    out = {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in engine.arrays.items()}
    return out, engine.trace


def _on_c_body(monkeypatch, source, params, arrays, clones=True, tiles=True):
    """A fresh program run on its C bodies, emitted with or without the
    clones and the register tiles; every one of them must run.  Returns
    the outcome and whether a body has a tile."""
    ran, dispatch = [], native._CEmitter.dispatch

    def bind(emitter, *loaded):
        body = dispatch(emitter, *loaded)
        return lambda *args: ran.append(body(*args)) or ran[-1]

    with monkeypatch.context() as patch:
        if not clones:
            patch.setattr(native, "_PRELUDE", native._PRELUDE.replace(CLONES, ""))
        if not tiles:
            patch.setattr(native._CEmitter, "tile", lambda emitter, loop: None)
        patch.setattr(native._CEmitter, "dispatch", bind)
        program = _program(source)
        outcome = _outcome(make_engine(program), params, arrays)
    kernels = [plan.kernel for plan in program.engine_plans.nests.values() if plan]
    assert ran and all(ran), "a nest did not run on its C body"
    assert kernels and all((CLONES in kernel.c_source) == clones for kernel in kernels)
    return outcome, any(TILE in kernel.c_source for kernel in kernels)


def _assert_isa_invariant(monkeypatch, source, params, arrays, interpret=True, tiled=None):
    """Equal bytes and traces from all five ways; with *tiled*, whether
    the default C bodies must have a register tile."""
    assert CLONES in native._PRELUDE
    cloned, has_tile = _on_c_body(monkeypatch, source, params, arrays)
    assert tiled is None or has_tile == tiled
    assert _on_c_body(monkeypatch, source, params, arrays, clones=False)[0] == cloned
    assert _on_c_body(monkeypatch, source, params, arrays, tiles=False) == (cloned, False)
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_NATIVE", "0")
        assert _outcome(make_engine(_program(source)), params, arrays) == cloned
    if interpret:
        assert _outcome(Interpreter(_program(source)), params, arrays) == cloned


@pytest.mark.parametrize("name", PAPER_KERNELS)
def test_paper_kernels_at_medium(monkeypatch, name):
    kernel = KERNELS[name]
    _assert_isa_invariant(
        monkeypatch, kernel.source, kernel.params("MEDIUM"), kernel.arrays("MEDIUM", 5),
        interpret=name in INTERPRETED_AT_MEDIUM, tiled=name != "gesummv",
    )


#: (source, params) per nest shape; ``E`` is the innermost extent of the
#: C body's vector loop.
REMAINDER_SHAPES = {
    "gemm": (KERNELS["gemm"].source, lambda E: {**KERNELS["gemm"].params("MINI"),
                                                "NI": 4, "NJ": E, "NK": 5}),
    "gemv": (GEMV_SOURCE, lambda E: {"M": E, "N": E}),
    "conv": (KERNELS["conv"].source, lambda E: {**KERNELS["conv"].params("MINI"),
                                                "OH": 3, "OW": E, "KH": 3, "KW": 3}),
}


@pytest.mark.parametrize("extent", [1, 7, 127, 129])
@pytest.mark.parametrize("shape", sorted(REMAINDER_SHAPES))
def test_vector_remainders(monkeypatch, shape, extent):
    source, params = REMAINDER_SHAPES[shape]
    params = params(extent)
    rng = np.random.default_rng(extent)
    arrays = {
        decl.name: rng.standard_normal(decl.extent(params)).astype(decl.elem_type.numpy_dtype)
        for decl in _program(source).arrays
    }
    _assert_isa_invariant(monkeypatch, source, params, arrays)


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and platform.machine() == "x86_64"
         and shutil.which("nm")),
    reason="ifunc clones are an x86-64 ELF feature; nm reads them",
)
def test_the_loaded_object_exports_the_kernel_as_an_indirect_function(monkeypatch, tmp_path):
    """A toolchain that dropped the clones silently would leave the kernel
    a plain function (``nm`` type ``T``) and every CPU on baseline code."""
    monkeypatch.setattr(native, "_loaded", {})
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    kernel = KERNELS["gemm"]
    make_engine(_program(kernel.source)).run(kernel.params("MINI"), kernel.arrays("MINI", 1))
    objects = sorted(tmp_path.glob("*.so"))
    assert objects
    for path in objects:
        symbols = subprocess.run(["nm", "-D", str(path)], capture_output=True, text=True,
                                 check=True).stdout.split("\n")
        assert any(line.split()[-2:] == ["i", "kernel"] for line in symbols if line), symbols
