"""The per-program plan store: built once, never shared, never pickled.

Nest plans and emitted kernels are pure functions of a program's
statements, so the engines keep them on the program
(``Program.engine_plans``) instead of rebuilding them per run.  These
tests pin the three things that can go wrong with that: planning more
than once, plans leaking from one program object to another, and plans
(which hold compiled functions) riding along when a compilation result
is pickled or copied — ``KernelCompileCache`` swallows pickling errors,
so that would silently turn the disk cache off.  They also pin that every
planned nest the benchmark runs executes on its emitted kernel, and that
the kernel text names nothing after the input program.
"""

from __future__ import annotations

import copy
import gc
import io
import pickle
import tokenize

import numpy as np
import pytest

from repro import CimServer, CompileOptions, OffloadExecutor, ServerConfig, compile_source
from repro.compiler import KernelCompileCache
from repro.gateway.loadgen import GEMV_SOURCE
from repro.ir.engine import VectorizedEngine, analysis
from repro.workloads.polybench import KERNELS, PAPER_KERNELS

PLANNING_ENGINES = ("fast", "native")


def _compiled(name: str = "gesummv", engine: str = "fast"):
    """A private compilation (the process-wide compile cache would hand
    every test the same program object, plans and all)."""
    kernel = KERNELS[name]
    options = CompileOptions.host_only()
    options.engine = engine
    options.enable_compile_cache = False
    return (
        compile_source(kernel.source, options=options),
        kernel.params("MINI"),
        kernel.arrays("MINI", seed=3),
    )


def _run(result, params, arrays):
    return OffloadExecutor().run(result, params, arrays)


def _assert_same_run(a, b):
    (out_a, report_a), (out_b, report_b) = a, b
    assert out_a.keys() == out_b.keys()
    for name in out_a:
        np.testing.assert_array_equal(out_a[name], out_b[name])
    assert report_a == report_b  # every field, host estimate included


@pytest.fixture
def planning_spy(monkeypatch):
    """Counts calls of the one function every nest plan comes from."""
    calls = []
    original = analysis.build_plan_with_reason

    def spy(root):
        calls.append(root)
        return original(root)

    monkeypatch.setattr(analysis, "build_plan_with_reason", spy)
    return calls


# ----------------------------------------------------------------------
# Plan once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", PLANNING_ENGINES)
def test_second_and_later_runs_do_not_plan(engine, planning_spy):
    result, params, arrays = _compiled(engine=engine)
    executor = OffloadExecutor()
    first = executor.run(result, params, arrays)
    planned = len(planning_spy)
    assert planned > 0, "the first run did not plan through the spied function"
    for _ in range(3):
        _assert_same_run(first, executor.run(result, params, arrays))
    # A fresh executor (and so a fresh engine instance) shares them too.
    _assert_same_run(first, OffloadExecutor().run(result, params, arrays))
    assert len(planning_spy) == planned


@pytest.mark.parametrize("engine", PLANNING_ENGINES)
def test_second_lease_of_one_kernel_does_not_plan(engine, planning_spy):
    kernel = KERNELS["mvt"]
    options = CompileOptions.host_only()
    options.engine = engine
    params = kernel.params("MINI")
    with CimServer(ServerConfig(compile_options=options)) as server:
        first = server.submit("tenant", kernel.source, params, kernel.arrays("MINI", 1))
        server.drain()
        planned = len(planning_spy)
        second = server.submit("tenant", kernel.source, params, kernel.arrays("MINI", 2))
        server.drain()
    assert first.result is not None and second.result is not None
    assert planned > 0
    assert len(planning_spy) == planned


@pytest.mark.parametrize("engine", PLANNING_ENGINES)
def test_programs_from_one_source_plan_independently(engine, planning_spy):
    """Plans are keyed on object identity, so a dead program's plans must
    die with it: create, run and drop programs so that ``id()`` values are
    recycled, and require each new program to plan for itself."""
    reference = None
    for _ in range(6):
        result, params, arrays = _compiled("mvt", engine=engine)
        assert result.program.engine_plans is None
        planning_spy.clear()
        run = _run(result, params, arrays)
        nests = len(result.program.top_level_loops())
        assert len(planning_spy) == nests
        assert all(
            any(root is loop for loop in result.program.top_level_loops())
            for root in planning_spy
        )
        if reference is None:
            reference = run
        _assert_same_run(reference, run)
        del result, run
        gc.collect()


# ----------------------------------------------------------------------
# Plans do not travel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", PLANNING_ENGINES)
def test_disk_cache_stores_a_result_that_has_run(engine, tmp_path):
    result, params, arrays = _compiled(engine=engine)
    original = _run(result, params, arrays)
    assert result.program.engine_plans is not None
    KernelCompileCache(disk_dir=tmp_path).put("ran", result)
    assert (tmp_path / "ran.pkl").exists(), "pickling a run program failed"
    loaded = KernelCompileCache(disk_dir=tmp_path).get("ran")
    assert loaded.program.engine_plans is None  # rebuilt lazily, on its first run
    _assert_same_run(original, _run(loaded, params, arrays))


@pytest.mark.parametrize("engine", PLANNING_ENGINES)
@pytest.mark.parametrize(
    "duplicate",
    [lambda result: pickle.loads(pickle.dumps(result)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_copies_run_identically_and_share_no_plan_state(engine, duplicate):
    result, params, arrays = _compiled(engine=engine)
    original = _run(result, params, arrays)
    twin = duplicate(result)
    assert twin.program == result.program
    assert twin.program.engine_plans is None
    _assert_same_run(original, _run(twin, params, arrays))
    mine, theirs = result.program.engine_plans, twin.program.engine_plans
    assert theirs is not None and theirs is not mine
    assert not set(mine.nests) & set(theirs.nests)
    for plan in theirs.nests.values():
        assert any(plan.root is loop for loop in twin.program.top_level_loops())
    # The original keeps working after its twin planned.
    _assert_same_run(original, _run(result, params, arrays))


# ----------------------------------------------------------------------
# Every nest the benchmark runs goes through its emitted kernel
# ----------------------------------------------------------------------
#: ``compile_cold``'s option sets (``benchmarks/suite/workloads.py``).
COMPILE_COLD_OPTION_SETS = (
    {},
    {"enable_tiling": True},
    {"min_macs_per_write": 32},
    {"pipeline": "no-fusion"},
)


def _benchmark_runs():
    """(source, options, size hint, params, arrays) of every program the
    benchmark's workloads drive through the engine."""
    for name in sorted(KERNELS):  # compile_cold, checked by one run at MINI
        kernel = KERNELS[name]
        for changes in COMPILE_COLD_OPTION_SETS:
            yield (kernel.source, CompileOptions(**changes), kernel.params("MEDIUM"),
                   kernel.params("MINI"), kernel.arrays("MINI", 1))
    for name in PAPER_KERNELS:
        kernel = KERNELS[name]
        params = kernel.params("MEDIUM")
        for options in (CompileOptions.host_only(), CompileOptions()):  # exec_*
            yield kernel.source, options, params, params, kernel.arrays("MEDIUM", 1)
        # fleet_unbatched and gw_open_mix: the server's default options.
        yield (kernel.source, CompileOptions(), None, kernel.params("SMALL"),
               kernel.arrays("SMALL", 1))
    for side in (16, 128):  # the gateway and serve_batched GEMVs
        rng = np.random.default_rng(side)
        arrays = {
            "A": rng.integers(0, 8, size=(side, side)).astype(np.float32),
            "x": rng.integers(0, 8, size=side).astype(np.float32),
            "y": np.zeros(side, dtype=np.float32),
        }
        yield GEMV_SOURCE, CompileOptions(), None, {"M": side, "N": side}, arrays


def test_every_benchmark_nest_runs_on_its_emitted_kernel(monkeypatch):
    """A nest the fast engine cannot run on its kernel runs on the
    interpreter — exact, but 5-1000x slower.  No input of the benchmark
    may take that path: every planned nest must have a kernel whose guard
    passes."""
    outcomes = []
    run_kernel = VectorizedEngine._run_kernel

    def spy(self, plan):
        ran = run_kernel(self, plan)
        outcomes.append((plan.root, ran))
        return ran

    monkeypatch.setattr(VectorizedEngine, "_run_kernel", spy)
    executor = OffloadExecutor()
    for source, options, size_hint, params, arrays in _benchmark_runs():
        options.enable_compile_cache = False
        program = compile_source(source, options, size_hint=size_hint).program
        executor.run(program, params, arrays)
        executor.system.runtime.free_all()
    assert outcomes, "no planned nest ran"
    interpreted = [str(root).splitlines()[0] for root, ran in outcomes if not ran]
    assert not interpreted, interpreted


# ----------------------------------------------------------------------
# The emitted kernel names nothing after the input program
# ----------------------------------------------------------------------
HOSTILE = """
void lambda(int range, int scalars, double in[range][scalars], double np[scalars],
            double arrays[range]) {
  for (int is = 0; is < range; is++)
    for (int def = 0; def < scalars; def++)
      arrays[is] = arrays[is] + in[is][def] * np[def] * 0.5;
}
"""
BENIGN = (
    HOSTILE.replace("lambda", "k").replace("range", "N").replace("scalars", "M")
    .replace("arrays", "y").replace("in[", "A[").replace("np", "x")
    .replace("is", "i").replace("def", "j")
)


def _kernel_sources(source: str) -> list[str]:
    options = CompileOptions.host_only()
    options.enable_compile_cache = False
    result = compile_source(source, options=options)
    rng = np.random.default_rng(0)
    params = dict(zip(result.program.param_names, (5, 4)))
    arrays = {
        decl.name: rng.random(decl.extent(params)) for decl in result.program.arrays
    }
    reference = OffloadExecutor(engine="interpreter").run(result, params, arrays)
    for engine in ("fast", "native"):
        _assert_same_run(reference, OffloadExecutor(engine=engine).run(result, params, arrays))
    plans = result.program.engine_plans.nests.values()
    assert all(plan.kernel is not None for plan in plans)
    return [plan.kernel.source for plan in plans]


def test_emitted_source_contains_no_input_identifier():
    hostile, benign = _kernel_sources(HOSTILE), _kernel_sources(BENIGN)
    # Renaming every identifier of the input leaves the emitted text alone…
    assert hostile == benign
    # …and what it does name is the emitter's own vocabulary: Python
    # keywords, six helpers, and generated locals (letter + serial).
    vocabulary = {
        "def", "kernel", "if", "not", "and", "or", "else", "for", "in", "return",
        "True", "False", "None", "isinstance", "ints", "ndim", "shape", "range",
        "ends", "arange", "reshape", "transpose", "min", "max", "pass",
    }
    for source in hostile:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NAME and token.string not in vocabulary:
                assert token.string[0] in "acilmpv" and token.string[1:].isdigit(), token
