"""The per-program plan store: built once, never shared, never pickled.

Nest plans and emitted kernels are pure functions of a program's
statements, so the engines keep them on the program
(``Program.engine_plans``) instead of rebuilding them per run.  These
tests pin the three things that can go wrong with that: planning more
than once, plans leaking from one program object to another, and plans
(which hold compiled functions) riding along when a compilation result
is pickled or copied — ``KernelCompileCache`` swallows pickling errors,
so that would silently turn the disk cache off.  They also pin that every
planned nest the benchmark runs executes on its emitted kernel — its C
body when the toolchain is present, its fold body otherwise — that a
guard trip writes nothing and the C body copies nothing, that neither
kernel text names anything after the input program, and what the C
compile cache keys on.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import io
import pickle
import re
import tokenize
import tracemalloc

import numpy as np
import pytest

from repro import CimServer, CompileOptions, OffloadExecutor, ServerConfig, compile_source
from repro.compiler import KernelCompileCache
from repro.gateway.loadgen import GEMV_SOURCE
from repro.ir.engine import (
    VectorizedEngine,
    analysis,
    make_engine,
    native,
    native_available,
    program_lowering_report,
)
from repro.workloads.polybench import KERNELS, PAPER_KERNELS

PLANNING_ENGINES = ("fast",)


def _compiled(name: str = "gesummv", offload: bool = False):
    """A private compilation (the process-wide compile cache would hand
    every test the same program object, plans and all)."""
    kernel = KERNELS[name]
    options = dataclasses.replace(
        CompileOptions() if offload else CompileOptions.host_only(),
        enable_compile_cache=False,
    )
    return (
        compile_source(kernel.source, options=options),
        kernel.params("MINI"),
        kernel.arrays("MINI", seed=3),
    )


def _run(result, params, arrays, engine="fast"):
    return OffloadExecutor(engine=engine).run(result.program, params, arrays)


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
    original = analysis.plan_nest

    def spy(root):
        calls.append(root)
        return original(root)

    monkeypatch.setattr(analysis, "plan_nest", spy)
    return calls


# ----------------------------------------------------------------------
# Plan once
# ----------------------------------------------------------------------
def test_a_cold_compile_plans_no_nest(planning_spy):
    """Compiling plans nothing: a nest is planned at its first run, or
    each time its lowering report is asked for."""
    for options in (CompileOptions(), CompileOptions.host_only()):
        options = dataclasses.replace(options, enable_compile_cache=False)
        for name in sorted(KERNELS):
            result = compile_source(KERNELS[name].source, options=options)
            assert planning_spy == [], name
            report = program_lowering_report(result.program)
            assert len(planning_spy) == len(report), name
            assert result.program.engine_plans is None
            planning_spy.clear()


@pytest.mark.parametrize("engine", PLANNING_ENGINES)
def test_second_and_later_runs_do_not_plan(engine, planning_spy):
    for offload in (False, True):
        planning_spy.clear()
        result, params, arrays = _compiled(offload=offload)

        def run(executor):
            outcome = executor.run(result.program, params, arrays)
            executor.system.runtime.free_all()
            return outcome

        executor = OffloadExecutor(engine=engine)
        first = run(executor)
        planned = len(planning_spy)
        assert planned > 0, "the first run did not plan through the spied function"
        _, params_plan = result.program.engine_plans.run
        steps = {type(step).__name__ for step in params_plan.steps}
        assert steps == ({"CallStep", "Loop"} if offload else {"Loop"})
        # An executor's first offloaded run also initialises its runtime.
        second = run(executor)
        for _ in range(2):
            _assert_same_run(second, run(executor))
        # A fresh executor (and so a fresh engine instance) shares them too.
        _assert_same_run(first, run(OffloadExecutor(engine=engine)))
        assert len(planning_spy) == planned
        assert result.program.engine_plans.run[1] is params_plan


@pytest.mark.parametrize("engine", PLANNING_ENGINES)
def test_second_lease_of_one_kernel_does_not_plan(engine, planning_spy):
    kernel = KERNELS["mvt"]
    params = kernel.params("MINI")
    with CimServer(ServerConfig(compile_options=CompileOptions.host_only())) as server:
        assert server.executor.engine == engine
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
        result, params, arrays = _compiled("mvt")
        assert result.program.engine_plans is None
        planning_spy.clear()
        run = _run(result, params, arrays, engine)
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
    result, params, arrays = _compiled()
    original = _run(result, params, arrays, engine)
    assert result.program.engine_plans is not None
    KernelCompileCache(disk_dir=tmp_path).put("ran", result)
    assert (tmp_path / "ran.pkl").exists(), "pickling a run program failed"
    loaded = KernelCompileCache(disk_dir=tmp_path).get("ran")
    assert loaded.program.engine_plans is None  # rebuilt lazily, on its first run
    _assert_same_run(original, _run(loaded, params, arrays, engine))


@pytest.mark.parametrize("engine", PLANNING_ENGINES)
@pytest.mark.parametrize(
    "duplicate",
    [lambda result: pickle.loads(pickle.dumps(result)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_copies_run_identically_and_share_no_plan_state(engine, duplicate):
    for offload in (False, True):
        result, params, arrays = _compiled(offload=offload)
        original = _run(result, params, arrays, engine)
        twin = duplicate(result)
        assert twin.program == result.program
        # No nest plan, per-params plan, bound call or trace delta rides along.
        assert twin.program.engine_plans is None
        _assert_same_run(original, _run(twin, params, arrays, engine))
        mine, theirs = result.program.engine_plans, twin.program.engine_plans
        assert theirs is not None and theirs is not mine
        assert not set(mine.nests) & set(theirs.nests)
        for plan in theirs.nests.values():
            assert any(plan.root is loop for loop in twin.program.top_level_loops())
            assert plan.delta is not None  # worked out by the twin's own run
        my_run, their_run = mine.run[1], theirs.run[1]
        assert their_run is not my_run
        assert not {id(step) for step in my_run.steps} & {id(step) for step in their_run.steps}
        # The original keeps working after its twin planned.
        _assert_same_run(original, _run(result, params, arrays, engine))


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


def spy_on_c_bodies(monkeypatch) -> list[bool]:
    """What every C body bound from now on returns, call by call."""
    runs, dispatch = [], native._CEmitter.dispatch

    def bind(emitter, *loaded):
        body = dispatch(emitter, *loaded)
        return lambda *args: runs.append(body(*args)) or runs[-1]

    monkeypatch.setattr(native._CEmitter, "dispatch", bind)
    return runs


def _benchmark_kernel_runs(monkeypatch) -> list[tuple]:
    """(nest, ran on its kernel, ran its C body) for every planned nest
    execution of the benchmark's inputs, on freshly compiled programs."""
    outcomes, c_runs = [], spy_on_c_bodies(monkeypatch)
    run_kernel = VectorizedEngine._run_kernel

    def kernel_spy(self, plan):
        before = len(c_runs)
        ran = run_kernel(self, plan)
        outcomes.append((plan.root, ran, c_runs[before:] == [True]))
        return ran

    monkeypatch.setattr(VectorizedEngine, "_run_kernel", kernel_spy)
    executor = OffloadExecutor()
    for source, options, size_hint, params, arrays in _benchmark_runs():
        options = dataclasses.replace(options, enable_compile_cache=False)
        program = compile_source(source, options, size_hint=size_hint).program
        executor.run(program, params, arrays)
        executor.system.runtime.free_all()
    assert outcomes, "no planned nest ran"
    interpreted = [str(root).splitlines()[0] for root, ran, _ in outcomes if not ran]
    assert not interpreted, interpreted
    return outcomes


def test_every_benchmark_nest_runs_on_its_emitted_kernel(monkeypatch):
    """A nest the fast engine cannot run on its kernel runs on the
    interpreter — exact, but 5-1000x slower.  No input of the benchmark
    may take that path: every planned nest must have a kernel whose guard
    passes, and with the C toolchain present it must run the kernel's C
    body."""
    in_c = [c for _, _, c in _benchmark_kernel_runs(monkeypatch)]
    assert all(in_c) if native_available() else not any(in_c)


def test_every_benchmark_nest_runs_its_fold_body_without_the_toolchain(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert not any(c for _, _, c in _benchmark_kernel_runs(monkeypatch))


# ----------------------------------------------------------------------
# One guard: a trip writes nothing, and the C body copies nothing
# ----------------------------------------------------------------------
TRIPS_ON_THE_SECOND_STATEMENT = """
void trip(int N, double A[N], double B[N], double C[N]) {
  for (int i = 0; i < N; i++) {
    B[i] = A[i] * 2.0;
    C[i] = A[i - 1];
  }
}
"""


def _planned(source: str, params: dict, arrays: dict):
    """A fresh program run once (so its nests are planned) and its plans."""
    options = dataclasses.replace(CompileOptions.host_only(), enable_compile_cache=False)
    program = compile_source(source, options=options).program
    make_engine(program).run(params, arrays)
    return list(program.engine_plans.nests.values())


def test_a_guard_trip_writes_nothing():
    """``C[i] = A[i - 1]`` reads ``A[-1]`` at ``i = 0``; the guard must
    refuse the whole nest before ``B`` — the statement before it — is
    written, whichever body would have run."""
    rng = np.random.default_rng(4)
    arrays = {name: rng.random(6) for name in "ABC"}
    (plan,) = _planned(TRIPS_ON_THE_SECOND_STATEMENT, {"N": 6}, arrays)
    work = {name: array.copy() for name, array in arrays.items()}
    assert plan.kernel.run({"N": 6}, work) is False
    assert {n: a.tobytes() for n, a in work.items()} == {
        n: a.tobytes() for n, a in arrays.items()
    }


def test_the_c_body_copies_no_array():
    """The success path takes no snapshot: running a MEDIUM gemm nest on
    its C body allocates less than its smallest array."""
    if not native_available():
        pytest.skip("no C toolchain: the fold body runs")
    kernel = KERNELS["gemm"]
    params, arrays = kernel.params("MEDIUM"), kernel.arrays("MEDIUM", 1)
    (plan,) = _planned(kernel.source, params, arrays)
    assert plan.kernel.c_source
    tracemalloc.start()
    try:
        assert plan.kernel.run(params, arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < min(array.nbytes for array in arrays.values())


def _float64(arrays, params):
    return {name: array.astype(np.float64) for name, array in arrays.items()}, params


def _fortran_order(arrays, params):
    return {**arrays, "C": np.asfortranarray(arrays["C"])}, params


def _read_only(arrays, params):
    frozen = arrays["A"].copy()
    frozen.flags.writeable = False
    return {**arrays, "A": frozen}, params


@pytest.mark.parametrize("change", [
    _float64,
    _fortran_order,
    _read_only,
    lambda arrays, params: (arrays, {**params, "alpha": 2}),  # declared float
    lambda arrays, params: (arrays, {**params, "NI": np.int64(params["NI"])}),
], ids=["float64", "fortran-order", "read-only", "int-alpha", "numpy-int"])
def test_the_c_body_declines_what_it_was_not_compiled_for(change):
    """The C body is typed from the declarations; called with anything
    else it writes nothing and returns ``False``, and the kernel runs its
    fold body instead."""
    if not native_available():
        pytest.skip("no C toolchain: the fold body runs")
    kernel = KERNELS["gemm"]
    (plan,) = _planned(kernel.source, kernel.params("MINI"), kernel.arrays("MINI", 1))
    arrays, params = change(kernel.arrays("MINI", 2), kernel.params("MINI"))
    before = {name: array.tobytes() for name, array in arrays.items()}
    args = [arrays[name] for name in plan.kernel.arrays]
    args += [params[name] for name in plan.kernel.scalars]
    assert plan.kernel.native(*args) is False
    assert {name: array.tobytes() for name, array in arrays.items()} == before


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


def _kernels(source: str) -> list:
    options = dataclasses.replace(CompileOptions.host_only(), enable_compile_cache=False)
    result = compile_source(source, options=options)
    rng = np.random.default_rng(0)
    params = dict(zip(result.program.param_names, (5, 4)))
    arrays = {
        decl.name: rng.random(decl.extent(params)) for decl in result.program.arrays
    }
    reference = _run(result, params, arrays, "interpreter")
    _assert_same_run(reference, _run(result, params, arrays))
    plans = result.program.engine_plans.nests.values()
    assert all(plan.kernel is not None for plan in plans)
    return [plan.kernel for plan in plans]


#: What the C body may name besides generated locals: its prelude (the
#: clone macro, three helpers and their operands) and C's own words.
C_VOCABULARY = {
    "include", "stdint", "h", "static", "inline", "int64_t", "INT64_C", "void",
    "float", "double", "restrict", "for", "return", "kernel", "imin", "imax",
    "pymod", "a", "b", "r",
    "if", "defined", "__x86_64__", "__ELF__", "__has_attribute", "target_clones",
    "define", "VECTOR_CLONES", "__attribute__", "avx2", "default", "endif", "ifndef",
}


def test_emitted_source_contains_no_input_identifier():
    hostile, benign = _kernels(HOSTILE), _kernels(BENIGN)
    # Renaming every identifier of the input leaves both bodies alone…
    assert [k.source for k in hostile] == [k.source for k in benign]
    assert [k.c_source for k in hostile] == [k.c_source for k in benign]
    # …and what they do name is the emitters' own vocabulary: Python
    # keywords and helpers, C words, and generated locals (letter + serial).
    vocabulary = {
        "def", "kernel", "if", "not", "and", "or", "else", "for", "in", "return",
        "True", "False", "None", "isinstance", "ints", "ndim", "shape", "range",
        "ends", "arange", "reshape", "transpose", "min", "max", "pass", "native",
    }
    for kernel in hostile:
        for token in tokenize.generate_tokens(io.StringIO(kernel.source).readline):
            if token.type == tokenize.NAME and token.string not in vocabulary:
                assert token.string[0] in "acilmpv" and token.string[1:].isdigit(), token
        c_text = re.sub(r"-?0x[0-9a-f.]+p[-+]\d+", "", kernel.c_source)
        for name in re.findall(r"\b[A-Za-z_]\w*", c_text):
            assert name in C_VOCABULARY or (name[0] in "ainp" and name[1:].isdigit()), name


def test_hostile_names_run_on_their_c_body(monkeypatch):
    """Input names that are C's or the kernel's own (``arrays``, ``in``,
    ``np``) once made the C fail to compile, and the nest silently ran on
    its fold body."""
    if not native_available():
        pytest.skip("no C toolchain: the fold body runs")
    ran = spy_on_c_bodies(monkeypatch)
    kernels = _kernels(HOSTILE)
    assert all(kernel.c_source for kernel in kernels)
    assert ran and all(ran)


# ----------------------------------------------------------------------
# The C compile cache
# ----------------------------------------------------------------------
def test_compile_cache_keys_on_the_flags_and_remembers_failures(monkeypatch, tmp_path):
    if not native_available():
        pytest.skip("no C toolchain")
    compiles, run = [], native.subprocess.run
    monkeypatch.setattr(
        native.subprocess, "run", lambda *a, **k: compiles.append(a) or run(*a, **k)
    )
    monkeypatch.setattr(native, "_loaded", {})
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    prototype = "void kernel(int64_t p0)"
    good = f"#include <stdint.h>\n{prototype} {{ (void)p0; }}\n"
    assert native.compile_and_load(good, prototype) is not None
    assert native.compile_and_load(good, prototype) is not None
    assert len(compiles) == 1
    # Other flags are another object: nothing built with the old ones is reused.
    monkeypatch.setattr(native, "_CFLAGS", native._CFLAGS + ("-O1",))
    assert native.compile_and_load(good, prototype) is not None
    assert len(compiles) == 2 and len(list(tmp_path.glob("*.so"))) == 2
    # A failed compile is tried once per process, not once per program.
    broken = good.replace("(void)p0;", "syntax error")
    assert native.compile_and_load(broken, prototype) is None
    assert native.compile_and_load(broken, prototype) is None
    assert len(compiles) == 3


def test_a_cached_object_that_does_not_load_is_built_again(monkeypatch, tmp_path):
    """A truncated or corrupt ``<digest>.so`` once made every later process
    fall back to the fold body; it is set aside and rebuilt instead."""
    if not native_available():
        pytest.skip("no C toolchain")
    prototype = "void kernel(double *restrict a0, int64_t p0)"
    source = f"#include <stdint.h>\n{prototype} {{ a0[0] = (double)p0; }}\n"
    # Learn the object's name in another directory: a loaded object must
    # not be overwritten, and the loader would hand back one it holds.
    monkeypatch.setattr(native, "_loaded", {})
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "first"))
    assert native.compile_and_load(source, prototype) is not None
    (built,) = (tmp_path / "first").glob("*.so")
    cache = tmp_path / "second"
    cache.mkdir()
    (cache / built.name).write_bytes(b"\x7fELF truncated")
    monkeypatch.setattr(native, "_loaded", {})  # a fresh process
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    ffi, lib = native.compile_and_load(source, prototype)
    out = np.zeros(1)
    lib.kernel(ffi.from_buffer("double[]", out), 7)
    assert out[0] == 7.0
    assert (cache / built.name).stat().st_size > 100
    assert (cache / f"{built.name}.corrupt").read_bytes() == b"\x7fELF truncated"
