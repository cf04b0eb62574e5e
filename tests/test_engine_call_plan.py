"""A run with given params replays a plan.

The fast engine keeps, per program, what a run with the last params
would otherwise work out again: each array's shape and dtype and each
top-level runtime call bound to numbers; each nest keeps its trace delta
for the last values its bounds read.  These tests pin that the replay is
invisible: a hand-built program that exercises every way out of the plan
runs identically on both engines; a program shared by executors on
different systems keeps each system's work on that system; other params
plan again; and every call a compiled program makes at top level binds.
"""

from __future__ import annotations

import dataclasses
import math
import re
from contextlib import ExitStack

import numpy as np
import pytest

from repro import CompileOptions, OffloadExecutor, compile_source
from repro.codegen.executor import ExecutorError
from repro.codegen.runtime_calls import (
    ALL_RUNTIME_CALLS,
    CIM_DEV_TO_HOST,
    CIM_FREE,
    CIM_GEMV,
    CIM_HOST_TO_DEV,
    CIM_INIT,
    CIM_MALLOC,
    CopyCallArgs,
    InitCallArgs,
    KernelCallArgs,
    MallocCallArgs,
)
from repro.ir import ArrayDecl, Assign, Block, CallStmt, Loop, ParamDecl, Program
from repro.ir.expr import ArrayRef, FloatConst, IntConst, ParamRef, VarRef
from repro.ir.interp import InterpreterError
from repro.ir.types import ElementType
from repro.system import CimSystem, SystemConfig
from repro.tactics.patterns import KERNEL_SPECS
from repro.workloads.polybench import KERNELS

GEMV = next(spec for spec in KERNEL_SPECS if spec.entry == "sgemv")


def _call(callee: str, payload) -> CallStmt:
    return CallStmt(callee, [payload])


def hand_built_program() -> Program:
    """``y += alpha * A @ x`` on the device T times, from a loop; a malloc
    sized by a param the program reassigns first; then a triangular host
    nest, ``L = beta * A`` on and below the diagonal.

    ``P`` arrives as 1 and becomes ``N * N`` before ``cim_A`` is
    allocated, so a malloc bound to the param's value would be too small
    for ``A``.
    """
    N, T, P = ParamRef("N"), ParamRef("T"), ParamRef("P")
    i, j = VarRef("i"), VarRef("j")
    four = IntConst(4)
    gemv = KernelCallArgs(
        GEMV.entry,
        tuple(zip(GEMV.layout, (False, N, N, ParamRef("alpha"), "cim_A", N, "cim_x",
                                FloatConst(1.0), "cim_y"))),
        {"y": "y", "A": "A", "x": "x"},
        GEMV.stationary,
    )
    body = Block([
        _call(CIM_INIT, InitCallArgs(0)),
        Assign(VarRef("P"), N * N),
        _call(CIM_MALLOC, MallocCallArgs("cim_A", "A", four * P)),
        _call(CIM_HOST_TO_DEV, CopyCallArgs("cim_A", "A", four * P)),
        _call(CIM_MALLOC, MallocCallArgs("cim_x", "x", four * N)),
        _call(CIM_HOST_TO_DEV, CopyCallArgs("cim_x", "x", four * N)),
        _call(CIM_MALLOC, MallocCallArgs("cim_y", "y", four * N)),
        _call(CIM_HOST_TO_DEV, CopyCallArgs("cim_y", "y", four * N)),
        Loop("t", IntConst(0), T, Block([_call(CIM_GEMV, gemv)])),
        _call(CIM_DEV_TO_HOST, CopyCallArgs("cim_y", "y", four * N)),
        _call(CIM_FREE, "cim_x"),
        Loop("i", IntConst(0), N, Block([
            Loop("j", IntConst(0), i + 1, Block([
                Assign(ArrayRef("L", (i, j)), ParamRef("beta") * ArrayRef("A", (i, j))),
            ])),
        ])),
    ])
    return Program(
        name="call_plan",
        params=[
            ParamDecl("N"), ParamDecl("T"), ParamDecl("P"),
            ParamDecl("alpha", ElementType.F32), ParamDecl("beta", ElementType.F32),
        ],
        arrays=[
            ArrayDecl("A", ("N", "N")), ArrayDecl("x", ("N",)), ArrayDecl("y", ("N",)),
            ArrayDecl("L", ("N", "N")),
        ],
        body=body,
    )


PARAMS = {"N": 6, "T": 3, "P": 1, "alpha": 2.0, "beta": 0.5}


def _inputs(n: int = PARAMS["N"]) -> dict:
    rng = np.random.default_rng(7)
    return {
        "A": rng.integers(0, 4, size=(n, n)).astype(np.float32),
        "x": rng.integers(0, 4, size=n).astype(np.float32),
        "y": rng.integers(0, 4, size=n).astype(np.float32),
        "L": np.zeros((n, n), dtype=np.float32),
    }


def _assert_same_run(a, b):
    (out_a, report_a), (out_b, report_b) = a, b
    assert out_a.keys() == out_b.keys()
    for name in out_a:
        assert out_a[name].dtype == out_b[name].dtype
        np.testing.assert_array_equal(out_a[name], out_b[name])
    assert report_a == report_b  # every field, host estimate included


# ----------------------------------------------------------------------
# Both engines, every way out of the plan
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["interpreter", "fast"])
def test_hand_built_program_runs_identically_on_both_engines(engine):
    """Three runs on one executor, each against the same run of a
    reference executor on a program of its own."""
    program, arrays = hand_built_program(), _inputs()
    executor, reference = OffloadExecutor(engine=engine), OffloadExecutor(engine="interpreter")
    for _ in range(3):
        run = executor.run(program, PARAMS, arrays)
        _assert_same_run(reference.run(hand_built_program(), PARAMS, arrays), run)
    outputs, report = run
    A, x, y = arrays["A"], arrays["x"], arrays["y"]
    # Small integers: the device's GEMVs are exact here.
    np.testing.assert_array_equal(outputs["y"], y + PARAMS["T"] * PARAMS["alpha"] * (A @ x))
    np.testing.assert_array_equal(outputs["L"], np.tril(PARAMS["beta"] * A))
    np.testing.assert_array_equal(outputs["A"], A)
    assert report.runtime_calls == [
        CIM_INIT,
        *[CIM_MALLOC, CIM_HOST_TO_DEV] * 3,
        *[CIM_GEMV] * PARAMS["T"],
        CIM_DEV_TO_HOST,
        CIM_FREE,
    ]
    assert report.gemv_count > 0 and report.offload_instructions > 0
    # 21 stores in the triangle; 6 + 21 iterations of its loops and the
    # call loop's 3; a multiply per store and one for ``P = N * N``.
    host = report.host_estimate
    assert host.stores == 21
    assert host.branches == 6 + 21 + 3
    assert host.flops == 21 + 1


def test_only_calls_fixed_by_the_params_are_bound_into_the_plan():
    program = hand_built_program()
    executor = OffloadExecutor()
    executor.run(program, PARAMS, _inputs())
    _, plan = program.engine_plans.run
    kinds = [type(step).__name__ for step in plan.steps]
    # The malloc sized by the reassigned P, and the loop of calls, stay
    # statements: the call handler binds them again on every run.
    assert kinds == [
        "CallStep", "Assign", "CallStmt", "CallStep", "CallStep", "CallStep", "CallStep",
        "CallStep", "Loop", "CallStep", "CallStep", "Loop",
    ]
    assert plan.steps[2] is program.body.stmts[2]


def test_every_top_level_call_of_a_compiled_program_is_bound_into_the_plan():
    """Offloaded PolyBench programs between them emit every callee but
    ``cimFree`` (the hand-built program's) at top level, and each such
    call binds; a binder that raised would leave a ``CallStmt``."""
    callees = {CIM_FREE}
    options = dataclasses.replace(CompileOptions(), enable_compile_cache=False)
    for name in ("2mm", "3mm", "atax", "conv"):
        kernel = KERNELS[name]
        program = compile_source(kernel.source, options, size_hint=kernel.params("MEDIUM")).program
        OffloadExecutor().run(program, kernel.params("MINI"), kernel.arrays("MINI", 1))
        _, plan = program.engine_plans.run
        for stmt, step in zip(program.body.stmts, plan.steps):
            if isinstance(stmt, CallStmt):
                assert type(step).__name__ == "CallStep", (name, stmt.callee)
                callees.add(stmt.callee)
    assert callees == set(ALL_RUNTIME_CALLS)


@pytest.mark.parametrize("engine", ["interpreter", "fast"])
def test_an_unknown_callee_fails_where_it_runs(engine):
    """The first malloc before it has run, on every run: the plan binds
    the call to a failure, it does not fail to plan."""
    program = hand_built_program()
    program.body.stmts.insert(4, _call("polly_cimUnknown", None))
    executor = OffloadExecutor(engine=engine)
    for runs in (1, 2):
        with pytest.raises(ExecutorError, match="unknown runtime call 'polly_cimUnknown'"):
            executor.run(program, PARAMS, _inputs())
        assert executor.system.runtime.live_buffers == runs


@pytest.mark.parametrize("engine", ["interpreter", "fast"])
def test_a_planned_run_checks_and_copies_its_inputs(engine):
    """The plan's cached shapes serve the same checks, with the same
    messages, and the inputs are still copied."""
    program, arrays = hand_built_program(), _inputs()
    executor = OffloadExecutor(engine=engine)
    outputs, _ = executor.run(program, PARAMS, arrays)  # plans, on "fast"
    assert not any(outputs[name] is arrays[name] for name in arrays)
    missing_param = {name: value for name, value in PARAMS.items() if name != "T"}
    with pytest.raises(InterpreterError, match=re.escape("missing parameter bindings: ['T']")):
        executor.run(program, missing_param, arrays)
    with pytest.raises(InterpreterError, match="missing array binding 'x'"):
        executor.run(program, PARAMS, {k: v for k, v in arrays.items() if k != "x"})
    short = {**arrays, "x": arrays["x"][:-1]}
    with pytest.raises(InterpreterError, match=re.escape("'x' has shape (5,), expected (6,)")):
        executor.run(program, PARAMS, short)
    before = {name: array.copy() for name, array in arrays.items()}
    executor.run(program, PARAMS, arrays)
    for name in arrays:
        np.testing.assert_array_equal(arrays[name], before[name])


# ----------------------------------------------------------------------
# One program, several systems
# ----------------------------------------------------------------------
def test_executors_on_different_systems_share_a_program_and_not_their_work():
    """Runs of one program on 1- and 4-tile systems, interleaved, each
    against a twin executor that runs a private copy in lockstep."""
    kernel = KERNELS["gesummv"]
    params, arrays = kernel.params("MINI"), kernel.arrays("MINI", seed=2)
    options = dataclasses.replace(CompileOptions(), enable_compile_cache=False)
    shared = compile_source(kernel.source, options).program

    def executors():
        return [OffloadExecutor(CimSystem(SystemConfig(num_tiles=n))) for n in (1, 4)]

    sharing, private = executors(), executors()
    plans = set()
    with ExitStack() as stack:
        runs = [stack.enter_context(e.system.accelerator.on_run.collect()) for e in sharing]
        for _ in range(3):
            for mine, (executor, twin) in enumerate(zip(sharing, private)):
                completed = [len(ran) for ran in runs]
                run = executor.run(shared, params, arrays)
                _assert_same_run(twin.run(shared.clone(), params, arrays), run)
                after = [len(ran) for ran in runs]
                assert after[mine] > completed[mine]
                assert after[1 - mine] == completed[1 - mine]
                plans.add(id(shared.engine_plans.run[1]))
    assert len(plans) == 1


# ----------------------------------------------------------------------
# Which params a plan serves
# ----------------------------------------------------------------------
def test_a_program_keeps_the_last_params_plan_keyed_by_value_and_type():
    """A run with other params than the last plans again, and runs as the
    interpreter runs it."""
    program = hand_built_program()
    executor, reference = OffloadExecutor(), OffloadExecutor(engine="interpreter")

    def plan_after(params):
        n = int(params["N"])
        _assert_same_run(
            reference.run(program, params, _inputs(n)), executor.run(program, params, _inputs(n))
        )
        return program.engine_plans.run[1]

    for n in (*range(1, 51), 1):
        plan_after({**PARAMS, "N": n})
        assert ("N", int, repr(n)) in program.engine_plans.run[0]
    (nest,) = [plan for plan in program.engine_plans.nests.values() if plan is not None]
    assert nest.bound_vars == ("N",) and nest.delta[0] == (1,)
    plans = [
        plan_after({**PARAMS, **changed})
        for changed in ({"N": 8}, {"N": 8}, {"N": 8.0},
                        # a bound call passes alpha on, sign and all
                        {"alpha": 0.0}, {"alpha": -0.0})
    ]
    assert plans[0] is plans[1]
    assert len({id(plan) for plan in plans[1:]}) == 4


def test_a_nan_param_runs_as_the_interpreter_runs_it():
    program = hand_built_program()
    params = {**PARAMS, "beta": math.nan}
    runs = [
        OffloadExecutor(engine=engine).run(program, params, _inputs())
        for engine in ("interpreter", "fast", "fast")
    ]
    for run in runs[1:]:
        _assert_same_run(runs[0], run)
    assert np.isnan(runs[-1][0]["L"][0, 0])


# ----------------------------------------------------------------------
# What the plan stores
# ----------------------------------------------------------------------
def test_a_copied_back_array_is_private():
    """``cim_dev_to_host`` returns a fresh array and the executor stores it
    as it is; the C bodies take arrays ``restrict``, so no array the engine
    holds may share memory with the device's memory or another array."""
    executor, arrays = OffloadExecutor(), _inputs()
    outputs, _ = executor.run(hand_built_program(), PARAMS, arrays)
    memory = executor.system.memory
    device = memory.view(0, memory.size_bytes)
    held = list(outputs.values())
    for index, array in enumerate(held):
        assert array.flags.c_contiguous and array.flags.writeable
        assert not np.shares_memory(array, device)
        for other in held[index + 1:] + list(arrays.values()):
            assert not np.shares_memory(array, other)


def test_a_nest_delta_follows_the_scalars_its_bounds_read():
    """A nest whose bound reads a scalar the program loads from an array:
    the same params, different data, different trip counts."""
    i, m = VarRef("i"), VarRef("m")
    program = Program(
        name="data_bound",
        params=[ParamDecl("N")],
        arrays=[ArrayDecl("K", (1,), ElementType.I32), ArrayDecl("v", ("N",))],
        body=Block([
            Assign(m, ArrayRef("K", (IntConst(0),))),
            Loop("i", IntConst(0), m, Block([
                Assign(ArrayRef("v", (i,)), FloatConst(1.0), reduction="+"),
            ])),
        ]),
    )
    executor, reference = OffloadExecutor(), OffloadExecutor(engine="interpreter")
    for count in (3, 5, 5, 2):
        arrays = {"K": np.array([count], dtype=np.int32), "v": np.zeros(8, dtype=np.float32)}
        run = executor.run(program, {"N": 8}, arrays)
        _assert_same_run(reference.run(program, {"N": 8}, arrays), run)
        assert run[1].host_estimate.stores == count
    nest = program.engine_plans.nests[id(program.body.stmts[1])]
    assert nest.bound_vars == ("m",) and nest.delta[0] == (2,)
