"""Unit tests for the engine's plan analysis and edge cases."""


import numpy as np
import pytest

from repro.frontend import parse_program
from repro.ir import (
    ArrayDecl,
    Block,
    Interpreter,
    Loop,
    Program,
    VectorizedEngine,
    make_engine,
)
from repro.ir.engine.analysis import PlanAssign, PlanLoop, plan_nest
from repro.ir.expr import ArrayRef, IntConst, Min, ParamRef, VarRef
from repro.ir.normalize import normalize_reductions
from repro.ir.program import ParamDecl
from repro.ir.stmt import Assign, CallStmt
from repro.ir.types import ElementType


def _both_engines(program, params, arrays):
    interp = Interpreter(program)
    out_i = interp.run(params, arrays)
    engine = VectorizedEngine(program)
    out_v = engine.run(params, arrays)
    return interp, out_i, engine, out_v


def _assert_identical(program, params, arrays):
    interp, out_i, engine, out_v = _both_engines(program, params, arrays)
    for name in out_i:
        np.testing.assert_array_equal(out_i[name], out_v[name])
    assert interp.trace == engine.trace
    # Every edge case of this file also runs on a second fast engine,
    # which shares the plan the first one just built.
    again = make_engine(program, engine="fast")
    out_again = again.run(params, arrays)
    for name in out_i:
        np.testing.assert_array_equal(out_i[name], out_again[name], err_msg="shared plan")
    assert interp.trace == again.trace
    return engine


# ----------------------------------------------------------------------
# Plan structure
# ----------------------------------------------------------------------
def test_gemm_plan_distributes_and_classifies(gemm_program):
    root = gemm_program.top_level_loops()[0]
    plan = plan_nest(root)[0]
    assert plan is not None
    # Maximal distribution: the init statement and the reduction separate
    # all the way to the top, and both i/j loops vectorize around them.
    assert len(plan.nodes) == 2
    i_init, i_update = plan.nodes
    assert isinstance(i_init, PlanLoop) and i_init.vec
    assert isinstance(i_update, PlanLoop) and i_update.vec
    (j_init,) = i_init.body
    assert isinstance(j_init, PlanLoop) and j_init.vec
    (init_stmt,) = j_init.body
    assert isinstance(init_stmt, PlanAssign)
    (j_update,) = i_update.body
    assert isinstance(j_update, PlanLoop) and j_update.vec
    (k_loop,) = j_update.body
    assert isinstance(k_loop, PlanLoop) and not k_loop.vec  # reduction axis


def test_bicg_plan_splits_the_two_products():
    source = """
    void bicg(int N, int M, float A[N][M], float s[M], float q[N],
              float p[M], float r[N]) {
      for (int i = 0; i < N; i++) {
        q[i] = 0.0;
        for (int j = 0; j < M; j++) {
          s[j] = s[j] + r[i] * A[i][j];
          q[i] = q[i] + A[i][j] * p[j];
        }
      }
    }
    """
    program = parse_program(source)
    root = program.top_level_loops()[0]
    plan = plan_nest(root)[0]
    assert plan is not None
    # q-init distributes away from the j loop, and the j loop splits into
    # the s-update (j vectorized) and the q-update (i vectorized).
    assert len(plan.nodes) == 3
    init_i, s_i, q_i = plan.nodes
    assert init_i.vec  # for i: q[i] = 0 → one vector op
    assert not s_i.vec and s_i.body[0].vec  # s: i sequential, j vectorized
    assert q_i.vec and not q_i.body[0].vec  # q: i vectorized, j sequential


def test_call_statement_forces_fallback(gemm_program):
    root = gemm_program.top_level_loops()[0]
    root.body.stmts.append(CallStmt("mystery", []))
    assert plan_nest(root) == (None, "unsupported statement (CallStmt)")


def test_scalar_accumulator_forces_fallback():
    source = """
    void dot(int N, float A[N], float B[N], float out[1]) {
      for (int i = 0; i < N; i++)
        out[0] = out[0] + A[i] * B[i];
    }
    """
    program = parse_program(source)
    root = program.top_level_loops()[0]
    plan = plan_nest(root)[0]
    # out[0] carries no loop variable → i cannot vectorize → no plan.
    assert plan is None
    params = {"N": 37}
    arrays = {
        "A": np.linspace(0, 1, 37, dtype=np.float32),
        "B": np.linspace(1, 2, 37, dtype=np.float32),
        "out": np.zeros(1, dtype=np.float32),
    }
    _assert_identical(program, params, arrays)


def test_loop_carried_stencil_stays_sequential():
    source = """
    void scan(int N, float A[N]) {
      for (int i = 1; i < N; i++)
        A[i] = A[i - 1] + A[i];
    }
    """
    program = parse_program(source)
    assert plan_nest(program.top_level_loops()[0])[0] is None
    arrays = {"A": np.arange(10, dtype=np.float32)}
    _assert_identical(program, {"N": 10}, arrays)


def test_independent_stencil_vectorizes():
    source = """
    void blur(int N, float A[N], float B[N]) {
      for (int i = 1; i < N - 1; i++)
        A[i] = B[i - 1] + B[i] + B[i + 1];
    }
    """
    program = parse_program(source)
    plan = plan_nest(program.top_level_loops()[0])[0]
    assert plan is not None and plan.nodes[0].vec
    rng = np.random.default_rng(0)
    arrays = {
        "A": np.zeros(33, dtype=np.float32),
        "B": rng.random(33, dtype=np.float32),
    }
    _assert_identical(program, {"N": 33}, arrays)


# ----------------------------------------------------------------------
# Edge-case semantics
# ----------------------------------------------------------------------
def test_triangular_nest_matches_interpreter():
    source = """
    void tri(int N, float C[N][N], float B[N][N]) {
      for (int i = 0; i < N; i++)
        for (int j = i; j < N; j++)
          C[i][j] = 2.0 * B[i][j];
    }
    """
    program = parse_program(source)
    plan = plan_nest(program.top_level_loops()[0])[0]
    # i is referenced by the j bounds → i sequential, j vectorized.
    assert plan is not None
    assert not plan.nodes[0].vec
    assert plan.nodes[0].body[0].vec
    rng = np.random.default_rng(1)
    n = 19
    arrays = {
        "C": np.zeros((n, n), dtype=np.float32),
        "B": rng.random((n, n), dtype=np.float32),
    }
    _assert_identical(program, {"N": n}, arrays)


def test_interleaved_groups_keep_program_order():
    """Regression: loop distribution must not hoist a statement above a
    same-iteration producer when an interleaved conflict group would
    otherwise be emitted first."""
    source = """
    void mix(int N, float T[N], float U[N], float X[N], float A[N]) {
      for (int i = 0; i < N; i++) {
        T[i] = U[i];
        X[i] = 7.0;
        A[i] = T[0] + X[i];
      }
    }
    """
    program = parse_program(source)
    arrays = {
        "T": np.zeros(4, dtype=np.float32),
        "U": np.arange(4, dtype=np.float32),
        "X": np.zeros(4, dtype=np.float32),
        "A": np.zeros(4, dtype=np.float32),
    }
    _, out_i, _, out_v = _both_engines(program, {"N": 4}, arrays)
    np.testing.assert_array_equal(out_i["A"], np.full(4, 7.0, dtype=np.float32))
    for name in out_i:
        np.testing.assert_array_equal(out_i[name], out_v[name])


def test_statement_beside_triangular_loop_counts_exactly():
    """Regression: an assignment directly inside an enumerated loop (one
    whose variable appears in deeper bounds) must be counted once per
    iteration, not once per loop entry."""
    source = """
    void mixed(int N, float A[N], float B[N][N]) {
      for (int i = 0; i < N; i++) {
        A[i] = 1.0;
        for (int j = 0; j < i; j++)
          B[i][j] = 2.0;
      }
    }
    """
    program = parse_program(source)
    arrays = {
        "A": np.zeros(6, dtype=np.float32),
        "B": np.zeros((6, 6), dtype=np.float32),
    }
    engine = _assert_identical(program, {"N": 6}, arrays)
    assert engine.nest_plan(program.top_level_loops()[0]) is not None
    assert engine.trace.statements_executed == 6 + 15  # A[i] + triangular B


def test_strided_loop_matches_interpreter():
    program = parse_program(
        """
        void strided(int N, float A[N]) {
          for (int i = 0; i < N; i++)
            A[i] = 1.0;
        }
        """
    )
    loop = program.top_level_loops()[0]
    loop.step = 3
    arrays = {"A": np.zeros(20, dtype=np.float32)}
    engine = _assert_identical(program, {"N": 20}, arrays)
    assert engine.nest_plan(loop) is not None


def test_min_bound_tiled_nest_matches_interpreter():
    """Hand-built tiled loop (min upper bounds, as emitted by tiling)."""
    n_param = ParamRef("N")
    body = Block(
        [
            Assign(
                ArrayRef("A", (VarRef("i"),)),
                ArrayRef("B", (VarRef("i"),)) * 3.0,
            )
        ]
    )
    inner = Loop("i", VarRef("it"), Min(VarRef("it") + 4, n_param), body)
    outer = Loop("it", IntConst(0), n_param, Block([inner]), step=4)
    program = Program(
        name="tiled_copy",
        params=[ParamDecl("N", ElementType.I32)],
        arrays=[
            ArrayDecl("A", ("N",), ElementType.F32),
            ArrayDecl("B", ("N",), ElementType.F32),
        ],
        body=Block([outer]),
    )
    rng = np.random.default_rng(2)
    arrays = {
        "A": np.zeros(23, dtype=np.float32),
        "B": rng.random(23, dtype=np.float32),
    }
    _assert_identical(program, {"N": 23}, arrays)


def test_empty_iteration_space_matches_interpreter(gemm_program):
    params = {"M": 0, "N": 4, "K": 4, "alpha": 1.0, "beta": 0.0}
    arrays = {
        "A": np.zeros((0, 4), dtype=np.float32),
        "B": np.zeros((4, 4), dtype=np.float32),
        "C": np.zeros((0, 4), dtype=np.float32),
    }
    _assert_identical(gemm_program, params, arrays)


def test_float_valued_size_params_match_interpreter():
    """Regression: a float-valued size parameter mixed into a subscript
    must truncate like the interpreter's int() cast, not crash."""
    source = """
    void rev(int N, float A[N], float B[N]) {
      for (int i = 0; i < N; i++)
        A[N - 1 - i] = B[i];
    }
    """
    program = parse_program(source)
    rng = np.random.default_rng(6)
    arrays = {
        "A": np.zeros(8, dtype=np.float32),
        "B": rng.random(8, dtype=np.float32),
    }
    _assert_identical(program, {"N": 8.0}, arrays)  # note the float param


def test_integer_arrays_match_interpreter():
    source = """
    void ints(int N, int A[N][N], int B[N][N]) {
      for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
          A[i][j] = B[i][j] * 3 - i + j;
    }
    """
    program = parse_program(source)
    rng = np.random.default_rng(3)
    n = 9
    arrays = {
        "A": np.zeros((n, n), dtype=np.int32),
        "B": rng.integers(-50, 50, size=(n, n)).astype(np.int32),
    }
    _assert_identical(program, {"N": n}, arrays)


def test_normalized_reduction_matches_interpreter(gemm_source):
    program = normalize_reductions(parse_program(gemm_source))
    rng = np.random.default_rng(4)
    params = {"M": 13, "N": 11, "K": 17, "alpha": 1.5, "beta": 0.5}
    arrays = {
        "A": rng.random((13, 17), dtype=np.float32),
        "B": rng.random((17, 11), dtype=np.float32),
        "C": rng.random((13, 11), dtype=np.float32),
    }
    _assert_identical(program, params, arrays)


def test_fast_mode_broadcast_reduction_falls_back_to_exact():
    """A reduction whose rhs misses an output variable (broadcast over j)
    stays bit-identical on the fold path."""
    source = """
    void bcast(int N, float C[N][N], float A[N][N]) {
      for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
          for (int k = 0; k < N; k++)
            C[i][j] += 2.0 * A[i][k];
    }
    """
    program = normalize_reductions(parse_program(source))
    rng = np.random.default_rng(8)
    n = 7
    arrays = {
        "C": np.zeros((n, n), dtype=np.float32),
        "A": rng.random((n, n), dtype=np.float32),
    }
    ref = Interpreter(program).run({"N": n}, arrays)
    fast = VectorizedEngine(program)
    out = fast.run({"N": n}, arrays)
    np.testing.assert_array_equal(out["C"], ref["C"])


def test_engine_modes_validation():
    from repro.ir import make_engine

    program = parse_program(
        "void f(int N, float A[N]) { for (int i = 0; i < N; i++) A[i] = 0.0; }"
    )
    with pytest.raises(ValueError):
        make_engine(program, engine="magic")
    from repro import ENGINE_MODES

    assert ENGINE_MODES == ("interpreter", "fast")
    # "native" was a second name for "fast"; the error names the one left.
    with pytest.raises(ValueError, match="'fast'"):
        make_engine(program, engine="native")
    with pytest.raises(ValueError):
        make_engine(program, engine="vectorized")
    with pytest.raises(TypeError):
        VectorizedEngine(program, fold=True)
    from repro import OffloadExecutor

    with pytest.raises(ValueError):
        OffloadExecutor(engine="magic")
