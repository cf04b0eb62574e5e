"""Tests for dependence analysis."""

import pytest

from repro.frontend import parse_program
from repro.ir.normalize import normalize_reductions
from repro.poly import compute_dependences, detect_scops
from repro.poly.dependence import DependenceKind, kernels_independent, nest_permutable


def _scop(source):
    return detect_scops(normalize_reductions(parse_program(source)))[0]


def test_gemm_reduction_has_zero_distance_self_dependence(gemm_scop):
    deps = compute_dependences(gemm_scop)
    update = gemm_scop.statements[1].name
    self_flow = [
        d for d in deps
        if d.source == update and d.target == update and d.kind is DependenceKind.FLOW
    ]
    assert self_flow
    assert all(d.distance == (0, 0, 0) for d in self_flow)
    assert all(d.is_loop_independent for d in self_flow)


def test_init_to_update_flow_dependence(gemm_scop):
    init, update = (s.name for s in gemm_scop.statements)
    deps = compute_dependences(gemm_scop)
    assert any(
        d.source == init and d.target == update and d.kind is DependenceKind.FLOW
        for d in deps
    )


def test_loop_carried_dependence_distance():
    scop = _scop(
        """
        void f(int N, float A[N]) {
          for (int i = 1; i < N; i++)
            A[i] = A[i - 1] + 1.0;
        }
        """
    )
    deps = compute_dependences(scop)
    flow = [d for d in deps if d.kind is DependenceKind.FLOW]
    assert flow
    carried = [d for d in flow if d.distance is not None and any(d.distance)]
    assert carried
    assert carried[0].carried_by() == "i"


def test_disjoint_constant_subscripts_have_no_dependence():
    scop = _scop(
        """
        void f(int N, float A[N][4]) {
          for (int i = 0; i < N; i++) {
            A[i][0] = 1.0;
            A[i][1] = 2.0;
          }
        }
        """
    )
    deps = compute_dependences(scop)
    cross = [
        d for d in deps
        if d.source != d.target and d.distance is not None
    ]
    assert cross == []


@pytest.mark.parametrize(
    "write, read, distance",
    [
        # i + j against i + j + 1: no subscript pins i or j, so the true
        # distance (1, -1) is unknown to the test, not zero.
        ("D[i + j]", "D[i + j + 1]", None),
        # The single-variable subscripts pin (1, 0), which satisfies the
        # i + j subscript's equation.
        ("D[i][j][i + j]", "D[i - 1][j][i + j - 1]", (1, 0)),
        # The pinned (1, 0) contradicts it: unknown, not zero.
        ("D[i][j][i + j]", "D[i - 1][j][i + j]", None),
    ],
)
def test_multi_variable_subscripts_pin_nothing(write, read, distance):
    scop = _scop(
        f"""
        void f(int N, float D{"[2 * N]" * write.count("[")}) {{
          for (int i = 1; i < N; i++)
            for (int j = 1; j < N; j++)
              {write} = {read} + 1.0;
        }}
        """
    )
    deps = [d for d in compute_dependences(scop) if d.kind is not DependenceKind.OUTPUT]
    assert {d.distance for d in deps} == {distance}


def test_read_read_is_not_a_dependence():
    scop = _scop(
        """
        void f(int N, float A[N], float B[N], float C[N]) {
          for (int i = 0; i < N; i++) {
            B[i] = A[i];
            C[i] = A[i];
          }
        }
        """
    )
    deps = compute_dependences(scop)
    assert not any(d.array == "A" for d in deps)


def test_kernels_independent_positive(two_gemms_source):
    scop = _scop(two_gemms_source)
    first = next(s for s in scop.statements if "C" in s.write_arrays())
    second = next(s for s in scop.statements if "D" in s.write_arrays())
    assert kernels_independent(first, second)


def test_kernels_not_independent_when_output_consumed():
    scop = _scop(
        """
        void f(int N, float C[N][N], float D[N][N], float A[N][N], float B[N][N]) {
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < N; k++)
                C[i][j] += A[i][k] * B[k][j];
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < N; k++)
                D[i][j] += C[i][k] * B[k][j];
        }
        """
    )
    first = next(s for s in scop.statements if "C" in s.write_arrays())
    second = next(s for s in scop.statements if "D" in s.write_arrays())
    assert not kernels_independent(first, second)


def test_kernels_not_independent_when_input_overwritten():
    scop = _scop(
        """
        void f(int N, float C[N][N], float A[N][N], float B[N][N]) {
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < N; k++)
                C[i][j] += A[i][k] * B[k][j];
          for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
              A[i][j] = 0.0;
        }
        """
    )
    first = next(s for s in scop.statements if "C" in s.write_arrays())
    second = next(s for s in scop.statements if s.write_arrays() == {"A"})
    assert not kernels_independent(first, second)


def test_gemm_nest_is_fully_permutable(gemm_scop):
    update = gemm_scop.statements[1]
    assert nest_permutable(gemm_scop, update.name, update.loop_vars)


def test_recurrence_nest_is_not_permutable():
    scop = _scop(
        """
        void f(int N, float A[N][N]) {
          for (int i = 1; i < N; i++)
            for (int j = 1; j < N; j++)
              A[i][j] = A[i - 1][j] + A[i][j - 1];
        }
        """
    )
    stmt = scop.statements[0]
    # Distances are non-negative (1,0) and (0,1): still permutable in the
    # classic sense; but a negative-distance example must not be.
    assert nest_permutable(scop, stmt.name, stmt.loop_vars)

    scop2 = _scop(
        """
        void f(int N, float A[N][N]) {
          for (int i = 1; i < N; i++)
            for (int j = 0; j < N - 1; j++)
              A[i][j] = A[i - 1][j + 1] + 1.0;
        }
        """
    )
    stmt2 = scop2.statements[0]
    assert not nest_permutable(scop2, stmt2.name, stmt2.loop_vars)
