"""Tests for SCoP detection."""

import pytest

import repro.poly.scop as scop_module
from repro.frontend import parse_program
from repro.ir.normalize import normalize_reductions
from repro.poly import detect_scops
from repro.workloads.polybench import KERNELS


def test_gemm_is_one_scop_with_two_statements(gemm_program):
    scops = detect_scops(gemm_program)
    assert len(scops) == 1
    assert len(scops[0].statements) == 2
    assert len(scops[0].nests) == 1


def test_consecutive_nests_grouped_into_one_scop(two_gemms_source):
    program = normalize_reductions(parse_program(two_gemms_source))
    scops = detect_scops(program)
    assert len(scops) == 1
    assert len(scops[0].nests) == 2
    nest_indices = {s.nest_index for s in scops[0].statements}
    assert nest_indices == {0, 1}


def test_non_affine_subscript_breaks_scop():
    source = """
    void f(int N, float A[N], float B[N]) {
      for (int i = 0; i < N; i++)
        A[i * i] = B[i];
    }
    """
    program = parse_program(source)
    assert detect_scops(program) == []


def test_indirect_access_breaks_scop():
    source = """
    void f(int N, float A[N], float B[N], int idx[N]) {
      for (int i = 0; i < N; i++)
        A[i] = B[idx[i]];
    }
    """
    program = parse_program(source)
    assert detect_scops(program) == []


def test_scalar_write_breaks_scop():
    source = """
    void f(int N, float A[N]) {
      for (int i = 0; i < N; i++)
        t = A[i];
    }
    """
    program = parse_program(source)
    assert detect_scops(program) == []


def test_loop_reusing_an_enclosing_variable_breaks_scop():
    source = """
    void f(int N, float A[N][N]) {
      for (int i = 0; i < N; i++)
        for (int i = 0; i < N; i++)
          A[i][i] = 0.0;
    }
    """
    assert detect_scops(parse_program(source)) == []


def test_affine_and_non_affine_nests_split_scops():
    source = """
    void f(int N, float A[N], float B[N]) {
      for (int i = 0; i < N; i++)
        A[i] = B[i];
      for (int i = 0; i < N; i++)
        A[i * i] = B[i];
      for (int i = 0; i < N; i++)
        B[i] = A[i];
    }
    """
    program = parse_program(source)
    scops = detect_scops(program)
    assert len(scops) == 2
    assert all(len(s.nests) == 1 for s in scops)


def test_scop_read_and_write_sets(gemm_scop):
    assert gemm_scop.arrays_written() == {"C"}
    assert gemm_scop.arrays_read() == {"A", "B", "C"}


def test_domain_of_innermost_statement(gemm_scop):
    update = gemm_scop.statements[1]
    assert update.domain.var_names == ("i", "j", "k")
    assert update.domain.cardinality({"M": 2, "N": 3, "K": 4}) == 24


def test_statement_lookup_by_name(gemm_scop):
    name = gemm_scop.statements[0].name
    assert gemm_scop.statement(name) is gemm_scop.statements[0]
    with pytest.raises(KeyError):
        gemm_scop.statement("does_not_exist")


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_accesses_are_converted_once_per_scop_statement(kernel, monkeypatch):
    converted = []
    convert = scop_module.accesses_of_statement

    def spy(stmt, *args):
        converted.append(stmt.name)
        return convert(stmt, *args)

    monkeypatch.setattr(scop_module, "accesses_of_statement", spy)
    scops = detect_scops(normalize_reductions(parse_program(KERNELS[kernel].source)))
    statements = [stmt for scop in scops for stmt in scop.statements]
    assert statements
    assert converted == [stmt.name for stmt in statements]


def test_triangular_loop_is_still_affine():
    source = """
    void f(int N, float A[N][N]) {
      for (int i = 0; i < N; i++)
        for (int j = 0; j < i; j++)
          A[i][j] = 0.0;
    }
    """
    program = parse_program(source)
    scops = detect_scops(program)
    assert len(scops) == 1
    domain = scops[0].statements[0].domain
    assert domain.cardinality({"N": 4}) == 6
