"""Tests for the C-like pretty printer and the program structure queries."""

from repro.frontend import parse_program
from repro.ir import (
    ArrayDecl,
    ArrayRef,
    Assign,
    Block,
    CallStmt,
    IntConst,
    Loop,
    ParamDecl,
    ParamRef,
    Program,
    VarRef,
    to_source,
)

GEMM_SOURCE = """
void gemm(int M, int N, int K, float alpha, float beta,
          float A[M][K], float B[K][N], float C[M][N]) {
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++) {
      C[i][j] = beta * C[i][j];
      for (int k = 0; k < K; k++)
        C[i][j] += alpha * A[i][k] * B[k][j];
    }
}
"""


def test_program_structure_queries():
    program = parse_program(GEMM_SOURCE)
    assert program.param_names == ["M", "N", "K", "alpha", "beta"]
    assert program.array_names == ["A", "B", "C"]
    loops = program.top_level_loops()
    assert len(loops) == 1 and loops[0].var == "i"
    assert len(program.statements()) == 2


def test_printer_emits_compilable_looking_c(gemm_program):
    text = to_source(gemm_program)
    assert text.startswith("void gemm(")
    assert "for (int i = 0; i < M; ++i)" in text
    assert "C[i][j] += " in text or "C[i][j] = " in text
    assert text.count("{") == text.count("}")


def test_printer_roundtrip_through_frontend():
    """Printing a program and re-parsing it yields the same structure."""
    program = parse_program(GEMM_SOURCE)
    reparsed = parse_program(to_source(program))
    assert reparsed.param_names == program.param_names
    assert reparsed.array_names == program.array_names
    assert len(reparsed.statements()) == len(program.statements())


def test_printer_handles_nonunit_step():
    body = Block([Assign(ArrayRef("A", (VarRef("i"),)), IntConst(0))])
    program = Program(
        name="p",
        params=[ParamDecl("N")],
        arrays=[ArrayDecl("A", ("N",))],
        body=Block([Loop("i", IntConst(0), ParamRef("N"), body, step=4)]),
    )
    assert "i += 4" in to_source(program)


def test_call_statements_printed():
    program = Program(name="p", body=Block([CallStmt("polly_cimInit", [0])]))
    assert "polly_cimInit(0);" in to_source(program)
