"""Tests for the mini-C lexer and parser."""

import pytest

from repro.frontend import FrontendError, TokenKind, parse_program, tokenize
from repro.ir.expr import ArrayRef, BinOp, ParamRef
from repro.ir.stmt import Loop


# ----------------------------------------------------------------------
# Lexer
# ----------------------------------------------------------------------
def test_tokenize_basic_kinds():
    tokens = tokenize("for (int i = 0; i < 10; i++) x[i] += 2.5f;")
    kinds = [t.kind for t in tokens]
    assert TokenKind.KEYWORD in kinds
    assert TokenKind.IDENT in kinds
    assert TokenKind.INT in kinds
    assert TokenKind.FLOAT in kinds
    assert kinds[-1] is TokenKind.EOF


def test_tokenize_skips_comments():
    tokens = tokenize("// comment\n/* block\ncomment */ x")
    texts = [t.text for t in tokens if t.kind is not TokenKind.EOF]
    assert texts == ["x"]


def test_tokenize_tracks_line_numbers():
    tokens = tokenize("a\nb\nc")
    lines = [t.line for t in tokens if t.kind is TokenKind.IDENT]
    assert lines == [1, 2, 3]


def test_tokenize_rejects_unknown_character():
    with pytest.raises(FrontendError):
        tokenize("a @ b")


def test_multi_char_punctuators_lexed_greedily():
    tokens = tokenize("a += b ++ <=")
    texts = [t.text for t in tokens if t.kind is TokenKind.PUNCT]
    assert texts == ["+=", "++", "<="]


# ----------------------------------------------------------------------
# Parser: acceptance
# ----------------------------------------------------------------------
def test_parse_gemm(gemm_source):
    program = parse_program(gemm_source)
    assert program.name == "gemm"
    assert program.param_names == ["M", "N", "K", "alpha", "beta"]
    assert program.array_names == ["C", "A", "B"]
    assert len(program.statements()) == 2


def test_parse_symbolic_array_dimensions(conv_source):
    program = parse_program(conv_source)
    img = program.array("img")
    assert img.rank == 2
    assert img.extent({"OH": 4, "OW": 5, "KH": 3, "KW": 3}) == (6, 7)


def test_parse_le_condition_becomes_exclusive_bound():
    source = """
    void f(int N, float A[N + 1]) {
      for (int i = 0; i <= N; i++)
        A[i] = 0.0;
    }
    """
    program = parse_program(source)
    loop = program.top_level_loops()[0]
    assert "+ 1" in str(loop.upper)


def test_parse_step_increment():
    source = """
    void f(int N, float A[N]) {
      for (int i = 0; i < N; i += 2)
        A[i] = 0.0;
    }
    """
    loop = parse_program(source).top_level_loops()[0]
    assert loop.step == 2


def test_parse_compound_assignment_kinds():
    source = """
    void f(int N, float A[N]) {
      for (int i = 0; i < N; i++) {
        A[i] += 1.0;
        A[i] *= 2.0;
      }
    }
    """
    stmts = parse_program(source).statements()
    assert [s.reduction for s in stmts] == ["+", "*"]


def test_parse_cast_is_ignored():
    source = """
    void f(int N, float A[N]) {
      for (int i = 0; i < N; i++)
        A[i] = (float) i;
    }
    """
    program = parse_program(source)
    assert len(program.statements()) == 1


# ----------------------------------------------------------------------
# Parser: diagnostics
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "source, fragment",
    [
        ("void f(float *A) { }", "pointer"),
        ("void f(int N, float A[N]) { A[0] = B[0]; }", "undeclared"),
        ("void f(int N, float A[N][N]) { A[0] = 1.0; }", "rank"),
        ("void f(int N) { N = 3; }", "parameter"),
        ("void f(int N, float A[N]) { for (int N = 0; N < 4; N++) A[N] = 0.0; }",
         "shadows"),
        ("void f(int N, float A[N]) { for (int i = 0; j < N; i++) A[i] = 0.0; }",
         "induction"),
        ("void f(int N, float A[N]) { for (int i = 0; i < N; i += k) A[i] = 0.0; }",
         "integer constant"),
    ],
)
def test_parse_errors(source, fragment):
    with pytest.raises(FrontendError) as err:
        parse_program(source)
    assert fragment in str(err.value)


def test_error_reports_location():
    source = "void f(int N,\n float A[N]) {\n  A[0] = ;\n}"
    with pytest.raises(FrontendError) as err:
        parse_program(source)
    assert err.value.line == 3


def test_two_functions_rejected():
    source = "void f(int N) { } void g(int N) { }"
    with pytest.raises(FrontendError):
        parse_program(source)


# ----------------------------------------------------------------------
# Parser: programs the IR cannot represent are rejected with a location
# ----------------------------------------------------------------------
def _rejection(source):
    with pytest.raises(FrontendError) as err:
        parse_program(source)
    return str(err.value), err.value.line, err.value.column


@pytest.mark.parametrize("statement", ["i = i + 1;", "i += 1;"])
def test_assignment_to_induction_variable_rejected(statement):
    # C steps i twice per iteration here; the IR's Loop owns its counter, so
    # accepting this would run every iteration: [1,1,1,1,1,1], not [1,0,1,0,1,0].
    source = (
        "void f(int N, int A[N]) {\n"
        "  for (int i = 0; i < N; i++) {\n"
        "    A[i] = 1;\n"
        f"    {statement}\n"
        "  }\n"
        "}"
    )
    assert _rejection(source) == (
        "cannot assign to loop variable 'i' at line 4, column 5", 4, 5
    )


def test_zero_loop_step_rejected_at_the_step():
    source = "void f(int N, float A[N]) {\n  for (int i = 0; i < N; i += 0)\n    A[i] = 0.0;\n}"
    assert _rejection(source) == ("loop step must be positive at line 2, column 31", 2, 31)


@pytest.mark.parametrize(
    "parameters, name, column",
    [
        ("int N, int N", "N", 19),
        ("int N, float A[N], float A[N]", "A", 33),
        ("int N, float N[4]", "N", 21),
    ],
)
def test_duplicate_declaration_rejected_at_the_second(parameters, name, column):
    assert _rejection(f"void f({parameters}) {{ }}") == (
        f"{name!r} is declared twice at line 1, column {column}", 1, column
    )


def test_unterminated_comment_reported_where_it_opens():
    source = "void f(int N, float A[N]) {\n  A[0] = 1.0; /* never\n  closed\n}"
    assert _rejection(source) == ("unterminated comment at line 2, column 15", 2, 15)
    with pytest.raises(FrontendError, match="unterminated comment at line 1, column 3"):
        tokenize("a /* b")


def test_statements_are_numbered_per_parse_in_source_order(gemm_source):
    first, second = parse_program(gemm_source), parse_program(gemm_source)
    assert [s.name for s in first.statements()] == ["S0", "S1"]
    assert [s.name for s in second.statements()] == ["S0", "S1"]
