"""The frontend's observable output, pinned bit for bit.

For every kernel source the project ships (the PolyBench ``KERNELS``, both
serving GEMVs, Listing 2 and the examples) and a few lexical stress inputs,
``tests/golden/frontend/frontend.json`` holds the token stream as
``(kind, text, line, column)``, the printed program and the parsed IR's
``repr``; for a corpus of
malformed inputs it holds the :class:`FrontendError` message, line and
column.  Every entry but ``ADDED_REJECTIONS`` was recorded from the tree
*before* the single-pattern scanner; the comparison is ``==``.

Recording adds the cases the file does not have yet and never rewrites one
it has, so an entry keeps the tree it was first recorded from::

    PYTHONPATH=src python tests/test_frontend_golden.py
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import re
from pathlib import Path

import pytest

from repro.eval.lifetime import SHARED_INPUT_GEMMS_SOURCE
from repro.frontend import FrontendError, parse_program, tokenize
from repro.gateway import loadgen
from repro.ir import to_source
from repro.trace import scenarios
from repro.workloads.polybench import KERNELS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "frontend" / "frontend.json"


def _example(module: str, name: str) -> str:
    spec = importlib.util.spec_from_file_location(module, ROOT / "examples" / f"{module}.py")
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return getattr(loaded, name)


def _programs() -> dict[str, str]:
    sources = {f"kernel/{name}": kernel.source for name, kernel in KERNELS.items()}
    sources["gateway/loadgen/GEMV_SOURCE"] = loadgen.GEMV_SOURCE
    sources["trace/scenarios/GEMV_SOURCE"] = scenarios.GEMV_SOURCE
    sources["eval/lifetime/SHARED_INPUT_GEMMS_SOURCE"] = SHARED_INPUT_GEMMS_SOURCE
    for module, name in (
        ("quickstart", "GEMM_SOURCE"),
        ("custom_kernel_explorer", "MIXED_SOURCE"),
        ("multi_tenant_serving", "GEMV_SOURCE"),
    ):
        sources[f"examples/{module}/{name}"] = _example(module, name)
    sources["grammar/every_construct"] = EVERY_CONSTRUCT
    return sources


#: One program using every construct the grammar accepts.
EVERY_CONSTRUCT = """
void every(const int N, static long M, double alpha,
           float A[N][M + 1], int B[2 * N], float C[N]) {
  for (i = 0; i <= N - 1; i += 2) {
    for (int j = 1; j < M; ++j)
      A[i][j] = -alpha * (float) B[i % 3] / 2.5e1f + +A[i][j - 1] - 3 % 2;
    {
      C[i] *= .5;
      t = C[i];
    }
  }
  for (int k = 0; k < N; k++)
    C[k] += (C[k] - 1) * (2 + k);
}
"""


#: Token streams only: inputs that stress the scanner, not the grammar.
LEXICAL = {
    "comments": (
        "// leading line comment\n"
        "/* block */ a /* inline */ b // trailing\n"
        "\n"
        "/* multi\n   line\n   comment */ c\t\td\n"
        "/**/e/***/f/* ** / * */g//\n"
        "h"
    ),
    "numbers": "0 7 42 1.5 1. .5 1e3 1E+3 2.5e-3 3.0f 4F 5.e2f 6e2F 7f 08 1.5.5",
    "punctuators": "+= -= *= /= ++ -- <= >= == != && || ( ) [ ] { } ; , = + - * / % < > & +++ <<= ===",
    "identifiers_and_keywords": (
        "void int float double long for if else return const static "
        "_ _x x_1 int_ intx forx Void INT f0r"
    ),
    "crlf_and_tabs": "a\r\n\tb\r\n\r\n  c\t/* x\r\n y */ d\r\n",
    "trailing_gap": "a\n\n  // done\n/* end */\n\n",
    "empty": "",
    "only_gaps": " \n\t// x\n/* y */\n",
}

#: Inputs the frontend rejects, each with the error it gives.
MALFORMED = {
    "unexpected_character": "void f(int N) { @ }",
    "unicode_character": "void f(int N) { é }",
    "bad_character_after_multiline_comment": (
        "void f(int N, float A[N]) {\n  /* a\n     multi-line\n     comment */ $A[0] = 1.0;\n}"
    ),
    "comments_and_blank_lines_before_error": (
        "// header\n\n/* block */\n\nvoid f(int N, float A[N]) {\n\n  // note\n  A[0] = ;\n}"
    ),
    "crlf_bad_character": "void f(int N)\r\n{\r\n  #\r\n}",
    "tab_columns": "void f(int N) {\n\t\tA[0] = 1;\n}",
    "eof_mid_expression": "void f(int N, float A[N]) {\n  A[0] = 1 +",
    "eof_after_line_comment": "void f(int N, float A[N]) {\n  A[0] = 1; // trailing",
    "eof_after_block_comment": "void f(int N, float A[N]) {\n  A[0] = 1; /* x */\n\n",
    "empty_source": "",
    "missing_semicolon": "void f(int N, float A[N]) {\n  A[0] = 1.0\n}",
    "missing_close_paren": "void f(int N, float A[N]) { A[0] = (1 + 2; }",
    "float_then_float": "void f(int N, float A[N]) { A[0] = 1.5.5; }",
    "comment_closer_alone": "void f(int N) { */ }",
    "pointer_parameter": "void f(float *A) { }",
    "missing_type": "void f(N) { }",
    "undeclared_array": "void f(int N, float A[N]) { A[0] = B[0]; }",
    "rank_mismatch_store": "void f(int N, float A[N][N]) { A[0] = 1.0; }",
    "rank_mismatch_load": "void f(int N, float A[N][N], float x[N]) { x[0] = A[0]; }",
    "assignment_to_parameter": "void f(int N) { N = 3; }",
    "assignment_to_undeclared_array": "void f(int N) { B[0] = 3; }",
    "array_without_indices_load": "void f(int N, float A[N], float B[N]) { A[0] = B; }",
    "array_without_indices_store": "void f(int N, float A[N]) { A = 1.0; }",
    "undeclared_identifier": "void f(int N, float A[N]) { A[0] = x; }",
    "unexpected_token_in_expression": "void f(int N, float A[N]) { A[0] = ); }",
    "loop_variable_shadows_parameter": (
        "void f(int N, float A[N]) { for (int N = 0; N < 4; N++) A[N] = 0.0; }"
    ),
    "loop_variable_shadows_array": (
        "void f(int N, float A[N]) { for (int A = 0; A < 4; A++) A[0] = 0.0; }"
    ),
    "loop_condition_tests_other_variable": (
        "void f(int N, float A[N]) { for (int i = 0; j < N; i++) A[i] = 0.0; }"
    ),
    "loop_step_not_constant": (
        "void f(int N, float A[N]) { for (int i = 0; i < N; i += k) A[i] = 0.0; }"
    ),
    "loop_increment_other_variable": (
        "void f(int N, float A[N]) { for (int i = 0; i < N; j++) A[i] = 0.0; }"
    ),
    "loop_pre_increment_other_variable": (
        "void f(int N, float A[N]) { for (int i = 0; i < N; ++j) A[i] = 0.0; }"
    ),
    "loop_decrement": "void f(int N, float A[N]) { for (int i = 0; i < N; i--) A[i] = 0.0; }",
    "two_functions": "void f(int N) { }\nvoid g(int N) { }",
}

#: Rejections that came with the single-pattern scanner, recorded from the
#: tree that added them.  Before it the frontend accepted these, failed
#: without a location, or blamed the wrong token.
ADDED_REJECTIONS = {
    "assignment_to_loop_variable": (
        "void f(int N, int A[N]) {\n  for (int i = 0; i < N; i++) {\n"
        "    A[i] = 1;\n    i = i + 1;\n  }\n}"
    ),
    "compound_assignment_to_loop_variable": (
        "void f(int N, float A[N]) {\n  for (int i = 0; i < N; i++)\n"
        "    for (int j = 0; j < N; j++)\n      i += 1;\n}"
    ),
    "zero_loop_step": "void f(int N, float A[N]) { for (int i = 0; i < N; i += 0) A[i] = 0.0; }",
    "duplicate_parameter": "void f(int N, int N) { }",
    "duplicate_array": "void f(int N, float A[N], float A[N]) { }",
    "parameter_and_array_share_a_name": "void f(int N, float N[4]) { }",
    "unterminated_comment": "void f(int N, float A[N]) {\n  /* never closed\n  A[0] = 1.0;\n}",
    "unterminated_comment_after_comment": "void f(int N) { /* one */ /* two",
}


def _token_stream(source: str) -> list[str]:
    return [
        f"{token.kind.value} {token.text!r} {token.line}:{token.column}"
        for token in tokenize(source)
    ]


def _ir(source: str) -> str:
    """The parsed program's dataclass repr (types, shapes, nesting, steps),
    its statement names renumbered in order of appearance."""
    names = itertools.count()
    return re.sub(r"name='S\d+'", lambda _: f"name='S{next(names)}'", repr(parse_program(source)))


def _rejection(source: str) -> dict:
    with pytest.raises(FrontendError) as err:
        parse_program(source)
    return {"message": str(err.value), "line": err.value.line, "column": err.value.column}


def cases() -> dict[str, object]:
    """Every case name mapped to a function that records it."""
    recorders = {}
    for name, source in _programs().items():
        recorders[f"program/{name}"] = lambda source=source: {
            "tokens": _token_stream(source),
            "printed": to_source(parse_program(source)).splitlines(),
            "ir": _ir(source),
        }
    for name, source in LEXICAL.items():
        recorders[f"lexical/{name}"] = lambda source=source: _token_stream(source)
    for name, source in {**MALFORMED, **ADDED_REJECTIONS}.items():
        recorders[f"error/{name}"] = lambda source=source: _rejection(source)
    return recorders


CASES = cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_frontend_output_equals_golden(case, golden):
    assert json.loads(json.dumps(CASES[case]())) == golden[case]


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    added = sorted(set(CASES) - set(recorded))
    for case in added:
        recorded[case] = CASES[case]()
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
    print(f"recorded {len(added)} new case(s) to {GOLDEN}")
