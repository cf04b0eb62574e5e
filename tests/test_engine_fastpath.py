"""Differential tests for the fast-path lowering tiers (PR 8).

Every newly lowered nest shape — shifted, reversed and strided reads,
broadcasts, multi-reduction conv windows, outer-product reductions — is
executed under every engine tier and must match the reference
interpreter *bit for bit*: result arrays, :class:`ExecutionTrace`
operation counts, and (through the trace) all derived accounting.
Shapes the fold or native tier cannot prove must fall back a tier, never
diverge; a hypothesis strategy generates random affine nests to enforce
the same contract on shapes nobody thought to write down.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompileOptions, compile_source
from repro.frontend import parse_program
from repro.ir import Interpreter
from repro.ir.engine import make_engine, native_available
from repro.ir.engine.lowering import program_lowering_report, tier_histogram
from repro.ir.normalize import normalize_reductions
from repro.workloads.polybench import KERNELS

#: engines that must be bit-identical to the interpreter (trace included).
EXACT_ENGINES = ("vectorized", "fast", "native")


def _prepare(source: str):
    return normalize_reductions(parse_program(source))


def _run_reference(program, params, arrays):
    interp = Interpreter(program)
    out = interp.run(params, {k: v.copy() for k, v in arrays.items()})
    return out, interp.trace


def _assert_engines_match(source: str, params: dict, arrays: dict) -> None:
    """Run *source* under every exact engine; all must match the interpreter."""
    program = _prepare(source)
    ref_out, ref_trace = _run_reference(program, params, arrays)
    for engine_name in EXACT_ENGINES:
        engine = make_engine(program, engine=engine_name)
        out = engine.run(params, {k: v.copy() for k, v in arrays.items()})
        for name in ref_out:
            np.testing.assert_array_equal(
                ref_out[name],
                out[name],
                err_msg=f"{engine_name}: array {name!r} not bit-identical",
            )
        assert engine.trace == ref_trace, f"{engine_name}: trace diverged"


def _arrays(rng, **shapes):
    return {name: rng.random(shape) for name, shape in shapes.items()}


# ----------------------------------------------------------------------
# Per-shape differentials: every newly lowered nest shape
# ----------------------------------------------------------------------
SHIFTED_READ = """
void shift(int N, double A[N], double B[N]) {
  for (int i = 1; i < N; i++)
    B[i] = A[i - 1];
}
"""

WRAPPING_READ = """
void wrap(int N, double A[N], double B[N]) {
  for (int i = 0; i < N; i++)
    B[i] = A[i - 1];
}
"""

REVERSED_READ = """
void rev(int N, double A[N], double B[N]) {
  for (int i = 0; i < N; i++)
    B[i] = A[N - 1 - i];
}
"""

STRIDED_READ = """
void strided(int N, double A[2 * N], double B[N]) {
  for (int i = 0; i < N; i++)
    B[i] = A[2 * i];
}
"""

BROADCAST_READ = """
void bcast(int N, int M, double x[M], double A[N][M]) {
  for (int i = 0; i < N; i++)
    for (int j = 0; j < M; j++)
      A[i][j] = x[j] * 2.0;
}
"""

CONV_WINDOW = """
void conv(int OH, int OW, int KH, int KW,
          double in[OH + KH][OW + KW], double w[KH][KW],
          double out[OH][OW]) {
  for (int oh = 0; oh < OH; oh++)
    for (int ow = 0; ow < OW; ow++)
      for (int kh = 0; kh < KH; kh++)
        for (int kw = 0; kw < KW; kw++)
          out[oh][ow] = out[oh][ow] + in[oh + kh][ow + kw] * w[kh][kw];
}
"""

OUTER_REDUCTION = """
void bicg_like(int N, int M, double A[N][M], double s[M], double q[N],
               double p[M], double r[N]) {
  for (int j = 0; j < M; j++)
    s[j] = 0.0;
  for (int i = 0; i < N; i++) {
    q[i] = 0.0;
    for (int j = 0; j < M; j++) {
      s[j] = s[j] + r[i] * A[i][j];
      q[i] = q[i] + A[i][j] * p[j];
    }
  }
}
"""

PRODUCT_REDUCTION = """
void prod(int N, double A[N], double out[1]) {
  for (int i = 0; i < N; i++)
    out[0] = out[0] * A[i];
}
"""

DIAGONAL_READ = """
void diag(int N, double A[N][N], double B[N]) {
  for (int i = 0; i < N; i++)
    B[i] = A[i][i];
}
"""


def test_shifted_read_matches():
    rng = np.random.default_rng(0)
    _assert_engines_match(SHIFTED_READ, {"N": 9}, _arrays(rng, A=9, B=9))


def test_wrapping_read_matches_interpreter_wrap_semantics():
    """``A[i - 1]`` from ``i = 0`` indexes ``A[-1]`` — Python wrap
    semantics.  The fold tier must bail at runtime and reproduce the
    interpreter's wrap exactly, not produce a shifted slice."""
    rng = np.random.default_rng(1)
    arrays = _arrays(rng, A=7, B=7)
    _assert_engines_match(WRAPPING_READ, {"N": 7}, arrays)
    # Sanity: the wrap actually happened (B[0] took A[-1]).
    program = _prepare(WRAPPING_READ)
    out, _ = _run_reference(program, {"N": 7}, arrays)
    assert out["B"][0] == arrays["A"][-1]


def test_reversed_read_matches():
    rng = np.random.default_rng(2)
    _assert_engines_match(REVERSED_READ, {"N": 11}, _arrays(rng, A=11, B=11))


def test_strided_read_matches():
    rng = np.random.default_rng(3)
    _assert_engines_match(STRIDED_READ, {"N": 8}, _arrays(rng, A=16, B=8))


def test_broadcast_read_matches():
    rng = np.random.default_rng(4)
    _assert_engines_match(
        BROADCAST_READ, {"N": 5, "M": 7}, _arrays(rng, x=7, A=(5, 7))
    )


def test_conv_window_multi_reduction_matches():
    rng = np.random.default_rng(5)
    params = {"OH": 6, "OW": 5, "KH": 3, "KW": 2}
    _assert_engines_match(
        CONV_WINDOW,
        params,
        _arrays(rng, **{"in": (9, 7), "w": (3, 2), "out": (6, 5)}),
    )


def test_outer_reduction_pair_matches():
    rng = np.random.default_rng(6)
    _assert_engines_match(
        OUTER_REDUCTION,
        {"N": 6, "M": 4},
        _arrays(rng, A=(6, 4), s=4, q=6, p=4, r=6),
    )


def test_product_reduction_falls_back_and_matches():
    rng = np.random.default_rng(7)
    _assert_engines_match(PRODUCT_REDUCTION, {"N": 6}, _arrays(rng, A=6, out=1))


def test_diagonal_read_falls_back_and_matches():
    rng = np.random.default_rng(8)
    _assert_engines_match(DIAGONAL_READ, {"N": 6}, _arrays(rng, A=(6, 6), B=6))


# ----------------------------------------------------------------------
# The per-nest lowering report: tiers and reasons
# ----------------------------------------------------------------------
def test_lowering_report_tiers_and_reasons():
    expectations = {
        SHIFTED_READ: ("fold", ""),
        REVERSED_READ: ("fold", ""),
        STRIDED_READ: ("fold", ""),
        BROADCAST_READ: ("fold", ""),
    }
    for source, (tier, reason) in expectations.items():
        report = program_lowering_report(_prepare(source), native=False)
        assert [nest.tier for nest in report] == [tier]
        assert report[0].reason == reason

    # Fallback shapes explain *why* they stayed on the slow path.
    diag = program_lowering_report(_prepare(DIAGONAL_READ), native=False)
    assert diag[0].tier == "vectorized"
    assert "diagonal" in diag[0].reason

    prod = program_lowering_report(_prepare(PRODUCT_REDUCTION), native=False)
    assert prod[0].tier == "interpreter"
    assert prod[0].reason  # non-empty explanation


def test_lowering_report_native_tier():
    report = program_lowering_report(_prepare(SHIFTED_READ), native=True)
    assert [nest.tier for nest in report] == ["native"]
    # The generated C source is kept for inspection.
    assert "for" in report[0].c_source
    hist = tier_histogram(report)
    assert hist["native"] == 1


def test_compilation_report_carries_lowerings():
    result = compile_source(
        KERNELS["mvt"].source, options=CompileOptions.host_only()
    )
    lowerings = result.report.nest_lowerings
    assert lowerings, "EngineLowerPass did not attach a lowering report"
    summary = result.report.lowering_summary()
    assert "fold" in summary


def test_polybench_lowering_coverage_gate():
    """>= 90% of PolyBench nests must land past the generic vectorized
    tier.  Tier classification is static, so this is the whole
    lowering-coverage gate — no benchmark run is involved."""
    totals = {"interpreter": 0, "vectorized": 0, "fold": 0, "native": 0}
    for name in sorted(KERNELS):
        report = program_lowering_report(_prepare(KERNELS[name].source))
        for tier, count in tier_histogram(report).items():
            totals[tier] += count
    nests = sum(totals.values())
    assert (totals["fold"] + totals["native"]) / nests >= 0.9


# ----------------------------------------------------------------------
# PolyBench differentials under the new default and the native backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("engine_name", ["fast", "native"])
def test_polybench_fastpath_is_bit_identical(kernel_name, engine_name):
    kernel = KERNELS[kernel_name]
    program = _prepare(kernel.source)
    params = kernel.params("MINI")
    arrays = kernel.arrays("MINI", seed=17)
    ref_out, ref_trace = _run_reference(program, params, arrays)
    engine = make_engine(program, engine=engine_name)
    out = engine.run(params, {k: v.copy() for k, v in arrays.items()})
    for name in ref_out:
        np.testing.assert_array_equal(ref_out[name], out[name])
    assert engine.trace == ref_trace


# ----------------------------------------------------------------------
# Native backend: availability gating and fallback
# ----------------------------------------------------------------------
def test_repro_native_env_disables_backend(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert not native_available()
    # engine="native" stays requestable: it degrades to the fold tier.
    rng = np.random.default_rng(9)
    arrays = _arrays(rng, A=9, B=9)
    program = _prepare(SHIFTED_READ)
    ref_out, ref_trace = _run_reference(program, {"N": 9}, arrays)
    engine = make_engine(program, engine="native")
    out = engine.run({"N": 9}, {k: v.copy() for k, v in arrays.items()})
    np.testing.assert_array_equal(ref_out["B"], out["B"])
    assert engine.trace == ref_trace


def test_native_toolchain_is_available_in_ci():
    """The dedicated CI job installs cffi + gcc; if this environment has
    them, prove the probe sees them (the differential tests above then
    genuinely exercised compiled C)."""
    import os
    import shutil

    if os.environ.get("REPRO_NATIVE") == "0":
        pytest.skip("native tier force-disabled (the CI fallback-ladder run)")
    try:
        import cffi  # noqa: F401
    except ImportError:
        pytest.skip("cffi not installed")
    if not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")):
        pytest.skip("no C compiler on PATH")
    assert native_available()


# ----------------------------------------------------------------------
# Hypothesis: random affine nests must never miscompile
# ----------------------------------------------------------------------
@st.composite
def affine_nests(draw):
    """A random single-statement affine nest over 1-D arrays.

    Subscripts are ``coeff * i + offset`` with coefficients in {1, 2} and
    offsets in [-1, 2]; arrays are sized ``3 * N`` so every index is
    either in bounds or a negative wrap — both *defined* behaviors every
    engine must reproduce exactly.
    """
    n = draw(st.integers(2, 5))
    coeff = draw(st.sampled_from([1, 2]))
    offset = draw(st.integers(-1, 2))
    read_coeff = draw(st.sampled_from([1, 2]))
    read_offset = draw(st.integers(-1, 2))
    op = draw(st.sampled_from(["+", "*", "-"]))
    scale = draw(st.sampled_from(["1.0", "0.5", "3.0"]))
    reduce_form = draw(st.booleans())
    write = f"B[{coeff} * i + {offset + 1}]"
    read = f"A[{read_coeff} * i + {read_offset}]"
    if reduce_form:
        body = f"{write} = {write} {op} {read} * {scale};"
    else:
        body = f"{write} = {read} {op} {scale};"
    source = (
        "void k(int N, double A[3 * N], double B[3 * N]) {\n"
        f"  for (int i = 0; i < N; i++)\n"
        f"    {body}\n"
        "}\n"
    )
    return source, n


@given(affine_nests())
@settings(max_examples=60, deadline=None)
def test_random_affine_nests_never_miscompile(case):
    source, n = case
    rng = np.random.default_rng(n)
    arrays = _arrays(rng, A=3 * n, B=3 * n)
    _assert_engines_match(source, {"N": n}, arrays)
