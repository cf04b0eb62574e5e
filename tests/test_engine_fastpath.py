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

from repro import CompileOptions, OffloadExecutor, compile_source
from repro.frontend import parse_program
from repro.ir import ArrayDecl, Block, Interpreter, Loop, Program
from repro.ir.engine import make_engine, native_available
from repro.ir.expr import ArrayRef, IntConst, Max, Min, ParamRef, VarRef
from repro.ir.engine.lowering import program_lowering_report, tier_histogram
from repro.ir.normalize import normalize_reductions
from repro.ir.program import ParamDecl
from repro.ir.stmt import Assign
from repro.ir.types import ElementType
from repro.workloads.polybench import KERNELS

#: engines that must be bit-identical to the interpreter (trace included).
EXACT_ENGINES = ("vectorized", "fast", "native")


def _prepare(source):
    if isinstance(source, Program):
        return source
    return normalize_reductions(parse_program(source))


def _outcome(engine, params, arrays):
    """What one run left behind: (arrays, trace, exception type).  The
    trace of a failed run is not comparable — the compiled tiers account
    a whole nest before executing it — so it is dropped."""
    try:
        engine.run(params, {k: v.copy() for k, v in arrays.items()})
    except Exception as exc:
        return engine.arrays, None, type(exc)
    return engine.arrays, engine.trace, None


def _run_reference(program, params, arrays):
    out, trace, raised = _outcome(Interpreter(program), params, arrays)
    assert raised is None
    return out, trace


def _assert_engines_match(source, params: dict, arrays: dict):
    """Run *source* under every exact engine; all must match the
    interpreter: arrays, trace, the type of a raised exception (which is
    returned), and the executor's report."""
    program = _prepare(source)
    ref_out, ref_trace, ref_raised = _outcome(Interpreter(program), params, arrays)
    for engine_name in EXACT_ENGINES:
        out, trace, raised = _outcome(
            make_engine(program, engine=engine_name), params, arrays
        )
        assert raised is ref_raised, f"{engine_name}: raised {raised}"
        for name in ref_out:
            np.testing.assert_array_equal(
                ref_out[name],
                out[name],
                err_msg=f"{engine_name}: array {name!r} not bit-identical",
            )
        assert trace == ref_trace, f"{engine_name}: trace diverged"
    if ref_raised is None:
        _, ref_report = OffloadExecutor(engine="interpreter").run(program, params, arrays)
        for engine_name in EXACT_ENGINES:
            _, report = OffloadExecutor(engine=engine_name).run(program, params, arrays)
            assert report == ref_report, f"{engine_name}: report diverged"
    return ref_raised


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
# Guard and naming cases: what the emitted kernel must get right or refuse
# ----------------------------------------------------------------------
KEYWORD_NAMES = """
void lambda(int range, double scalars, double in[range], double np[range],
            double arrays[range][range]) {
  for (int is = 0; is < range; is++)
    for (int def = 0; def < range; def++)
      arrays[is][def] = arrays[is][def] + scalars * in[is] * np[range - 1 - def];
}
"""

FLOAT_OFFSET = """
void shifted(int N, int F, double A[2 * N], double B[N]) {
  for (int i = 0; i < N; i++)
    B[i] = A[i + F];
}
"""

REVERSED_STRIDE_TO_ZERO = """
void rev2(int N, double A[2 * N], double B[N]) {
  for (int i = 0; i < N; i++)
    B[i] = A[2 * N - 2 - 2 * i];
}
"""

LEAVES_ABOVE_ON_LAST_ITERATION = """
void leave(int N, int K, double A[N + K - 2], double y[N]) {
  for (int k = 0; k < K; k++)
    for (int i = 0; i < N; i++)
      y[i] = y[i] + A[N - 1 - i + k];
}
"""

LEAVES_BELOW_ON_LAST_ITERATION = """
void wrap_last(int N, int K, double A[N + K], double y[N]) {
  for (int k = 0; k < K; k++)
    for (int i = 0; i < N; i++)
      y[i] = y[i] + A[i - k + K - 2];
}
"""

SELF_READING_TARGET = """
void axpby(int N, double alpha, double beta, double tmp[N], double y[N]) {
  for (int i = 0; i < N; i++)
    y[i] = alpha * tmp[i] + beta * y[i];
}
"""

TRANSPOSED_READ = """
void transpose(int N, int M, double A[M][N], double B[N][M]) {
  for (int i = 0; i < N; i++)
    for (int j = 0; j < M; j++)
      B[i][j] = A[j][i] + i;
}
"""


def _tiled_min_max_nest() -> Program:
    """``for it (step 4) for i in [max(it, 1), min(it + 4, N)) for k:
    A[i] += B[i - 1 + k]`` — bounds the frontend cannot spell."""
    n, k_param = ParamRef("N"), ParamRef("K")
    update = Assign(
        ArrayRef("A", (VarRef("i"),)),
        ArrayRef("B", (VarRef("i") - 1 + VarRef("k"),)),
        reduction="+",
    )
    reduce_k = Loop("k", IntConst(0), k_param, Block([update]))
    inner = Loop(
        "i", Max(VarRef("it"), IntConst(1)), Min(VarRef("it") + 4, n), Block([reduce_k])
    )
    outer = Loop("it", IntConst(0), n, Block([inner]), step=4)
    return Program(
        name="tiled",
        params=[ParamDecl("N", ElementType.I32), ParamDecl("K", ElementType.I32)],
        arrays=[
            ArrayDecl("A", ("N",), ElementType.F64),
            ArrayDecl("B", (n + k_param,), ElementType.F64),
        ],
        body=Block([outer]),
    )


GUARD_CASES = {
    "keyword-names": (
        KEYWORD_NAMES,
        {"range": 6, "scalars": 0.75},
        {"in": 6, "np": 6, "arrays": (6, 6)},
        None,
    ),
    "tiled-min-max": (_tiled_min_max_nest, {"N": 11, "K": 3}, {"A": 11, "B": 14}, None),
    "float-offset": (FLOAT_OFFSET, {"N": 6, "F": 2.5}, {"A": 12, "B": 6}, None),
    "reversed-stride-to-zero": (
        REVERSED_STRIDE_TO_ZERO, {"N": 7}, {"A": 14, "B": 7}, None
    ),
    "leaves-above-on-last-iteration": (
        LEAVES_ABOVE_ON_LAST_ITERATION, {"N": 5, "K": 4}, {"A": 7, "y": 5}, IndexError
    ),
    "leaves-below-on-last-iteration": (
        LEAVES_BELOW_ON_LAST_ITERATION, {"N": 5, "K": 4}, {"A": 9, "y": 5}, None
    ),
    "self-reading-target": (
        SELF_READING_TARGET, {"N": 9, "alpha": 1.5, "beta": 0.25}, {"tmp": 9, "y": 9}, None
    ),
    "transposed-read": (TRANSPOSED_READ, {"N": 4, "M": 6}, {"A": (6, 4), "B": (4, 6)}, None),
}


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_guard_and_naming_cases_match(case):
    """Each case either runs on the emitted kernel or is refused by its
    guard before anything is written; both must be the interpreter's
    result — arrays, trace, report and the exception a bad index raises."""
    source, params, shapes, raises = GUARD_CASES[case]
    program = _prepare(source() if callable(source) else source)
    arrays = _arrays(np.random.default_rng(12), **shapes)
    assert _assert_engines_match(program, params, arrays) is raises


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
#: Identifier sets for the generated nests: (function, N, A, B, i).
NAMINGS = (
    ("k", "N", "A", "B", "i"),
    ("lambda", "range", "in", "np", "is"),
    ("def", "scalars", "arrays", "range", "lambda"),
)


@st.composite
def affine_nests(draw):
    """A random single-statement affine nest over 1-D arrays.

    Subscripts are ``coeff * i + offset`` with coefficients in {1, 2} and
    offsets in [-1, 2] — or, for the read, reversed (``N - 1 - i +
    offset``, reaching index 0 or wrapping below it); arrays are sized
    ``3 * N`` so every index is either in bounds or a negative wrap —
    both *defined* behaviors every engine must reproduce exactly.  The
    identifiers are drawn too (Python keywords and builtins are legal C
    names), and ``N`` may arrive as a float.
    """
    n = draw(st.integers(2, 5))
    coeff = draw(st.sampled_from([1, 2]))
    offset = draw(st.integers(-1, 2))
    read_coeff = draw(st.sampled_from([1, 2]))
    read_offset = draw(st.integers(-1, 2))
    op = draw(st.sampled_from(["+", "*", "-"]))
    scale = draw(st.sampled_from(["1.0", "0.5", "3.0"]))
    reduce_form = draw(st.booleans())
    func, size, src, dst, var = draw(st.sampled_from(NAMINGS))
    write = f"{dst}[{coeff} * {var} + {offset + 1}]"
    if draw(st.booleans()):
        read = f"{src}[{size} - 1 - {var} + {read_offset}]"
    else:
        read = f"{src}[{read_coeff} * {var} + {read_offset}]"
    if reduce_form:
        body = f"{write} = {write} {op} {read} * {scale};"
    else:
        body = f"{write} = {read} {op} {scale};"
    source = (
        f"void {func}(int {size}, double {src}[3 * {size}], double {dst}[3 * {size}]) {{\n"
        f"  for (int {var} = 0; {var} < {size}; {var}++)\n"
        f"    {body}\n"
        "}\n"
    )
    params = {size: float(n) if draw(st.booleans()) else n}
    return source, params, (src, dst)


@given(affine_nests())
@settings(max_examples=60, deadline=None)
def test_random_affine_nests_never_miscompile(case):
    source, params, (src, dst) = case
    (n,) = params.values()
    rng = np.random.default_rng(int(n))
    arrays = _arrays(rng, **{src: 3 * int(n), dst: 3 * int(n)})
    _assert_engines_match(source, params, arrays)
