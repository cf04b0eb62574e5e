"""Tests for the GEMM / GEMV / conv2d pattern finders."""

import numpy as np
import pytest

from repro import CompileOptions, OffloadExecutor, compile_source
from repro.frontend import parse_program
from repro.ir import Interpreter
from repro.ir.expr import FloatConst, ParamRef
from repro.ir.normalize import normalize_reductions
from repro.poly import build_schedule_tree, detect_scops
from repro.poly.schedule_tree import DomainNode, FilterNode, LeafNode
from repro.tactics import find_all_kernels
from repro.workloads import get_kernel
from tests.test_compiler_golden import INPUTS, compile_case


def _analyse(source):
    program = normalize_reductions(parse_program(source))
    scop = detect_scops(program)[0]
    return scop, build_schedule_tree(scop)


def _of_kind(scop, kind):
    return [m for m in find_all_kernels(scop) if m.kind == kind]


def test_gemm_detected_with_alpha_beta(gemm_source):
    scop, tree = _analyse(gemm_source)
    matches = _of_kind(scop, "gemm")
    assert len(matches) == 1
    match = matches[0]
    assert match.kind == "gemm"
    assert match.arrays == {"C": "C", "A": "A", "B": "B"}
    assert match.dims == {"i": "i", "j": "j", "k": "k"}
    assert match.init_stmt is not None
    assert isinstance(match.alpha, ParamRef) and match.alpha.name == "alpha"
    assert isinstance(match.beta, ParamRef) and match.beta.name == "beta"
    assert not match.trans_a and not match.trans_b


def test_gemm_extent_expressions(gemm_source):
    scop, tree = _analyse(gemm_source)
    match = _of_kind(scop, "gemm")[0]
    assert [str(match.extent_expr(role)) for role in "ijk"] == ["M", "N", "K"]
    assert match.extent("i", {"M": 7, "N": 3, "K": 2}) == 7
    assert match.macs({"M": 2, "N": 3, "K": 4}) == 24


def test_gemm_without_init_has_beta_one(two_gemms_source):
    scop, tree = _analyse(two_gemms_source)
    matches = _of_kind(scop, "gemm")
    assert len(matches) == 2
    for match in matches:
        assert match.init_stmt is None
        assert isinstance(match.beta, FloatConst) and match.beta.value == 1.0


def test_transposed_gemm_detected():
    source = """
    void f(int M, int N, int K, float C[M][N], float A[K][M], float B[K][N]) {
      for (int i = 0; i < M; i++)
        for (int j = 0; j < N; j++)
          for (int k = 0; k < K; k++)
            C[i][j] += A[k][i] * B[k][j];
    }
    """
    scop, tree = _analyse(source)
    match = _of_kind(scop, "gemm")[0]
    assert match.trans_a and not match.trans_b


def test_non_contraction_not_matched_as_gemm():
    source = """
    void f(int N, float C[N][N], float A[N][N], float B[N][N]) {
      for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
          for (int k = 0; k < N; k++)
            C[i][j] += A[i][k] + B[k][j];
    }
    """
    scop, tree = _analyse(source)
    assert _of_kind(scop, "gemm") == []


def test_gemv_detected(gemv_source):
    scop, tree = _analyse(gemv_source)
    matches = _of_kind(scop, "gemv")
    assert len(matches) == 1
    match = matches[0]
    assert match.arrays == {"y": "y", "A": "A", "x": "x"}
    assert match.init_stmt is not None
    assert isinstance(match.beta, FloatConst) and match.beta.value == 0.0
    assert not match.trans_a


def test_transposed_gemv_detected():
    kernel = get_kernel("mvt")
    program = normalize_reductions(parse_program(kernel.source))
    scops = detect_scops(program)
    scop = scops[0]
    matches = _of_kind(scop, "gemv")
    assert len(matches) == 2
    assert sorted(m.trans_a for m in matches) == [False, True]


def test_conv2d_detected(conv_source):
    scop, tree = _analyse(conv_source)
    matches = _of_kind(scop, "conv2d")
    assert len(matches) == 1
    match = matches[0]
    assert match.arrays["out"] == "out"
    assert match.arrays["img"] == "img"
    assert match.arrays["W"] == "W"
    assert set(match.dims) == {"i", "j", "p", "q"}
    assert match.init_stmt is not None


def test_find_all_kernels_claims_each_statement_once(gemm_source):
    scop, tree = _analyse(gemm_source)
    matches = find_all_kernels(scop)
    assert len(matches) == 1
    assert matches[0].kind == "gemm"   # GEMM shadows a possible GEMV reading


def test_gemm_preferred_over_gemv_for_3d_contraction(two_gemms_source):
    scop, tree = _analyse(two_gemms_source)
    matches = find_all_kernels(scop)
    assert {m.kind for m in matches} == {"gemm"}


def test_subtree_root_covers_whole_nest_for_gemm(gemm_source):
    scop, tree = _analyse(gemm_source)
    match = _of_kind(scop, "gemm")[0]
    root = match.subtree_path(tree)[-1]
    from repro.poly.schedule_tree import BandNode

    assert isinstance(root, BandNode) and root.dims == ["i"]
    assert root is tree.child


def test_band_chain_for_update_statement(gemm_source):
    scop, tree = _analyse(gemm_source)
    match = _of_kind(scop, "gemm")[0]
    chain = match.band_chain(tree)
    assert [b.dims[0] for b in chain] == ["i", "j", "k"]


def test_polybench_kernel_detection_counts():
    expected = {
        "gemm": {"gemm": 1},
        "2mm": {"gemm": 2},
        "3mm": {"gemm": 3},
        "conv": {"conv2d": 1},
        "gesummv": {"gemv": 2},
        "bicg": {"gemv": 2},
        "mvt": {"gemv": 2},
        "atax": {"gemv": 2},
    }
    for name, counts in expected.items():
        kernel = get_kernel(name)
        program = normalize_reductions(parse_program(kernel.source))
        found: dict[str, int] = {}
        for scop in detect_scops(program):
            for match in find_all_kernels(scop):
                found[match.kind] = found.get(match.kind, 0) + 1
        assert found == counts, f"{name}: {found} != {counts}"


# ----------------------------------------------------------------------
# The descending lookups equal the full-walk definitions
# ----------------------------------------------------------------------
def _walk_leaf(match, tree):
    """The end of ``KernelMatch.leaf_path`` as a pre-order walk of the
    whole tree."""
    for node in tree.walk():
        if isinstance(node, LeafNode) and match.update_stmt in node.statements:
            return node
    raise LookupError(match.update_stmt)


def _ancestry(node, parents):
    """Root-to-*node* path, climbing a child -> parent map."""
    path = [node]
    while id(path[-1]) in parents:
        path.append(parents[id(path[-1])])
    return path[::-1]


def _walk_subtree_root(match, tree, parents):
    """The end of ``KernelMatch.subtree_path`` as a climb from the leaf,
    with the statements active at each ancestor recomputed from the
    domain down."""

    def active(node):
        names = set(tree.scop.statement_names)
        for ancestor in _ancestry(node, parents):
            if isinstance(ancestor, FilterNode):
                names &= ancestor.statements
        return names

    candidate = _walk_leaf(match, tree)
    node = parents.get(id(candidate))
    while node is not None and not isinstance(node, DomainNode):
        if not active(node) <= match.statements:
            break
        candidate, node = node, parents.get(id(node))
    return candidate


def _assert_lookups_agree(tree, matches):
    parents = {id(child): node for node in tree.walk() for child in node.children()}
    for match in matches:
        try:
            leaf = _walk_leaf(match, tree)
        except LookupError:
            with pytest.raises(LookupError):
                match.leaf_path(tree)
            continue
        assert match.leaf_path(tree) == _ancestry(leaf, parents)
        root = _walk_subtree_root(match, tree, parents)
        assert match.subtree_path(tree) == _ancestry(root, parents)


@pytest.mark.parametrize("case", sorted(INPUTS))
def test_lookups_equal_full_walks(case, monkeypatch):
    """On every compiler snapshot case: after matching, after each
    distribution step and after each device-map replacement."""
    import repro.compiler.passes.analysis_passes as analysis_passes
    import repro.compiler.passes.transform_passes as transform_passes
    import repro.transforms.device_map as device_map
    import repro.transforms.distribution as distribution

    matches_of: list[tuple] = []  # (tree, its matches)
    checked = []

    def check(tree):
        [matches] = [m for t, m in matches_of if t is tree]
        _assert_lookups_agree(tree, matches)
        checked.append(tree)

    def after(function, tree_of):
        def wrapped(*args):
            tree = tree_of(*args)
            result = function(*args)
            check(tree)
            return result
        return wrapped

    match_kernels = analysis_passes.MatchKernelsPass.run

    def match_and_check(self, ctx):
        match_kernels(self, ctx)
        for tree, matches in zip(ctx.trees, ctx.matches_by_scop):
            matches_of.append((tree, matches))
            check(tree)

    monkeypatch.setattr(analysis_passes.MatchKernelsPass, "run", match_and_check)
    monkeypatch.setattr(
        distribution, "distribute_band",
        after(distribution.distribute_band, lambda tree, band, deps: tree),
    )
    monkeypatch.setattr(
        device_map, "replace_node", after(device_map.replace_node, lambda path, new: path[0])
    )
    monkeypatch.setattr(
        device_map, "_detach_root", after(device_map._detach_root, lambda path: path[0])
    )
    monkeypatch.setattr(
        transform_passes, "map_kernels_to_cim",
        after(transform_passes.map_kernels_to_cim, lambda tree, *rest: tree),
    )
    result = compile_case(case)
    assert len(checked) >= len(result.trees)


# ----------------------------------------------------------------------
# Subscripts the specs reject keep the kernel on the host
# ----------------------------------------------------------------------
def _compile_and_compare(source, params, arrays):
    """Compile with offloading on, run, and compare with the interpreter."""
    result = compile_source(source, CompileOptions(enable_compile_cache=False))
    outputs, report = OffloadExecutor().run(result.program, params, arrays)
    reference = Interpreter(result.source_program).run(params, arrays)
    for name in reference:
        np.testing.assert_allclose(outputs[name], reference[name], rtol=1e-5)
    return result, report


def _inputs(rng, **shapes):
    return {name: rng.random(shape, dtype=np.float32) for name, shape in shapes.items()}


OFFSET_CASES = {
    "gemm": (
        """
        void f(float C[4][5], float A[4][7], float B[6][5]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 5; j++)
              for (int k = 0; k < 6; k++)
                C[i][j] += A[i][k + 1] * B[k][j];
        }
        """,
        {},
        {"C": (4, 5), "A": (4, 7), "B": (6, 5)},
    ),
    "gemv": (
        """
        void f(float y[4], float A[4][6], float x[7]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 6; j++)
              y[i] += A[i][j] * x[j + 1];
        }
        """,
        {},
        {"y": (4,), "A": (4, 6), "x": (7,)},
    ),
    "conv2d": (
        """
        void f(float alpha, float out[6][5], float W[3][3], float img[9][7]) {
          for (int i = 0; i < 6; i++)
            for (int j = 0; j < 5; j++)
              for (int p = 0; p < 3; p++)
                for (int q = 0; q < 3; q++)
                  out[i][j] += alpha * W[p][q] * img[i + p + 1][j + q];
        }
        """,
        {"alpha": 1.5},
        {"out": (6, 5), "W": (3, 3), "img": (9, 7)},
    ),
}


@pytest.mark.parametrize("kind", sorted(OFFSET_CASES))
def test_constant_offset_in_an_operand_keeps_the_kernel_on_the_host(kind, rng):
    """A pattern subscript matches no constant, so an offset operand is not
    the kernel the device computes (conv2d used to offload it anyway)."""
    source, params, shapes = OFFSET_CASES[kind]
    result, report = _compile_and_compare(source, params, _inputs(rng, **shapes))
    assert result.report.detected_kernels == 0
    assert not report.offloaded


def test_conv2d_with_commuted_sums_detected(rng):
    source = """
    void f(float out[6][5], float W[3][3], float img[8][7]) {
      for (int i = 0; i < 6; i++)
        for (int j = 0; j < 5; j++)
          for (int p = 0; p < 3; p++)
            for (int q = 0; q < 3; q++)
              out[i][j] += W[p][q] * img[p + i][q + j];
    }
    """
    scop, _ = _analyse(source)
    [match] = find_all_kernels(scop)
    assert match.kind == "conv2d"
    assert match.dims == {"i": "i", "j": "j", "p": "p", "q": "q"}
    arrays = _inputs(rng, out=(6, 5), W=(3, 3), img=(8, 7))
    _, report = _compile_and_compare(source, {}, arrays)
    assert report.offloaded


ALIASED_CASES = {
    "gemm": (
        """
        void f(float C[4][4], float B[4][4]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 4; j++)
              for (int k = 0; k < 4; k++)
                C[i][j] += C[i][k] * B[k][j];
        }
        """,
        {"C": (4, 4), "B": (4, 4)},
    ),
    "gemv": (
        """
        void f(float y[4], float A[4][4]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 4; j++)
              y[i] += A[i][j] * y[j];
        }
        """,
        {"y": (4,), "A": (4, 4)},
    ),
    "conv2d-filter": (
        """
        void f(float out[6][6], float img[6][6]) {
          for (int i = 0; i < 3; i++)
            for (int j = 0; j < 3; j++)
              for (int p = 0; p < 3; p++)
                for (int q = 0; q < 3; q++)
                  out[i][j] += out[p][q] * img[i + p][j + q];
        }
        """,
        {"out": (6, 6), "img": (6, 6)},
    ),
    "conv2d-image": (
        """
        void f(float out[6][6], float W[3][3]) {
          for (int i = 0; i < 3; i++)
            for (int j = 0; j < 3; j++)
              for (int p = 0; p < 3; p++)
                for (int q = 0; q < 3; q++)
                  out[i][j] += W[p][q] * out[i + p][j + q];
        }
        """,
        {"out": (6, 6), "W": (3, 3)},
    ),
}


@pytest.mark.parametrize("case", sorted(ALIASED_CASES))
def test_output_read_as_an_operand_keeps_the_kernel_on_the_host(case, rng):
    """The statement reads elements it has already updated; the device
    would read the operand once, before the update."""
    source, shapes = ALIASED_CASES[case]
    result, report = _compile_and_compare(source, {}, _inputs(rng, **shapes))
    assert result.report.detected_kernels == 0
    assert not report.offloaded
