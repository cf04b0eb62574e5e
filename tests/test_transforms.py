"""Tests for tiling, fusion, distribution, and device mapping."""

import numpy as np
import pytest

from repro.frontend import parse_program
from repro.ir import Block, Interpreter, Program
from repro.ir.normalize import normalize_reductions
from repro.poly import build_schedule_tree, detect_scops, generate_ir
from repro.poly.schedule_tree import (
    BandNode,
    ExtensionNode,
    FilterNode,
    SequenceNode,
    validate_tree,
)
from repro.tactics import find_all_kernels, find_gemm_kernels, find_gemv_kernels
from repro.transforms import (
    FusionError,
    TilingError,
    find_fusable_groups,
    fuse_sibling_nests,
    map_kernels_to_cim,
    tile_band_chain,
    tile_gemm_for_crossbar,
)
from repro.transforms.distribution import can_distribute, distribute_band, isolate_match
from repro.codegen.runtime_calls import CIM_GEMM, CIM_GEMM_BATCHED, CIM_MALLOC

PURE_GEMM_SOURCE = """
void matmul(int N, float C[N][N], float A[N][N], float B[N][N]) {
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < N; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""


def _analyse(source):
    program = normalize_reductions(parse_program(source))
    scop = detect_scops(program)[0]
    return program, scop, build_schedule_tree(scop)


def _run(program_template, stmts, params, arrays):
    program = Program(
        name="regen",
        params=list(program_template.params),
        arrays=list(program_template.arrays),
        body=Block(stmts),
    )
    return Interpreter(program).run(params, arrays)


# ----------------------------------------------------------------------
# Tiling
# ----------------------------------------------------------------------
def test_tiling_preserves_semantics(rng):
    program, scop, tree = _analyse(PURE_GEMM_SOURCE)
    match = find_gemm_kernels(scop, tree)[0]
    bands = match.band_chain(tree)
    tile_band_chain(bands, {"i": 2, "j": 3, "k": 2})
    assert validate_tree(tree) == []
    params = {"N": 5}
    arrays = {
        "A": rng.random((5, 5), dtype=np.float32),
        "B": rng.random((5, 5), dtype=np.float32),
        "C": np.zeros((5, 5), dtype=np.float32),
    }
    reference = Interpreter(program).run(params, arrays)
    tiled = _run(program, generate_ir(tree), params, arrays)
    np.testing.assert_allclose(tiled["C"], reference["C"], rtol=1e-5)


def test_tiling_with_interchanged_tile_loops(rng):
    program, scop, tree = _analyse(PURE_GEMM_SOURCE)
    match = find_gemm_kernels(scop, tree)[0]
    tile_band = tile_gemm_for_crossbar(tree, match, crossbar_rows=3, crossbar_cols=2)
    # Listing 3 order: i_t, k_t, j_t.
    assert tile_band.dims == ["i_t", "k_t", "j_t"]
    params = {"N": 7}
    rng_local = np.random.default_rng(3)
    arrays = {
        "A": rng_local.random((7, 7), dtype=np.float32),
        "B": rng_local.random((7, 7), dtype=np.float32),
        "C": np.zeros((7, 7), dtype=np.float32),
    }
    reference = Interpreter(program).run(params, arrays)
    tiled = _run(program, generate_ir(tree), params, arrays)
    np.testing.assert_allclose(tiled["C"], reference["C"], rtol=1e-5)


def test_tiling_rejects_bad_requests():
    _, scop, tree = _analyse(PURE_GEMM_SOURCE)
    match = find_gemm_kernels(scop, tree)[0]
    bands = match.band_chain(tree)
    with pytest.raises(TilingError):
        tile_band_chain(bands, {"z": 4})
    with pytest.raises(TilingError):
        tile_band_chain(bands, {"i": 0})
    with pytest.raises(TilingError):
        tile_band_chain(bands, {"i": 2}, tile_loop_order=["i", "j"])
    with pytest.raises(TilingError):
        tile_band_chain([], {"i": 2})


def test_tiling_imperfect_nest_rejected(gemm_source):
    _, scop, tree = _analyse(gemm_source)
    match = find_gemm_kernels(scop, tree)[0]
    with pytest.raises(TilingError):
        tile_gemm_for_crossbar(tree, match)


# ----------------------------------------------------------------------
# Fusion
# ----------------------------------------------------------------------
def test_fusable_group_found_for_shared_input(two_gemms_source):
    _, scop, tree = _analyse(two_gemms_source)
    matches = find_gemm_kernels(scop, tree)
    groups = find_fusable_groups(scop, matches)
    assert len(groups) == 1
    assert groups[0].size == 2
    assert groups[0].shared_arrays() == {"A"}


def test_dependent_kernels_not_fused():
    source = """
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
    _, scop, tree = _analyse(source)
    matches = find_gemm_kernels(scop, tree)
    assert find_fusable_groups(scop, matches) == []


def test_require_shared_input_option(two_gemms_source):
    source_no_sharing = two_gemms_source.replace("A[i][k] * E[k][j]", "E[k][i] * E[k][j]")
    _, scop, tree = _analyse(source_no_sharing)
    matches = find_gemm_kernels(scop, tree)
    assert find_fusable_groups(scop, matches, require_shared_input=True) == []
    assert len(find_fusable_groups(scop, matches, require_shared_input=False)) == 1


def test_gemv_matches_not_grouped():
    from repro.workloads import get_kernel

    kernel = get_kernel("mvt")
    program = normalize_reductions(parse_program(kernel.source))
    scop = detect_scops(program)[0]
    tree = build_schedule_tree(scop)
    matches = find_gemv_kernels(scop, tree)
    assert find_fusable_groups(scop, matches) == []


def test_structural_fusion_of_sibling_nests(two_gemms_source, rng):
    program, scop, tree = _analyse(two_gemms_source)
    seq = tree.child
    assert isinstance(seq, SequenceNode)
    first, second = seq.children()
    fuse_sibling_nests(tree, first, second)
    assert len(seq.children()) == 1
    assert validate_tree(tree) == []
    params = {"N": 4}
    arrays = {
        "A": rng.random((4, 4), dtype=np.float32),
        "B": rng.random((4, 4), dtype=np.float32),
        "E": rng.random((4, 4), dtype=np.float32),
        "C": np.zeros((4, 4), dtype=np.float32),
        "D": np.zeros((4, 4), dtype=np.float32),
    }
    reference = Interpreter(program).run(params, arrays)
    fused = _run(program, generate_ir(tree), params, arrays)
    np.testing.assert_allclose(fused["C"], reference["C"], rtol=1e-5)
    np.testing.assert_allclose(fused["D"], reference["D"], rtol=1e-5)


# ----------------------------------------------------------------------
# Distribution
# ----------------------------------------------------------------------
def test_distribution_legality_and_mechanics(rng):
    source = """
    void f(int N, float A[N][N], float B[N][N], float x[N], float y[N], float z[N]) {
      for (int i = 0; i < N; i++) {
        y[i] = 0.0;
        z[i] = 0.0;
        for (int j = 0; j < N; j++) {
          y[i] += A[i][j] * x[j];
          z[i] += B[i][j] * x[j];
        }
      }
    }
    """
    program, scop, tree = _analyse(source)
    band_i = tree.child
    assert isinstance(band_i, BandNode)
    assert can_distribute(scop, band_i)
    distribute_band(tree, band_i)
    assert isinstance(tree.child, SequenceNode)
    assert validate_tree(tree) == []
    params = {"N": 5}
    arrays = {
        "A": rng.random((5, 5), dtype=np.float32),
        "B": rng.random((5, 5), dtype=np.float32),
        "x": rng.random(5, dtype=np.float32),
        "y": np.zeros(5, dtype=np.float32),
        "z": np.zeros(5, dtype=np.float32),
    }
    reference = Interpreter(program).run(params, arrays)
    distributed = _run(program, generate_ir(tree), params, arrays)
    np.testing.assert_allclose(distributed["y"], reference["y"], rtol=1e-5)
    np.testing.assert_allclose(distributed["z"], reference["z"], rtol=1e-5)


def test_distribution_illegal_with_backward_dependence():
    source = """
    void f(int N, float A[N], float B[N]) {
      for (int i = 0; i < N - 1; i++) {
        A[i] = B[i] + 1.0;
        B[i + 1] = A[i] * 2.0;
      }
    }
    """
    program, scop, tree = _analyse(source)
    band_i = tree.child
    assert isinstance(band_i, BandNode)
    assert not can_distribute(scop, band_i)


def test_isolate_match_enables_offload_of_shared_nest(rng):
    from repro.workloads import get_kernel

    kernel = get_kernel("bicg")
    program = normalize_reductions(parse_program(kernel.source))
    scop = detect_scops(program)[0]
    tree = build_schedule_tree(scop)
    matches = find_gemv_kernels(scop, tree)
    assert len(matches) == 2
    for match in matches:
        assert isolate_match(tree, match)
        root = match.subtree_root(tree)
        covered = {
            dim for node in root.walk() if isinstance(node, BandNode) for dim in node.dims
        }
        assert set(match.dims.values()) <= covered
    assert validate_tree(tree) == []


# ----------------------------------------------------------------------
# Device mapping
# ----------------------------------------------------------------------
def test_device_mapping_single_gemm(gemm_source):
    _, scop, tree = _analyse(gemm_source)
    matches = find_all_kernels(scop, tree)
    result = map_kernels_to_cim(tree, matches)
    assert result.any_offloaded
    assert len(result.mappings) == 1
    assert result.mappings[0].call_name == CIM_GEMM
    extensions = [n for n in tree.walk() if isinstance(n, ExtensionNode)]
    assert len(extensions) == 1
    call_names = [c.callee for c in extensions[0].calls]
    assert call_names.count(CIM_MALLOC) == 3
    assert CIM_GEMM in call_names


def test_device_mapping_emits_batched_call_for_fused_group(two_gemms_source):
    _, scop, tree = _analyse(two_gemms_source)
    matches = find_gemm_kernels(scop, tree)
    groups = find_fusable_groups(scop, matches)
    result = map_kernels_to_cim(tree, matches, groups)
    assert len(result.mappings) == 1
    assert result.mappings[0].call_name == CIM_GEMM_BATCHED
    assert result.mappings[0].shared_arrays == {"A"}
    # The second nest's subtree was removed from the sequence.
    seq_nodes = [n for n in tree.walk() if isinstance(n, SequenceNode)]
    assert all(len(s.children()) <= 1 for s in seq_nodes)


def test_device_mapping_allocates_each_array_once(two_gemms_source):
    _, scop, tree = _analyse(two_gemms_source)
    matches = find_gemm_kernels(scop, tree)
    groups = find_fusable_groups(scop, matches)
    map_kernels_to_cim(tree, matches, groups)
    extensions = [n for n in tree.walk() if isinstance(n, ExtensionNode)]
    mallocs = [
        c.args[0].array
        for ext in extensions
        for c in ext.calls
        if c.callee == CIM_MALLOC
    ]
    assert sorted(mallocs) == ["A", "B", "C", "D", "E"]
