"""Tests for schedule-tree construction, invariants, and AST regeneration."""

import numpy as np
import pytest

from repro.frontend import parse_program
from repro.ir import Block, Interpreter, Program
from repro.ir.normalize import normalize_reductions
from repro.poly import build_schedule_tree, detect_scops, generate_ir
from repro.poly.schedule_tree import (
    BandNode,
    DomainNode,
    ExtensionNode,
    FilterNode,
    LeafNode,
    MarkNode,
    SequenceNode,
    active_statements,
    replace_node,
    tree_to_string,
    validate_tree,
    walk_paths,
)


def test_canonical_gemm_tree_shape(gemm_tree):
    assert isinstance(gemm_tree, DomainNode)
    band_i = gemm_tree.child
    assert isinstance(band_i, BandNode) and band_i.dims == ["i"]
    band_j = band_i.child
    assert isinstance(band_j, BandNode) and band_j.dims == ["j"]
    seq = band_j.child
    assert isinstance(seq, SequenceNode) and len(seq.children()) == 2
    assert all(isinstance(c, FilterNode) for c in seq.children())


def test_validate_canonical_tree(gemm_tree):
    assert validate_tree(gemm_tree) == []


def test_tree_to_string_mentions_all_nodes(gemm_tree):
    text = tree_to_string(gemm_tree)
    assert "DomainNode" in text and "BandNode" in text and "LeafNode" in text


def test_active_statements_respects_filters(gemm_tree):
    paths = [p for p in walk_paths(gemm_tree) if isinstance(p[-1], LeafNode)]
    actives = [active_statements(path) for path in paths]
    assert all(len(a) == 1 for a in actives)
    assert actives[0] != actives[1]


def test_copy_is_deep_and_parents_consistent(gemm_tree):
    clone = gemm_tree.copy()
    assert clone is not gemm_tree
    assert validate_tree(clone) == []
    # Mutating the clone must not affect the original.
    band = next(n for n in clone.walk() if isinstance(n, BandNode))
    band.dims = ["z"]
    original_dims = [n.dims for n in gemm_tree.walk() if isinstance(n, BandNode)]
    assert ["z"] not in original_dims


def test_replace_node_swaps_subtree(gemm_tree):
    band_i = gemm_tree.child
    extension = ExtensionNode([])
    replace_node([gemm_tree, band_i], extension)
    assert gemm_tree.child is extension


def test_replace_root_fails(gemm_tree):
    with pytest.raises(ValueError):
        replace_node([gemm_tree], ExtensionNode([]))


def test_sequence_rejects_non_filter_children():
    seq = SequenceNode([FilterNode({"S0"}, LeafNode(["S0"]))])
    with pytest.raises(TypeError):
        seq.set_child(0, LeafNode(["S0"]))


def test_validation_catches_empty_band_and_filter(gemm_scop):
    tree = DomainNode(gemm_scop, BandNode([], FilterNode(set(), LeafNode())))
    problems = validate_tree(tree)
    assert any("no dimensions" in p for p in problems)
    assert any("empty statement set" in p for p in problems)


def test_mark_nodes_are_transparent_for_codegen(gemm_tree, gemm_scop):
    band_i = gemm_tree.child
    mark = MarkNode("gemm", payload=None, child=band_i)
    gemm_tree.set_child(0, mark)
    stmts = generate_ir(gemm_tree)
    assert len(stmts) == 1  # still a single top-level loop


def test_generate_ir_roundtrip_preserves_semantics(gemm_program, rng):
    program = gemm_program
    scop = detect_scops(program)[0]
    tree = build_schedule_tree(scop)
    regenerated = Program(
        name="gemm_regen",
        params=list(program.params),
        arrays=list(program.arrays),
        body=Block(generate_ir(tree)),
    )
    params = {"M": 4, "N": 5, "K": 3, "alpha": 1.1, "beta": 0.7}
    arrays = {
        "A": rng.random((4, 3), dtype=np.float32),
        "B": rng.random((3, 5), dtype=np.float32),
        "C": rng.random((4, 5), dtype=np.float32),
    }
    out_original = Interpreter(program).run(params, arrays)
    out_regen = Interpreter(regenerated).run(params, arrays)
    np.testing.assert_allclose(out_regen["C"], out_original["C"], rtol=1e-6)


def test_generate_ir_roundtrip_for_multi_nest_scop(two_gemms_source, rng):
    program = normalize_reductions(parse_program(two_gemms_source))
    scop = detect_scops(program)[0]
    tree = build_schedule_tree(scop)
    regenerated = Program(
        name="regen",
        params=list(program.params),
        arrays=list(program.arrays),
        body=Block(generate_ir(tree)),
    )
    params = {"N": 4}
    arrays = {
        name: rng.random((4, 4), dtype=np.float32)
        for name in ("A", "B", "E")
    }
    arrays["C"] = np.zeros((4, 4), dtype=np.float32)
    arrays["D"] = np.zeros((4, 4), dtype=np.float32)
    out_original = Interpreter(program).run(params, arrays)
    out_regen = Interpreter(regenerated).run(params, arrays)
    np.testing.assert_allclose(out_regen["C"], out_original["C"], rtol=1e-6)
    np.testing.assert_allclose(out_regen["D"], out_original["D"], rtol=1e-6)


def test_extension_node_calls_emitted_in_order(gemm_tree):
    from repro.ir.stmt import CallStmt

    calls = [CallStmt("first", []), CallStmt("second", [])]
    replace_node([gemm_tree, gemm_tree.child], ExtensionNode(calls))
    stmts = generate_ir(gemm_tree)
    assert [s.callee for s in stmts] == ["first", "second"]
