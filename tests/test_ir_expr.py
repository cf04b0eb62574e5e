"""Unit tests for IR expressions."""

import pytest

from repro.ir.expr import (
    ArrayRef,
    BinOp,
    IntConst,
    Max,
    Min,
    ParamRef,
    UnaryOp,
    VarRef,
)


def test_operator_sugar_builds_binops():
    i = VarRef("i")
    expr = i + 1
    assert isinstance(expr, BinOp)
    assert expr.op == "+"
    assert expr.rhs == IntConst(1)


def test_reverse_operators():
    i = VarRef("i")
    expr = 2 * i
    assert isinstance(expr, BinOp)
    assert expr.op == "*"
    assert expr.lhs == IntConst(2)


def test_negation():
    expr = -VarRef("k")
    assert isinstance(expr, UnaryOp)
    assert expr.op == "-"


def test_free_vars_collects_variables_and_params():
    expr = BinOp("+", VarRef("i"), BinOp("*", ParamRef("N"), VarRef("j")))
    assert expr.free_vars() == {"i", "j", "N"}


def test_array_ref_wraps_integer_indices():
    ref = ArrayRef("A", [VarRef("i"), 3])
    assert ref.indices[1] == IntConst(3)
    assert ref.rank == 2


def test_walk_is_preorder():
    expr = BinOp("+", IntConst(1), IntConst(2))
    nodes = list(expr.walk())
    assert nodes[0] is expr
    assert len(nodes) == 3


def test_invalid_binop_operator_rejected():
    with pytest.raises(ValueError):
        BinOp("**", IntConst(1), IntConst(2))


def test_invalid_unary_operator_rejected():
    with pytest.raises(ValueError):
        UnaryOp("!", IntConst(1))


def test_boolean_not_allowed_as_constant():
    with pytest.raises(TypeError):
        VarRef("i") + True


def test_min_max_str_and_children():
    expr = Min(VarRef("a"), Max(VarRef("b"), IntConst(4)))
    assert "min" in str(expr) and "max" in str(expr)
    assert expr.free_vars() == {"a", "b"}


def test_str_rendering_of_array_access():
    ref = ArrayRef("C", [VarRef("i"), VarRef("j")])
    assert str(ref) == "C[i][j]"
