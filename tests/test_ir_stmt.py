"""Unit tests for IR statements."""

import pytest

from repro.ir.expr import ArrayRef, IntConst, VarRef
from repro.ir.stmt import (
    Assign,
    Block,
    CallStmt,
    IfStmt,
    Loop,
)


def test_assign_reads_and_writes_for_plain_assignment():
    stmt = Assign(
        target=ArrayRef("C", [VarRef("i")]),
        rhs=ArrayRef("A", [VarRef("i")]),
    )
    assert [r.name for r in stmt.reads()] == ["A"]
    assert [w.name for w in stmt.writes()] == ["C"]


def test_reduction_target_is_also_read():
    stmt = Assign(
        target=ArrayRef("C", [VarRef("i")]),
        rhs=ArrayRef("A", [VarRef("i")]),
        reduction="+",
    )
    read_names = sorted(r.name for r in stmt.reads())
    assert read_names == ["A", "C"]


def test_statement_names_are_unique():
    a = Assign(target=ArrayRef("X", [IntConst(0)]), rhs=IntConst(1))
    b = Assign(target=ArrayRef("X", [IntConst(0)]), rhs=IntConst(2))
    assert a.name != b.name


def test_loop_requires_block_body():
    with pytest.raises(TypeError):
        Loop(var="i", lower=IntConst(0), upper=IntConst(4), body=Assign(
            target=ArrayRef("X", [VarRef("i")]), rhs=IntConst(0)))


def test_loop_step_must_be_positive_integer():
    with pytest.raises(ValueError):
        Loop(var="i", lower=IntConst(0), upper=IntConst(4), body=Block(), step=0)
    with pytest.raises(TypeError):
        Loop(var="i", lower=IntConst(0), upper=IntConst(4), body=Block(),
             step=IntConst(2))


def test_call_stmt_renders_arguments():
    stmt = CallStmt("polly_cimInit", [0])
    assert "polly_cimInit(0)" in str(stmt)


def test_if_stmt_children():
    cond = VarRef("flag")
    then = Block([Assign(target=ArrayRef("A", [IntConst(0)]), rhs=IntConst(1))])
    other = Block([Assign(target=ArrayRef("A", [IntConst(0)]), rhs=IntConst(2))])
    stmt = IfStmt(cond, then, other)
    assert len(stmt.children_stmts()) == 2
    assert len(list(stmt.walk())) == 5
