"""IR normalisation passes applied before polyhedral analysis.

The only pass currently needed is reduction canonicalisation: PolyBench
kernels frequently spell accumulations as ``x[i] = x[i] + expr`` rather than
``x[i] += expr``.  The pattern matchers (and LLVM's own reduction detection)
work on the canonical compound-assignment form, so the compiler runs this
pass right after parsing.
"""

from __future__ import annotations

from repro.ir.expr import ArrayRef, BinOp
from repro.ir.program import Program
from repro.ir.stmt import Assign, Block, IfStmt, Loop, Stmt


def _same_access(a: ArrayRef, b: ArrayRef) -> bool:
    """Structural equality of two array accesses."""
    return a.name == b.name and tuple(map(str, a.indices)) == tuple(map(str, b.indices))


def _canonicalise_assign(stmt: Assign) -> Assign:
    """Rewrite ``T = T + e`` / ``T = e + T`` / ``T = T * e`` as reductions."""
    if stmt.reduction is not None or not isinstance(stmt.target, ArrayRef):
        return stmt
    rhs = stmt.rhs
    if not isinstance(rhs, BinOp) or rhs.op not in ("+", "*"):
        return stmt
    target = stmt.target
    if isinstance(rhs.lhs, ArrayRef) and _same_access(rhs.lhs, target):
        return Assign(target=target, rhs=rhs.rhs, reduction=rhs.op, name=stmt.name)
    if rhs.op == "+" and isinstance(rhs.rhs, ArrayRef) and _same_access(rhs.rhs, target):
        return Assign(target=target, rhs=rhs.lhs, reduction=rhs.op, name=stmt.name)
    if rhs.op == "*" and isinstance(rhs.rhs, ArrayRef) and _same_access(rhs.rhs, target):
        return Assign(target=target, rhs=rhs.lhs, reduction=rhs.op, name=stmt.name)
    return stmt


def _normalize_stmt(stmt: Stmt) -> Stmt:
    if isinstance(stmt, Assign):
        return _canonicalise_assign(stmt)
    if isinstance(stmt, Block):
        return Block([_normalize_stmt(s) for s in stmt.stmts])
    if isinstance(stmt, Loop):
        body = _normalize_stmt(stmt.body)
        assert isinstance(body, Block)
        return Loop(var=stmt.var, lower=stmt.lower, upper=stmt.upper, body=body,
                    step=stmt.step)
    if isinstance(stmt, IfStmt):
        then_body = _normalize_stmt(stmt.then_body)
        else_body = _normalize_stmt(stmt.else_body) if stmt.else_body else None
        assert isinstance(then_body, Block)
        return IfStmt(stmt.cond, then_body, else_body)
    return stmt


def normalize_reductions(program: Program) -> Program:
    """Return a copy of *program* with reductions in canonical ``+=`` form."""
    body = _normalize_stmt(program.body)
    assert isinstance(body, Block)
    return Program(
        name=program.name,
        params=list(program.params),
        arrays=list(program.arrays),
        body=body,
    )
