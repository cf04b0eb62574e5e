"""Visitors and transformers over the loop-nest IR."""

from __future__ import annotations

from typing import Iterator

from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Expr,
    Max,
    Min,
    UnaryOp,
    VarRef,
)
from repro.ir.stmt import Assign, Block, CallStmt, IfStmt, Loop, Stmt


def walk(stmt: Stmt) -> Iterator[Stmt]:
    """Pre-order walk over statements (alias for ``Stmt.walk``)."""
    yield from stmt.walk()


class IRVisitor:
    """Read-only visitor dispatching on statement/expression class name.

    Subclasses override ``visit_<ClassName>``; unhandled nodes fall through
    to ``generic_visit`` which simply recurses into children.
    """

    def visit(self, node: Stmt | Expr) -> None:
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            method(node)
        else:
            self.generic_visit(node)

    def generic_visit(self, node: Stmt | Expr) -> None:
        if isinstance(node, Stmt):
            for child in node.children_stmts():
                self.visit(child)
            if isinstance(node, Assign):
                self.visit(node.target)
                self.visit(node.rhs)
            elif isinstance(node, IfStmt):
                self.visit(node.cond)
            elif isinstance(node, Loop):
                self.visit(node.lower)
                self.visit(node.upper)
        elif isinstance(node, Expr):
            for child in node.children():
                self.visit(child)


class IRTransformer:
    """Rewriting visitor: returns replacement nodes.

    Statement visit methods must return a :class:`Stmt` (or a list of
    statements to splice into the surrounding block); expression visit
    methods must return an :class:`Expr`.  The default behaviour rebuilds
    nodes with transformed children, so a subclass only overrides what it
    wants to change.
    """

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def transform_stmt(self, stmt: Stmt) -> Stmt | list[Stmt]:
        method = getattr(self, f"visit_{type(stmt).__name__}", None)
        if method is not None:
            return method(stmt)
        return self.generic_transform_stmt(stmt)

    def generic_transform_stmt(self, stmt: Stmt) -> Stmt | list[Stmt]:
        if isinstance(stmt, Block):
            new_stmts: list[Stmt] = []
            for child in stmt.stmts:
                result = self.transform_stmt(child)
                if isinstance(result, list):
                    new_stmts.extend(result)
                else:
                    new_stmts.append(result)
            return Block(new_stmts)
        if isinstance(stmt, Loop):
            body = self.transform_stmt(stmt.body)
            if isinstance(body, list):
                body = Block(body)
            assert isinstance(body, Block)
            return Loop(
                var=stmt.var,
                lower=self.transform_expr(stmt.lower),
                upper=self.transform_expr(stmt.upper),
                body=body,
                step=stmt.step,
            )
        if isinstance(stmt, Assign):
            target = self.transform_expr(stmt.target)
            if not isinstance(target, (ArrayRef, VarRef)):
                raise TypeError("assignment target must remain an lvalue")
            return Assign(
                target=target,
                rhs=self.transform_expr(stmt.rhs),
                reduction=stmt.reduction,
                name=stmt.name,
            )
        if isinstance(stmt, IfStmt):
            then_body = self.transform_stmt(stmt.then_body)
            if isinstance(then_body, list):
                then_body = Block(then_body)
            else_body = None
            if stmt.else_body is not None:
                else_body = self.transform_stmt(stmt.else_body)
                if isinstance(else_body, list):
                    else_body = Block(else_body)
            return IfStmt(self.transform_expr(stmt.cond), then_body, else_body)
        if isinstance(stmt, CallStmt):
            new_args = [
                self.transform_expr(a) if isinstance(a, Expr) else a for a in stmt.args
            ]
            return CallStmt(stmt.callee, new_args)
        return stmt

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def transform_expr(self, expr: Expr) -> Expr:
        method = getattr(self, f"visit_{type(expr).__name__}", None)
        if method is not None:
            return method(expr)
        return self.generic_transform_expr(expr)

    def generic_transform_expr(self, expr: Expr) -> Expr:
        if isinstance(expr, BinOp):
            return BinOp(expr.op, self.transform_expr(expr.lhs), self.transform_expr(expr.rhs))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, self.transform_expr(expr.operand))
        if isinstance(expr, Min):
            return Min(self.transform_expr(expr.lhs), self.transform_expr(expr.rhs))
        if isinstance(expr, Max):
            return Max(self.transform_expr(expr.lhs), self.transform_expr(expr.rhs))
        if isinstance(expr, ArrayRef):
            return ArrayRef(expr.name, [self.transform_expr(i) for i in expr.indices])
        return expr


class SubstituteVars(IRTransformer):
    """Replace variable references by expressions (used for loop rewriting)."""

    def __init__(self, mapping: dict[str, Expr]):
        self.mapping = mapping

    def visit_VarRef(self, expr: VarRef) -> Expr:
        return self.mapping.get(expr.name, expr)


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Return *expr* with variable names replaced according to *mapping*."""
    return SubstituteVars(mapping).transform_expr(expr)
