"""Regenerate loop-nest IR from a (transformed) schedule tree.

This is the reproduction's counterpart of ISL's AST generation used by Polly
to lower an optimized schedule back to LLVM-IR.  The generator walks the
schedule tree and emits:

* one ``for`` loop per band dimension, with bounds taken from the iteration
  domain of the statements active underneath (tile bands get the tile size as
  step; point bands get ``min`` upper bounds against the tile boundary);
* sequences/filters as ordered statement lists;
* extension nodes as literal call statements (the CIM runtime calls inserted
  by device mapping);
* leaves as the (possibly rewritten) assignment statements of the SCoP.
"""

from __future__ import annotations

from repro.ir.expr import Expr, IntConst, Min, VarRef
from repro.ir.stmt import Block, CallStmt, Loop, Stmt
from repro.poly.domain import LoopDim
from repro.poly.schedule_tree import (
    BandNode,
    DomainNode,
    ExtensionNode,
    FilterNode,
    LeafNode,
    MarkNode,
    ScheduleNode,
    SequenceNode,
)
from repro.poly.scop import Scop


class AstGenError(RuntimeError):
    """Raised when a schedule tree cannot be lowered back to IR."""


def generate_ir(tree: DomainNode) -> list[Stmt]:
    """Lower a schedule tree to a list of top-level IR statements."""
    if not isinstance(tree, DomainNode):
        raise AstGenError("schedule tree root must be a DomainNode")
    scop = tree.scop
    active = set(scop.statement_names)
    if tree.child is None:
        return []
    generator = _Generator(scop)
    return generator.emit(tree.child, active)


class _Generator:
    def __init__(self, scop: Scop):
        self.scop = scop

    # ------------------------------------------------------------------
    def emit(self, node: ScheduleNode, active: set[str]) -> list[Stmt]:
        if isinstance(node, BandNode):
            return self._emit_band(node, active)
        if isinstance(node, SequenceNode):
            stmts: list[Stmt] = []
            for child in node.children():
                assert isinstance(child, FilterNode)
                stmts.extend(self.emit(child, active & child.statements))
            return stmts
        if isinstance(node, FilterNode):
            if node.child is None:
                return []
            return self.emit(node.child, active & node.statements)
        if isinstance(node, MarkNode):
            if node.child is None:
                return []
            return self.emit(node.child, active)
        if isinstance(node, ExtensionNode):
            stmts = [CallStmt(c.callee, list(c.args)) for c in node.calls]
            if node.child is not None:
                stmts.extend(self.emit(node.child, active))
            return stmts
        if isinstance(node, LeafNode):
            return self._emit_leaf(node, active)
        raise AstGenError(f"cannot generate code for node {node!r}")

    # ------------------------------------------------------------------
    def _emit_leaf(self, node: LeafNode, active: set[str]) -> list[Stmt]:
        names = [n for n in (node.statements or sorted(active)) if n in active]
        stmts: list[Stmt] = []
        for name in names:
            stmts.append(self.scop.statement(name).assign)
        return stmts

    def _emit_band(self, band: BandNode, active: set[str]) -> list[Stmt]:
        if not active:
            return []
        inner: list[Stmt]
        if band.child is None:
            inner = []
        else:
            inner = self.emit(band.child, active)
        # Wrap inner statements with loops, innermost dimension first.
        for var in reversed(band.dims):
            dim = self._find_dim(var, active, band)
            if var in band.tile_steps:
                # Tile loop: full original range with the tile size as step.
                loop = Loop(
                    var=var,
                    lower=dim.lower.to_ir(),
                    upper=dim.upper.to_ir(),
                    body=Block(inner),
                    step=band.tile_steps[var],
                )
            elif var in band.tile_origin:
                tile_var, tile_size = band.tile_origin[var]
                upper: Expr = Min(
                    VarRef(tile_var) + IntConst(tile_size), dim.upper.to_ir()
                )
                loop = Loop(
                    var=var,
                    lower=VarRef(tile_var),
                    upper=upper,
                    body=Block(inner),
                    step=dim.step,
                )
            else:
                loop = Loop(
                    var=var,
                    lower=dim.lower.to_ir(),
                    upper=dim.upper.to_ir(),
                    body=Block(inner),
                    step=dim.step,
                )
            inner = [loop]
        return inner

    def _find_dim(self, var: str, active: set[str], band: BandNode) -> LoopDim:
        """Locate the domain dimension describing schedule dimension *var*.

        Tile-loop variables are synthetic (they do not appear in statement
        domains); their bounds are those of the point variable they tile,
        which the tiling transformation records in ``tile_steps`` alongside a
        domain alias stored by name convention ``<point_var>``.
        """
        lookup_var = var
        # A tile loop named "<v>_t" ranges over the domain of "<v>".
        if var in band.tile_steps and not self._any_domain_has(var, active):
            if var.endswith("_t"):
                lookup_var = var[: -len("_t")]
        for name in sorted(active):
            stmt = self.scop.statement(name)
            if stmt.domain.has_dim(lookup_var):
                return stmt.domain.dim(lookup_var)
        raise AstGenError(
            f"no active statement provides bounds for schedule dimension {var!r}"
        )

    def _any_domain_has(self, var: str, active: set[str]) -> bool:
        return any(
            self.scop.statement(name).domain.has_dim(var) for name in sorted(active)
        )
