"""SCoP (static control part) detection.

A SCoP is a maximal program region in which all loop bounds and array
subscripts are affine functions of enclosing loop variables and parameters.
Polly detects SCoPs on LLVM-IR; here we detect them on the loop-nest IR.

Detection rules (matching what the paper's kernels need):

* only counted ``for`` loops with affine lower/upper bounds and constant
  step belong to a SCoP;
* every array subscript inside must be affine;
* assignments to scalars are allowed only if the scalar is a local
  temporary (we conservatively reject them — PolyBench kernels in the
  evaluated set do not need scalar expansion);
* consecutive affine top-level loop nests are grouped into one SCoP, so the
  kernel-fusion transformation can see adjacent kernels (Listing 2 of the
  paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.expr import VarRef
from repro.ir.program import Program
from repro.ir.stmt import Assign, Block, Loop, Stmt
from repro.poly.access import AccessKind, AccessRelation, accesses_of_statement
from repro.poly.affine import affine_from_expr
from repro.poly.domain import IterationDomain, LoopDim


@dataclass
class ScopStatement:
    """One statement instance set inside a SCoP."""

    name: str
    assign: Assign
    domain: IterationDomain
    accesses: list[AccessRelation]
    nest_index: int  # which top-level loop nest of the SCoP this belongs to

    @property
    def loop_vars(self) -> tuple[str, ...]:
        return self.domain.var_names

    def reads(self) -> list[AccessRelation]:
        return [a for a in self.accesses if a.kind is AccessKind.READ]

    def writes(self) -> list[AccessRelation]:
        return [a for a in self.accesses if a.kind is AccessKind.WRITE]

    def read_arrays(self) -> set[str]:
        return {a.array for a in self.reads()}

    def write_arrays(self) -> set[str]:
        return {a.array for a in self.writes()}

    def __str__(self) -> str:
        return f"{self.name}: {self.assign} :: {self.domain}"


@dataclass
class Scop:
    """A detected static control part."""

    name: str
    program: Program
    statements: list[ScopStatement] = field(default_factory=list)
    # Top-level loop nests covered by this SCoP, in program order.
    nests: list[Loop] = field(default_factory=list)
    # Position of the first covered top-level statement in the program body.
    body_start: int = 0

    def statement(self, name: str) -> ScopStatement:
        for stmt in self.statements:
            if stmt.name == name:
                return stmt
        raise KeyError(f"SCoP {self.name!r} has no statement {name!r}")

    def has_statement(self, name: str) -> bool:
        return any(s.name == name for s in self.statements)

    @property
    def statement_names(self) -> list[str]:
        return [s.name for s in self.statements]

    @property
    def param_names(self) -> set[str]:
        return {p.name for p in self.program.params}

    def arrays_written(self) -> set[str]:
        result: set[str] = set()
        for stmt in self.statements:
            result |= stmt.write_arrays()
        return result

    def arrays_read(self) -> set[str]:
        result: set[str] = set()
        for stmt in self.statements:
            result |= stmt.read_arrays()
        return result

    def __str__(self) -> str:
        lines = [f"SCoP {self.name} ({len(self.nests)} nest(s)):"]
        lines.extend(f"  {stmt}" for stmt in self.statements)
        return "\n".join(lines)


def detect_scops(program: Program) -> list[Scop]:
    """Find all SCoPs in *program*.

    Returns one :class:`Scop` per maximal run of consecutive affine top-level
    loop nests.  Non-affine nests and other top-level statements break runs.
    """
    param_names = {p.name for p in program.params}
    scops: list[Scop] = []
    current: Optional[Scop] = None

    for position, stmt in enumerate(program.body.stmts):
        collected = _collect_nest(stmt, param_names) if isinstance(stmt, Loop) else None
        if collected is None:
            if current is not None and current.statements:
                scops.append(current)
            current = None
            continue
        if current is None:
            current = Scop(name=f"scop_{len(scops)}", program=program, body_start=position)
        nest_index = len(current.nests)
        current.nests.append(stmt)
        current.statements.extend(
            ScopStatement(assign.name, assign, domain, accesses, nest_index)
            for assign, domain, accesses in collected
        )
    if current is not None and current.statements:
        scops.append(current)
    return scops


def _collect_nest(
    loop: Loop, param_names: set[str]
) -> Optional[list[tuple[Assign, IterationDomain, list[AccessRelation]]]]:
    """The statements of an affine loop nest with their domains and accesses.

    Returns ``None`` when anything inside the nest is not static control.
    """
    results: list[tuple[Assign, IterationDomain, list[AccessRelation]]] = []
    if not _visit_nest(loop, (), (), param_names, results):
        return None
    return results


def _visit_nest(
    stmt: Stmt,
    dims: tuple[LoopDim, ...],
    loop_vars: tuple[str, ...],
    param_names: set[str],
    results: list[tuple[Assign, IterationDomain, list[AccessRelation]]],
) -> bool:
    """Append the statements under *stmt* to *results*; False when
    something there is not static control."""
    if isinstance(stmt, Loop):
        enclosing = set(loop_vars)
        lower = affine_from_expr(stmt.lower, enclosing, param_names)
        upper = affine_from_expr(stmt.upper, enclosing, param_names)
        if lower is None or upper is None:
            return False
        if stmt.var in enclosing or stmt.var in param_names:
            return False  # shadowing breaks static control
        dim = LoopDim(var=stmt.var, lower=lower, upper=upper, step=stmt.step)
        return _visit_nest(
            stmt.body, dims + (dim,), loop_vars + (stmt.var,), param_names, results
        )
    if isinstance(stmt, Block):
        return all(
            _visit_nest(child, dims, loop_vars, param_names, results)
            for child in stmt.stmts
        )
    if isinstance(stmt, Assign):
        if isinstance(stmt.target, VarRef):
            return False  # scalar writes not supported in SCoPs
        accesses = accesses_of_statement(stmt, loop_vars, param_names)
        if accesses is None:
            return False
        results.append((stmt, IterationDomain(dims), accesses))
        return True
    return False  # calls, conditionals
