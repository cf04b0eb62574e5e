"""Memory dependence analysis over SCoP statements.

Two levels of precision are provided, matching what the TDO-CIM flow needs:

* **Array-level** independence (:func:`kernels_independent`) — the check the
  paper's kernel-fusion transformation uses (Section III-B): kernel *Y* may
  be fused with a preceding kernel *X* only if *Y* neither reads nor writes
  any output of *X* and does not write any input of *X*.
* **Access-level** dependences with distance vectors
  (:func:`compute_dependences`) — used to mark bands permutable (legal to
  tile/interchange) and exercised heavily by the unit and property tests.
  The test implemented here handles the uniform-access case (both accesses
  have identical loop-variable coefficient structure, so the dependence
  distance is a constant vector) and falls back to a conservative "unknown
  distance" dependence otherwise.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional

from repro.poly.access import AccessKind, AccessRelation
from repro.poly.scop import Scop, ScopStatement


class DependenceKind(enum.Enum):
    FLOW = "flow"      # write -> read  (true dependence)
    ANTI = "anti"      # read  -> write
    OUTPUT = "output"  # write -> write

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Dependence:
    """A memory dependence between two statement instances."""

    source: str
    target: str
    array: str
    kind: DependenceKind
    # Constant distance per *common* loop dimension (outermost first); None
    # when the distance is unknown (non-uniform accesses).
    distance: Optional[tuple[int, ...]] = None
    common_loops: tuple[str, ...] = ()

    @property
    def is_loop_independent(self) -> bool:
        return self.distance is not None and all(d == 0 for d in self.distance)

    def carried_by(self) -> Optional[str]:
        """Name of the outermost loop carrying this dependence, if known."""
        if self.distance is None:
            return None
        for var, dist in zip(self.common_loops, self.distance):
            if dist != 0:
                return var
        return None

    def __str__(self) -> str:
        dist = "unknown" if self.distance is None else str(list(self.distance))
        return f"{self.kind} {self.source}->{self.target} on {self.array} dist={dist}"


def _classify(src_kind: AccessKind, dst_kind: AccessKind) -> Optional[DependenceKind]:
    if src_kind is AccessKind.WRITE and dst_kind is AccessKind.READ:
        return DependenceKind.FLOW
    if src_kind is AccessKind.READ and dst_kind is AccessKind.WRITE:
        return DependenceKind.ANTI
    if src_kind is AccessKind.WRITE and dst_kind is AccessKind.WRITE:
        return DependenceKind.OUTPUT
    return None  # read-read is not a dependence


def _uniform_distance(
    src: AccessRelation,
    dst: AccessRelation,
    common_loops: tuple[str, ...],
) -> Optional[tuple[int, ...]]:
    """Constant distance vector of two accesses, ``None`` when unknown.

    Accesses are uniform when every subscript pair has equal loop-variable
    and parameter coefficients, so they differ by a constant offset.  A
    subscript in one variable ``v`` pins ``coeff * delta_v = offset``; one in
    several variables pins nothing, and holds only if single-variable
    subscripts pin all its variables and satisfy its equation.  Anything
    else is ``None`` (unknown: callers stay conservative).  Common loops no
    subscript mentions get distance 0.
    """
    if src.rank != dst.rank:
        return None
    distance = dict.fromkeys(common_loops, 0)
    pinned: set[str] = set()
    unpinned: list[tuple[tuple[tuple[str, int], ...], int]] = []
    for s_idx, d_idx in zip(src.indices, dst.indices):
        coeffs = s_idx.var_coeffs
        if coeffs != d_idx.var_coeffs or s_idx.param_coeffs != d_idx.param_coeffs:
            return None
        if any(var not in distance for var, _ in coeffs):
            return None
        offset = s_idx.constant - d_idx.constant
        if len(coeffs) > 1:
            unpinned.append((coeffs, offset))
        elif coeffs:
            ((var, coeff),) = coeffs
            if offset % coeff != 0:
                return None  # no integer solution: unknown, not "no dependence"
            delta = offset // coeff
            if var in pinned and distance[var] != delta:
                return None
            distance[var] = delta
            pinned.add(var)
        elif offset != 0:
            return None  # distinct constants never overlap; also reported as unknown
    for coeffs, offset in unpinned:
        if any(var not in pinned for var, _ in coeffs):
            return None
        if sum(coeff * distance[var] for var, coeff in coeffs) != offset:
            return None
    return tuple(distance[var] for var in common_loops)


def compute_dependences(scop: Scop) -> list[Dependence]:
    """All pairwise memory dependences between statements of *scop*.

    Statement order follows textual (program) order; only dependences from an
    earlier or equal statement to a later or equal statement are reported
    (self-dependences capture reduction updates such as ``C[i][j] += ...``).
    """
    dependences: list[Dependence] = []
    statements = scop.statements
    for i, src_stmt in enumerate(statements):
        for dst_stmt in statements[i:]:
            dependences.extend(_statement_pair(src_stmt, dst_stmt))
    return dependences


def _lex_negative(distance: tuple[int, ...]) -> bool:
    """True when the distance vector is lexicographically negative."""
    for value in distance:
        if value < 0:
            return True
        if value > 0:
            return False
    return False


_FLIPPED_KIND = {
    DependenceKind.FLOW: DependenceKind.ANTI,
    DependenceKind.ANTI: DependenceKind.FLOW,
    DependenceKind.OUTPUT: DependenceKind.OUTPUT,
}


def _statement_pair(
    src_stmt: ScopStatement, dst_stmt: ScopStatement
) -> list[Dependence]:
    result: list[Dependence] = []
    dst_loops = dst_stmt.loop_vars
    common_loops = tuple(var for var in src_stmt.loop_vars if var in dst_loops)
    seen: set[tuple[str, str, str, DependenceKind]] = set()
    for src_acc, dst_acc in itertools.product(src_stmt.accesses, dst_stmt.accesses):
        if src_acc.array != dst_acc.array:
            continue
        kind = _classify(src_acc.kind, dst_acc.kind)
        if kind is None:
            continue
        distance = _uniform_distance(src_acc, dst_acc, common_loops)
        source_name, target_name = src_stmt.name, dst_stmt.name
        if distance is not None and _lex_negative(distance):
            # A lexicographically negative distance means the dependence
            # actually flows from the (textually/iteration-wise) later access
            # back to the earlier one: normalise by flipping direction.
            if source_name == target_name:
                # The mirrored self-dependence is already reported with the
                # positive distance; drop the duplicate.
                continue
            source_name, target_name = target_name, source_name
            kind = _FLIPPED_KIND[kind]
            distance = tuple(-d for d in distance)
        key = (source_name, target_name, src_acc.array, kind)
        if key in seen and distance is not None and all(d == 0 for d in distance):
            continue
        seen.add(key)
        result.append(
            Dependence(
                source=source_name,
                target=target_name,
                array=src_acc.array,
                kind=kind,
                distance=distance,
                common_loops=common_loops,
            )
        )
    return result


def kernels_independent(x: ScopStatement, y: ScopStatement) -> bool:
    """Paper's fusion-legality check (Section III-B).

    Kernel *Y* (textually after *X*) is independent of *X* when:

    * *Y* does not read from any output of *X*;
    * *Y* does not write to any output of *X*;
    * *Y* does not write to any input of *X*.
    """
    x_outputs = x.write_arrays()
    x_inputs = x.read_arrays()
    y_reads = y.read_arrays()
    y_writes = y.write_arrays()
    if y_reads & x_outputs:
        return False
    if y_writes & x_outputs:
        return False
    if y_writes & x_inputs:
        return False
    return True


def nest_permutable(scop: Scop, stmt_name: str, loop_vars: tuple[str, ...]) -> bool:
    """True when the loops in *loop_vars* can be freely interchanged/tiled
    for statement *stmt_name*.

    A band is permutable when every dependence carried by one of its loops
    has a non-negative distance in *all* of its loops (the classic
    full-permutability condition).  Unknown distances are conservative.
    """
    for dep in compute_dependences(scop):
        if dep.source != stmt_name or dep.target != stmt_name:
            continue
        if dep.distance is None:
            return False
        for var, dist in zip(dep.common_loops, dep.distance):
            if var in loop_vars and dist < 0:
                return False
    return True
