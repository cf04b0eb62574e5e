"""Access-relation matchers with placeholders.

Loop Tactics complements structural tree matchers with *access matchers*: a
pattern like ``write(C[i, j]), read(A[i, k]), read(B[k, j])`` is matched
against a statement's access relations, where ``i``/``j``/``k`` and
``A``/``B``/``C`` are placeholders that unify with concrete loop variables
and array names.  Unification is consistent: the same placeholder must bind
to the same concrete name everywhere, and two distinct placeholders may not
bind to the same loop variable (arrays *may* alias unless
``distinct_arrays`` is requested, since e.g. ``C += A * A^T`` is a valid
GEMM with repeated operands).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.poly.access import AccessKind, AccessRelation


@dataclass(frozen=True)
class Placeholder:
    """A named placeholder for a loop variable or an array name."""

    name: str
    kind: str = "dim"  # "dim" or "array"

    def __str__(self) -> str:
        return f"?{self.name}"


def dim_placeholders(*names: str) -> tuple[Placeholder, ...]:
    return tuple(Placeholder(n, "dim") for n in names)


def array_placeholders(*names: str) -> tuple[Placeholder, ...]:
    return tuple(Placeholder(n, "array") for n in names)


@dataclass(frozen=True)
class AccessPattern:
    """One access to match: kind, array placeholder, subscript placeholders."""

    kind: AccessKind
    array: Placeholder
    subscripts: tuple[Placeholder, ...]

    def __str__(self) -> str:
        subs = "][".join(str(s) for s in self.subscripts)
        return f"{self.kind}:{self.array}[{subs}]"


def read_access(array: Placeholder, subscripts: Sequence[Placeholder]) -> AccessPattern:
    return AccessPattern(AccessKind.READ, array, tuple(subscripts))


def write_access(array: Placeholder, subscripts: Sequence[Placeholder]) -> AccessPattern:
    return AccessPattern(AccessKind.WRITE, array, tuple(subscripts))


@dataclass
class AccessBinding:
    """Result of a successful access match: placeholder name -> concrete name."""

    dims: dict[str, str] = field(default_factory=dict)
    arrays: dict[str, str] = field(default_factory=dict)

    def dim(self, name: str) -> str:
        return self.dims[name]

    def array(self, name: str) -> str:
        return self.arrays[name]


def _bind_access(
    pattern: AccessPattern,
    access: AccessRelation,
    binding: AccessBinding,
    distinct_dims: bool,
) -> Optional[AccessBinding]:
    """Try to unify one pattern with one concrete access."""
    if pattern.kind is not access.kind:
        return None
    concrete_vars = access.single_vars()
    if concrete_vars is None or len(concrete_vars) != len(pattern.subscripts):
        return None  # only simple single-variable subscripts are matched here
    # Array placeholder unification.
    bound_array = binding.arrays.get(pattern.array.name)
    if bound_array is not None and bound_array != access.array:
        return None
    # Subscript placeholder unification.
    dims = dict(binding.dims)
    for ph, var in zip(pattern.subscripts, concrete_vars):
        bound = dims.get(ph.name)
        if bound is None:
            if distinct_dims and var in dims.values():
                return None
            dims[ph.name] = var
        elif bound != var:
            return None
    arrays = dict(binding.arrays)
    arrays[pattern.array.name] = access.array
    return AccessBinding(dims, arrays)


def match_accesses(
    accesses: Sequence[AccessRelation],
    patterns: Sequence[AccessPattern],
    distinct_dims: bool = True,
    allow_extra: bool = False,
) -> Optional[AccessBinding]:
    """Match a statement's access list against a pattern list.

    Every pattern must be matched by a distinct access.  When ``allow_extra``
    is false (the default), every access must also be consumed by some
    pattern — the statement does exactly what the pattern says and nothing
    more, which is what offloading requires.

    Duplicate accesses (the read and write of a ``+=`` target have identical
    subscripts) are handled by searching over assignments of patterns to
    accesses (the lists are tiny, so backtracking is cheap).
    """
    accesses = list(accesses)
    patterns = list(patterns)
    if not allow_extra and len(accesses) != len(patterns):
        return None
    if len(patterns) > len(accesses):
        return None
    return _backtrack(patterns, accesses, AccessBinding(), distinct_dims)


def _backtrack(
    remaining: list[AccessPattern],
    available: list[AccessRelation],
    binding: AccessBinding,
    distinct_dims: bool,
) -> Optional[AccessBinding]:
    """Bind each remaining pattern to a distinct available access."""
    if not remaining:
        return binding
    pattern = remaining[0]
    for index, access in enumerate(available):
        attempt = _bind_access(pattern, access, binding, distinct_dims)
        if attempt is None:
            continue
        rest = available[:index] + available[index + 1 :]
        result = _backtrack(remaining[1:], rest, attempt, distinct_dims)
        if result is not None:
            return result
    return None
