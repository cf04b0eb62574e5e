"""Access-relation matchers with placeholders.

Loop Tactics describes a kernel by the *shape* of its accesses: a pattern
like ``write(C[i, j]), read(A[i, k]), read(B[k, j])`` is matched against a
statement's access relations, where ``i``/``j``/``k`` and ``A``/``B``/``C``
are placeholders that unify with concrete loop variables and array names.
A subscript pattern is one placeholder or a sum of placeholders
(``img[?i + ?p]``); it matches a subscript that is exactly that many loop
variables, each with coefficient 1, with no constant and no parameter.
Unification is consistent: the same placeholder must bind to the same
concrete name everywhere, and with ``distinct_dims`` two distinct
placeholders may not bind to the same loop variable.  Array placeholders
may alias, since e.g. ``C += A * A^T`` is a valid GEMM with repeated
operands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from repro.poly.access import AccessKind, AccessRelation


@dataclass(frozen=True)
class Placeholder:
    """A named placeholder for a loop variable or an array name."""

    name: str
    kind: str = "dim"  # "dim" or "array"

    def __str__(self) -> str:
        return f"?{self.name}"

    def __add__(self, other: "Placeholder") -> tuple["Placeholder", ...]:
        """``?i + ?p``: a subscript pattern that sums two loop variables."""
        return (self, other)


def dim_placeholders(*names: str) -> tuple[Placeholder, ...]:
    return tuple(Placeholder(n, "dim") for n in names)


def array_placeholders(*names: str) -> tuple[Placeholder, ...]:
    return tuple(Placeholder(n, "array") for n in names)


#: One subscript pattern: a placeholder, or a tuple of them meaning their sum.
SubscriptPattern = Union[Placeholder, tuple[Placeholder, ...]]


@dataclass(frozen=True)
class AccessPattern:
    """One access to match: kind, array placeholder, and per subscript the
    placeholders it sums (one term for a plain loop variable)."""

    kind: AccessKind
    array: Placeholder
    subscripts: tuple[tuple[Placeholder, ...], ...]

    def __str__(self) -> str:
        subs = "][".join(" + ".join(map(str, terms)) for terms in self.subscripts)
        return f"{self.kind}:{self.array}[{subs}]"


def _terms(subscripts: Sequence[SubscriptPattern]) -> tuple[tuple[Placeholder, ...], ...]:
    return tuple(s if isinstance(s, tuple) else (s,) for s in subscripts)


def read_access(array: Placeholder, subscripts: Sequence[SubscriptPattern]) -> AccessPattern:
    return AccessPattern(AccessKind.READ, array, _terms(subscripts))


def write_access(array: Placeholder, subscripts: Sequence[SubscriptPattern]) -> AccessPattern:
    return AccessPattern(AccessKind.WRITE, array, _terms(subscripts))


@dataclass
class AccessBinding:
    """Result of a successful access match: placeholder name -> concrete name."""

    dims: dict[str, str] = field(default_factory=dict)
    arrays: dict[str, str] = field(default_factory=dict)

    def dim(self, name: str) -> str:
        return self.dims[name]

    def array(self, name: str) -> str:
        return self.arrays[name]


def _unify(
    placeholders: Sequence[Placeholder],
    variables: Sequence[str],
    dims: dict[str, str],
    distinct_dims: bool,
) -> Optional[dict[str, str]]:
    """Extend *dims* so each placeholder names its variable, if consistent."""
    dims = dict(dims)
    for ph, var in zip(placeholders, variables):
        bound = dims.get(ph.name)
        if bound is None:
            if distinct_dims and var in dims.values():
                return None
            dims[ph.name] = var
        elif bound != var:
            return None
    return dims


def _bind_access(
    pattern: AccessPattern,
    access: AccessRelation,
    binding: AccessBinding,
    distinct_dims: bool,
) -> Iterator[AccessBinding]:
    """Every extension of *binding* that unifies one pattern with one access.

    A sum's terms may bind its variables in any order (``?i + ?p`` matches
    ``p + i``), so a sum yields one candidate per consistent order.
    """
    if pattern.kind is not access.kind or len(pattern.subscripts) != len(access.indices):
        return
    bound_array = binding.arrays.get(pattern.array.name)
    if bound_array is not None and bound_array != access.array:
        return
    orders = []
    for terms, variables in zip(pattern.subscripts, access.unit_vars):
        if variables is None or len(variables) != len(terms):
            return
        # A plain variable has one order; building no permutations for it
        # keeps matching as cheap as before sums existed.
        orders.append(itertools.permutations(variables) if len(terms) > 1 else (variables,))
    placeholders = [ph for terms in pattern.subscripts for ph in terms]
    arrays = {**binding.arrays, pattern.array.name: access.array}
    for order in itertools.product(*orders):
        variables = [var for chosen in order for var in chosen]
        dims = _unify(placeholders, variables, binding.dims, distinct_dims)
        if dims is not None:
            yield AccessBinding(dims, arrays)


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
        for attempt in _bind_access(pattern, access, binding, distinct_dims):
            rest = available[:index] + available[index + 1 :]
            result = _backtrack(remaining[1:], rest, attempt, distinct_dims)
            if result is not None:
                return result
    return None
