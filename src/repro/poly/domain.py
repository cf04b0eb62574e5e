"""Iteration domains of SCoP statements.

A domain is an ordered list of loop dimensions, outermost first.  Each
dimension carries its induction-variable name, affine lower and (exclusive)
upper bounds, and the step.  For the kernels the paper evaluates the domains
are rectangular (bounds depend only on parameters), but bounds referencing
outer loop variables are represented and evaluated correctly; only
cardinality computation requires numeric enumeration in that case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.poly.affine import AffineExpr


@dataclass(frozen=True)
class LoopDim:
    """One loop dimension of an iteration domain."""

    var: str
    lower: AffineExpr
    upper: AffineExpr  # exclusive
    step: int = 1

    def trip_count(self, bindings: Mapping[str, int]) -> int:
        """Number of iterations under a binding of params and outer vars."""
        lo = self.lower.evaluate(bindings)
        hi = self.upper.evaluate(bindings)
        if hi <= lo:
            return 0
        return (hi - lo + self.step - 1) // self.step

    def rename(self, old: str, new: str) -> "LoopDim":
        return LoopDim(
            var=new if self.var == old else self.var,
            lower=self.lower.rename_var(old, new),
            upper=self.upper.rename_var(old, new),
            step=self.step,
        )

    def __str__(self) -> str:
        return f"{self.lower} <= {self.var} < {self.upper} step {self.step}"


@dataclass(frozen=True)
class IterationDomain:
    """Ordered set of loop dimensions enclosing a statement."""

    dims: tuple[LoopDim, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.dims)

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(d.var for d in self.dims)

    def dim(self, var: str) -> LoopDim:
        for d in self.dims:
            if d.var == var:
                return d
        raise KeyError(f"domain has no dimension {var!r}")

    def has_dim(self, var: str) -> bool:
        return any(d.var == var for d in self.dims)

    def cardinality(self, params: Mapping[str, int]) -> int:
        """Number of iteration points under a parameter binding.

        Rectangular domains multiply trip counts; non-rectangular domains are
        enumerated dimension by dimension.
        """
        if self._bounds_param_only():
            total = 1
            for d in self.dims:
                total *= d.trip_count(params)
            return total
        return sum(1 for _ in self.points(params))

    def _bounds_param_only(self) -> bool:
        return all(
            not d.lower.used_vars() and not d.upper.used_vars() for d in self.dims
        )

    def points(self, params: Mapping[str, int]) -> Iterator[tuple[int, ...]]:
        """Enumerate all iteration points (outermost dimension first)."""

        def recurse(index: int, bindings: dict[str, int]) -> Iterator[tuple[int, ...]]:
            if index == len(self.dims):
                yield tuple(bindings[d.var] for d in self.dims)
                return
            dim = self.dims[index]
            lo = dim.lower.evaluate(bindings)
            hi = dim.upper.evaluate(bindings)
            for value in range(lo, hi, dim.step):
                bindings[dim.var] = value
                yield from recurse(index + 1, bindings)
            bindings.pop(dim.var, None)

        yield from recurse(0, dict(params))

    def rename(self, old: str, new: str) -> "IterationDomain":
        return IterationDomain(tuple(d.rename(old, new) for d in self.dims))

    def project_onto(self, vars_subset: Sequence[str]) -> "IterationDomain":
        """Keep only the listed dimensions, preserving order."""
        keep = set(vars_subset)
        return IterationDomain(tuple(d for d in self.dims if d.var in keep))

    def __str__(self) -> str:
        return "{ " + " and ".join(str(d) for d in self.dims) + " }"
