"""Affine expressions: linear combinations of loop variables and parameters.

An affine expression is ``sum_i c_i * v_i + sum_j d_j * p_j + k`` where the
``v_i`` are loop induction variables, the ``p_j`` are program parameters and
``k`` is an integer constant.  The polyhedral layer analyses IR index
expressions and loop bounds into this normal form; anything that does not fit
(products of variables, data-dependent indices) makes the enclosing region
non-affine and therefore not a SCoP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Expr,
    FloatConst,
    IntConst,
    Max,
    Min,
    ParamRef,
    UnaryOp,
    VarRef,
)


@dataclass(frozen=True)
class AffineExpr:
    """Normal form of an affine expression.

    ``var_coeffs`` maps loop-variable names to integer coefficients,
    ``param_coeffs`` maps parameter names to integer coefficients, and
    ``constant`` is the additive constant.  Zero coefficients are dropped so
    equality means structural equality.
    """

    var_coeffs: tuple[tuple[str, int], ...] = ()
    param_coeffs: tuple[tuple[str, int], ...] = ()
    constant: int = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_parts(
        var_coeffs: Mapping[str, int] | None = None,
        param_coeffs: Mapping[str, int] | None = None,
        constant: int = 0,
    ) -> "AffineExpr":
        vars_clean = tuple(
            sorted((v, int(c)) for v, c in (var_coeffs or {}).items() if c != 0)
        )
        params_clean = tuple(
            sorted((p, int(c)) for p, c in (param_coeffs or {}).items() if c != 0)
        )
        return AffineExpr(vars_clean, params_clean, int(constant))

    @staticmethod
    def constant_expr(value: int) -> "AffineExpr":
        return AffineExpr(constant=int(value))

    @staticmethod
    def var(name: str, coeff: int = 1) -> "AffineExpr":
        return AffineExpr(((name, int(coeff)),) if coeff else ())

    @staticmethod
    def param(name: str, coeff: int = 1) -> "AffineExpr":
        return AffineExpr((), ((name, int(coeff)),) if coeff else ())

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def vars(self) -> dict[str, int]:
        return dict(self.var_coeffs)

    @property
    def params(self) -> dict[str, int]:
        return dict(self.param_coeffs)

    def coeff(self, var: str) -> int:
        """Coefficient of loop variable *var* (0 if absent)."""
        return self.vars.get(var, 0)

    def param_coeff(self, name: str) -> int:
        return self.params.get(name, 0)

    @property
    def is_constant(self) -> bool:
        return not self.var_coeffs and not self.param_coeffs

    def used_vars(self) -> set[str]:
        return {v for v, _ in self.var_coeffs}

    def used_params(self) -> set[str]:
        return {p for p, _ in self.param_coeffs}

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "AffineExpr | int") -> "AffineExpr":
        return self._plus(_as_affine(other), 1)

    def __sub__(self, other: "AffineExpr | int") -> "AffineExpr":
        return self._plus(_as_affine(other), -1)

    def _plus(self, other: "AffineExpr", sign: int) -> "AffineExpr":
        constant = self.constant + sign * other.constant
        if other.is_constant:
            return AffineExpr(self.var_coeffs, self.param_coeffs, constant)
        vars_sum = dict(self.var_coeffs)
        for v, c in other.var_coeffs:
            vars_sum[v] = vars_sum.get(v, 0) + sign * c
        params_sum = dict(self.param_coeffs)
        for p, c in other.param_coeffs:
            params_sum[p] = params_sum.get(p, 0) + sign * c
        return AffineExpr.from_parts(vars_sum, params_sum, constant)

    def __mul__(self, scalar: int) -> "AffineExpr":
        if not isinstance(scalar, int):
            raise TypeError("affine expressions can only be scaled by integers")
        return AffineExpr.from_parts(
            {v: c * scalar for v, c in self.var_coeffs},
            {p: c * scalar for p, c in self.param_coeffs},
            self.constant * scalar,
        )

    __rmul__ = __mul__

    def substitute_var(self, var: str, replacement: "AffineExpr") -> "AffineExpr":
        """Replace loop variable *var* by an affine expression."""
        coeff = self.coeff(var)
        if coeff == 0:
            return self
        remaining = AffineExpr.from_parts(
            {v: c for v, c in self.var_coeffs if v != var},
            dict(self.param_coeffs),
            self.constant,
        )
        return remaining + replacement * coeff

    def rename_var(self, old: str, new: str) -> "AffineExpr":
        return self.substitute_var(old, AffineExpr.var(new))

    # ------------------------------------------------------------------
    # Evaluation and rendering
    # ------------------------------------------------------------------
    def evaluate(self, bindings: Mapping[str, int | float]) -> int:
        """Evaluate under a complete binding of variables and parameters."""
        total = self.constant
        for v, c in self.var_coeffs:
            total += c * int(bindings[v])
        for p, c in self.param_coeffs:
            total += c * int(bindings[p])
        return total

    def to_ir(self) -> Expr:
        """Convert back to an IR expression (canonical form)."""
        terms: list[Expr] = []
        for v, c in self.var_coeffs:
            term: Expr = VarRef(v)
            if c != 1:
                term = BinOp("*", IntConst(c), term)
            terms.append(term)
        for p, c in self.param_coeffs:
            term = ParamRef(p)
            if c != 1:
                term = BinOp("*", IntConst(c), term)
            terms.append(term)
        if self.constant != 0 or not terms:
            terms.append(IntConst(self.constant))
        result = terms[0]
        for term in terms[1:]:
            result = BinOp("+", result, term)
        return result

    def __str__(self) -> str:
        parts = []
        for v, c in self.var_coeffs:
            parts.append(f"{c}*{v}" if c != 1 else v)
        for p, c in self.param_coeffs:
            parts.append(f"{c}*{p}" if c != 1 else p)
        if self.constant or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts)


def _as_affine(value: "AffineExpr | int") -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    return AffineExpr.constant_expr(value)


def affine_from_expr(
    expr: Expr,
    loop_vars: set[str],
    param_names: set[str],
) -> Optional[AffineExpr]:
    """Analyse an IR expression into affine normal form.

    Returns ``None`` when the expression is not affine in the given loop
    variables and parameters (e.g. it multiplies two variables, divides,
    or reads an array).
    """
    if isinstance(expr, IntConst):
        return AffineExpr.constant_expr(expr.value)
    if isinstance(expr, FloatConst):
        if float(expr.value).is_integer():
            return AffineExpr.constant_expr(int(expr.value))
        return None
    if isinstance(expr, VarRef):
        if expr.name in loop_vars:
            return AffineExpr.var(expr.name)
        if expr.name in param_names:
            return AffineExpr.param(expr.name)
        return None
    if isinstance(expr, ParamRef):
        if expr.name in param_names:
            return AffineExpr.param(expr.name)
        if expr.name in loop_vars:
            return AffineExpr.var(expr.name)
        return None
    if isinstance(expr, UnaryOp):
        inner = affine_from_expr(expr.operand, loop_vars, param_names)
        return None if inner is None else inner * -1
    if isinstance(expr, BinOp):
        lhs = affine_from_expr(expr.lhs, loop_vars, param_names)
        rhs = affine_from_expr(expr.rhs, loop_vars, param_names)
        if expr.op == "+":
            if lhs is None or rhs is None:
                return None
            return lhs + rhs
        if expr.op == "-":
            if lhs is None or rhs is None:
                return None
            return lhs - rhs
        if expr.op == "*":
            # One side must be a pure constant for the product to stay affine.
            if lhs is not None and lhs.is_constant and rhs is not None:
                return rhs * lhs.constant
            if rhs is not None and rhs.is_constant and lhs is not None:
                return lhs * rhs.constant
            return None
        return None
    if isinstance(expr, (Min, Max, ArrayRef)):
        return None
    return None
