"""Whole-program container for the loop-nest IR."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.ir.expr import Expr, IntConst, ParamRef
from repro.ir.stmt import Assign, Block, Loop
from repro.ir.types import ElementType


@dataclass
class ParamDecl:
    """A program parameter: a symbolic problem size or a scalar constant.

    Sizes (``M``, ``N``, ``K``) are integers; scalars (``alpha``, ``beta``)
    are floats.  Parameters are read-only for the whole program.
    """

    name: str
    elem_type: ElementType = ElementType.I32

    @property
    def is_size(self) -> bool:
        return not self.elem_type.is_float


@dataclass
class ArrayDecl:
    """A (multi-dimensional) array declaration.

    ``shape`` entries are IR expressions over parameters and constants; the
    concrete extents are resolved when the program is executed with a
    parameter binding.
    """

    name: str
    shape: tuple[Expr, ...]
    elem_type: ElementType = ElementType.F32

    def __init__(
        self,
        name: str,
        shape: Iterable[Expr | int | str],
        elem_type: ElementType = ElementType.F32,
    ):
        self.name = name
        dims: list[Expr] = []
        for dim in shape:
            if isinstance(dim, Expr):
                dims.append(dim)
            elif isinstance(dim, int):
                dims.append(IntConst(dim))
            elif isinstance(dim, str):
                dims.append(ParamRef(dim))
            else:
                raise TypeError(f"invalid array dimension: {dim!r}")
        self.shape = tuple(dims)
        self.elem_type = elem_type

    @property
    def rank(self) -> int:
        return len(self.shape)

    def extent(self, params: dict[str, int | float]) -> tuple[int, ...]:
        """Concrete shape under a parameter binding."""
        from repro.ir.interp import evaluate_expr

        return tuple(int(evaluate_expr(dim, params, {})) for dim in self.shape)

    def size_bytes(self, params: dict[str, int | float]) -> int:
        """Total footprint in bytes under a parameter binding."""
        total = 1
        for dim in self.extent(params):
            total *= dim
        return total * self.elem_type.size_bytes

    def __str__(self) -> str:
        dims = "".join(f"[{d}]" for d in self.shape)
        return f"{self.elem_type.value} {self.name}{dims};"


@dataclass
class Program:
    """A complete kernel program.

    Mirrors a C translation unit containing a single kernel function: the
    parameters are the function's scalar arguments, the arrays its array
    arguments, and ``body`` the function body.
    """

    name: str
    params: list[ParamDecl] = field(default_factory=list)
    arrays: list[ArrayDecl] = field(default_factory=list)
    body: Block = field(default_factory=Block)
    #: What the execution engines derived from this program (nest plans,
    #: emitted kernels; see :mod:`repro.ir.engine.engine`), filled on the
    #: first run.  It is keyed on the identity of this object's statements
    #: and holds compiled functions, so it is not part of the program's
    #: value: pickles and copies leave it behind and re-plan lazily.
    engine_plans: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        return {**self.__dict__, "engine_plans": None}

    def param(self, name: str) -> ParamDecl:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"no parameter named {name!r} in program {self.name!r}")

    def array(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(f"no array named {name!r} in program {self.name!r}")

    @property
    def param_names(self) -> list[str]:
        return [p.name for p in self.params]

    @property
    def array_names(self) -> list[str]:
        return [a.name for a in self.arrays]

    def top_level_loops(self) -> list[Loop]:
        """Loops appearing directly in the program body."""
        return [s for s in self.body.stmts if isinstance(s, Loop)]

    def statements(self) -> list[Assign]:
        """All assignment statements in the program, pre-order."""
        return [s for s in self.body.walk() if isinstance(s, Assign)]

    def clone(self) -> "Program":
        """Deep copy of the program (statements are mutable)."""
        import copy

        return copy.deepcopy(self)

    def __str__(self) -> str:
        from repro.ir.printer import to_source

        return to_source(self)
