"""Compiled (vectorized) execution engine for the loop-nest IR.

The engine compiles affine loop nests of a :class:`~repro.ir.program.Program`
into vectorized NumPy operations instead of interpreting them element by
element.  Results are bit-identical to the reference interpreter (no
floating-point reassociation) and the
:class:`~repro.ir.interp.ExecutionTrace` is derived analytically from the
polyhedral trip counts, so the host cost model reports the exact same
instruction/energy/time numbers.

Four engine modes are available (see :func:`make_engine`):

* ``"interpreter"`` — the reference tree-walking interpreter.
* ``"vectorized"`` — compiled NumPy execution through broadcast index-grid
  gathers; bit-identical to the interpreter.
* ``"fast"`` — the **default**: additionally slice-lowers every affine
  assignment (``coeff * var + offset`` subscripts become basic views) and
  emits each such nest once as a straight-line Python function, so
  sequential reduction loops run as ordered folds of vectorized slice
  updates.  Still bit-identical — per element the operations and their
  order are unchanged; only operand materialization differs.
* ``"native"`` — the fast engine plus an optional C backend: eligible
  nests are translated to C (literal loop-for-loop translation, so the
  accumulation order is identical by construction), compiled with the
  system C compiler and called through ``cffi``.  Falls back to ``"fast"``
  per nest — and entirely when the toolchain or ``cffi`` is absent.

Nest plans, emitted kernels and compiled C nests are built the first time
a program runs and kept on the program (``Program.engine_plans``), so
every later engine instance for that program reuses them; they are left
behind when the program is pickled or copied.

Use :func:`repro.ir.engine.lowering.program_lowering_report` (surfaced as
``CompilationReport.nest_lowerings``) to see which tier every nest landed
on and why.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.interp import CallHandler, Interpreter
from repro.ir.program import Program

from repro.ir.engine.engine import VectorizedEngine
from repro.ir.engine.lowering import (
    NestLowering,
    StatementLowering,
    program_lowering_report,
)
from repro.ir.engine.native import NativeEngine, native_available

#: Valid values for the ``engine`` compile/execution option.
ENGINE_MODES = ("interpreter", "vectorized", "fast", "native")

#: The default engine: the exact fold-lowered fast path.
DEFAULT_ENGINE = "fast"


def validate_engine(engine: str) -> str:
    """Check an engine name against :data:`ENGINE_MODES`; returns it."""
    if engine not in ENGINE_MODES:
        raise ValueError(
            f"unknown execution engine {engine!r}; expected one of {ENGINE_MODES}"
        )
    return engine


def make_engine(
    program: Program,
    call_handler: Optional[CallHandler] = None,
    engine: str = DEFAULT_ENGINE,
) -> Interpreter:
    """Instantiate the execution engine selected by *engine*."""
    validate_engine(engine)
    if engine == "interpreter":
        return Interpreter(program, call_handler=call_handler)
    if engine == "vectorized":
        return VectorizedEngine(program, call_handler=call_handler)
    if engine == "fast":
        return VectorizedEngine(program, call_handler=call_handler, fold=True)
    return NativeEngine(program, call_handler=call_handler)


__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_MODES",
    "NativeEngine",
    "NestLowering",
    "StatementLowering",
    "VectorizedEngine",
    "make_engine",
    "native_available",
    "program_lowering_report",
    "validate_engine",
]
