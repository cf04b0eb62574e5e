"""Compiled execution engine for the loop-nest IR.

The engine lowers affine loop nests of a :class:`~repro.ir.program.Program`
to emitted kernels (C, or vectorized NumPy) instead of interpreting them
element by element.  Results are bit-identical to the reference
interpreter (no floating-point reassociation) and the
:class:`~repro.ir.interp.ExecutionTrace` is derived analytically from the
polyhedral trip counts, so the host cost model reports the exact same
instruction/energy/time numbers.

Two engine names are accepted (see :func:`make_engine`):

* ``"interpreter"`` — the reference tree-walking interpreter.
* ``"fast"`` — the **default**: slice-lowers every affine assignment
  (``coeff * var + offset`` subscripts become basic views) and emits each
  such nest once as a kernel with one guard and two bodies.  The C body
  (sequential loops first, vectorized axes innermost, compiled with the
  system C compiler and called through ``cffi``) runs when the toolchain
  is present; the fold body (straight-line Python whose sequential
  reduction loops fold vectorized slice updates) runs otherwise.  Both
  are bit-identical — per element the operations and their order are
  unchanged.  A nest with no kernel, or whose guard trips, runs on the
  interpreter.

Nest plans and their kernels, C bodies included, are built the first
time a nest runs and kept on the program (``Program.engine_plans``), so
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
from repro.ir.engine.native import native_available

#: Valid values for the ``engine`` compile/execution option.
ENGINE_MODES = ("interpreter", "fast")

#: The default engine: emitted kernels (C body, else fold body).
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
    if validate_engine(engine) == "interpreter":
        return Interpreter(program, call_handler=call_handler)
    return VectorizedEngine(program, call_handler=call_handler)


__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_MODES",
    "NestLowering",
    "StatementLowering",
    "VectorizedEngine",
    "make_engine",
    "native_available",
    "program_lowering_report",
    "validate_engine",
]
