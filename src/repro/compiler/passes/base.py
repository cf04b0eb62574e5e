"""Pass base class and the unknown-pipeline error.

A :class:`Pass` is one stage of the TDO-CIM compilation flow.  It reads and
writes a shared :class:`~repro.compiler.passes.context.CompilationContext`.
The pass orders are the fixed tuples of
:data:`~repro.compiler.passes.pipelines.NAMED_PIPELINES`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.passes.context import CompilationContext


class PipelineError(ValueError):
    """A pipeline that is not the name of a named pipeline."""


class Pass:
    """One stage of the compilation pipeline.

    Subclasses set :attr:`name` (the identifier used in
    :data:`~repro.compiler.passes.pipelines.NAMED_PIPELINES` and
    ``CompileOptions.dump_ir_after``) and implement :meth:`run`.
    Passes must be stateless across invocations: all inter-pass state lives
    in the :class:`CompilationContext`.
    """

    name: ClassVar[str] = "<anonymous>"

    def run(self, ctx: "CompilationContext") -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
