"""The pass manager: ordering validation + per-pass instrumentation."""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.compiler.passes.base import Pass, PipelineError
from repro.compiler.passes.context import CompilationContext
from repro.compiler.report import PassTiming
from repro.ir.printer import to_source


class PassManager:
    """Owns pass ordering and executes a pipeline over one context.

    The dataflow contract (every pass's ``requires`` satisfied by an
    earlier pass's ``provides``) is validated at construction, so a broken
    pipeline fails before any compilation starts.  :meth:`run` records one
    :class:`~repro.compiler.report.PassTiming` (wall time) per executed
    pass into ``report.pass_timings`` and stores IR dumps for the passes
    named in ``CompileOptions.dump_ir_after``.
    """

    def __init__(self, passes: Sequence[Pass], description: Optional[str] = None):
        self.passes = list(passes)
        #: Human-readable pipeline description (a named pipeline, or the
        #: joined pass list for explicit pipelines).
        self.description = description or "+".join(p.name for p in self.passes)
        self._validate()

    # ------------------------------------------------------------------
    @property
    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]

    def _validate(self) -> None:
        if not self.passes:
            raise PipelineError("a pass pipeline must contain at least one pass")
        available = {"source"}
        for index, pass_ in enumerate(self.passes):
            missing = [fact for fact in pass_.requires if fact not in available]
            if missing:
                raise PipelineError(
                    f"pass {pass_.name!r} (position {index}) requires "
                    f"{missing} which no earlier pass provides; "
                    f"pipeline order: {self.pass_names}"
                )
            too_late = [fact for fact in pass_.conflicts if fact in available]
            if too_late:
                raise PipelineError(
                    f"pass {pass_.name!r} (position {index}) must run before "
                    f"{too_late} is established, but an earlier pass already "
                    f"provides it; pipeline order: {self.pass_names}"
                )
            available.update(pass_.provides)

    # ------------------------------------------------------------------
    def run(self, ctx: CompilationContext) -> CompilationContext:
        dump_after = set(ctx.options.dump_ir_after or ())
        for pass_ in self.passes:
            started = time.perf_counter()
            pass_.run(ctx)
            elapsed = time.perf_counter() - started
            ctx.report.pass_timings.append(PassTiming(pass_.name, elapsed))
            if pass_.name in dump_after:
                ctx.report.ir_dumps[pass_.name] = (
                    to_source(ctx.program) if ctx.program is not None else ""
                )
        return ctx

    def __repr__(self) -> str:
        return f"PassManager({self.description!r}, passes={self.pass_names})"
