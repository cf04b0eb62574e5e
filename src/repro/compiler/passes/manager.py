"""The pass manager: runs a pipeline's passes with per-pass instrumentation."""

from __future__ import annotations

import time
from typing import Sequence

from repro.compiler.passes.base import Pass
from repro.compiler.passes.context import CompilationContext
from repro.compiler.report import PassTiming
from repro.ir.printer import to_source


class PassManager:
    """Executes a named pipeline's passes, in order, over one context.

    :meth:`run` records one :class:`~repro.compiler.report.PassTiming`
    (wall time) per executed pass into ``report.pass_timings`` and stores
    IR dumps for the passes named in ``CompileOptions.dump_ir_after``.
    """

    def __init__(self, passes: Sequence[Pass], description: str):
        self.passes = list(passes)
        #: The name of the pipeline.
        self.description = description

    @property
    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]

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
