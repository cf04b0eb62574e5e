"""The TDO-CIM compiler driver (the paper's primary contribution).

:class:`TdoCimCompiler` runs the whole Figure 4 pipeline: mini-C front-end
→ SCoP detection → schedule-tree construction → Loop Tactics pattern
matching → kernel fusion → (optional) crossbar-aware tiling → device mapping
→ AST regeneration → program reassembly.  The output is a compiled program
whose offloaded kernels have been replaced by CIM runtime calls, plus a
report describing every decision the compiler made.

The pipeline is a pass-manager subsystem (:mod:`repro.compiler.passes`):
:class:`Pass` stages over one :class:`CompilationContext`, run in the
fixed order of a named pipeline (``"default"``, ``"no-fusion"``,
``"detect-only"``) that ``CompileOptions.pipeline`` selects, with
per-pass wall-time timings in ``CompilationReport.pass_timings`` and
offload policies selected by name.

Because the pipeline is pure, repeated invocations are memoised by the
content-addressed :class:`~repro.compiler.cache.KernelCompileCache`
(:mod:`repro.compiler.cache`): an in-memory LRU keyed by a hash of the
source, the :class:`CompileOptions` and the size hint, with optional
on-disk persistence for cross-process workload sweeps.
"""

from repro.compiler.options import CompileOptions
from repro.compiler.report import CompilationReport, KernelDecision, PassTiming
from repro.compiler.cache import (
    KernelCompileCache,
    compile_fingerprint,
    get_default_cache,
)
from repro.compiler.driver import TdoCimCompiler, CompilationResult, compile_source
from repro.compiler.passes import (
    NAMED_PIPELINES,
    CompilationContext,
    Pass,
    PassManager,
    PipelineError,
    build_pipeline,
    resolve_pass_names,
)

__all__ = [
    "CompileOptions",
    "CompilationReport",
    "KernelDecision",
    "PassTiming",
    "TdoCimCompiler",
    "CompilationResult",
    "compile_source",
    "KernelCompileCache",
    "compile_fingerprint",
    "get_default_cache",
    "Pass",
    "PassManager",
    "PipelineError",
    "CompilationContext",
    "NAMED_PIPELINES",
    "build_pipeline",
    "resolve_pass_names",
]
