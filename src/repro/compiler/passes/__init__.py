"""The pass-manager subsystem of the TDO-CIM compiler.

The Figure 4 flow is decomposed into small, composable passes threaded over
one :class:`CompilationContext`, mirroring the LLVM/Polly pass-manager
architecture the paper builds on:

``parse`` → ``normalize-reductions`` → ``detect-scops`` →
``build-schedule-trees`` → ``match-kernels`` → ``select-offload`` →
``isolate`` → ``fusion`` → ``tiling`` → ``device-map`` → ``lower``

The :class:`PassManager` validates pass ordering at construction, records
per-pass wall time and IR deltas into ``CompilationReport.pass_timings``,
and honours ``CompileOptions.dump_ir_after``.  Pipelines are selected
declaratively via ``CompileOptions.pipeline`` — a name from
:data:`NAMED_PIPELINES` or an explicit pass list — and offload selection
follows the policy named by ``CompileOptions.offload_policy``.  See
``docs/compiler.md``.
"""

from repro.compiler.passes.analysis_passes import MatchKernelsPass, SelectOffloadPass
from repro.compiler.passes.base import Pass, PipelineError
from repro.compiler.passes.context import CompilationContext
from repro.compiler.passes.frontend_passes import (
    BuildScheduleTreesPass,
    DetectScopsPass,
    NormalizeReductionsPass,
    ParsePass,
)
from repro.compiler.passes.lower_passes import LowerPass
from repro.compiler.passes.manager import PassManager
from repro.compiler.passes.pipelines import (
    NAMED_PIPELINES,
    PASS_REGISTRY,
    build_pipeline,
    resolve_pass_names,
    validate_pipeline,
)
from repro.compiler.passes.policy import OFFLOAD_POLICIES, estimated_intensity
from repro.compiler.passes.transform_passes import (
    DeviceMapPass,
    FusionPass,
    IsolatePass,
    TilingPass,
)

__all__ = [
    "Pass",
    "PipelineError",
    "PassManager",
    "CompilationContext",
    "ParsePass",
    "NormalizeReductionsPass",
    "DetectScopsPass",
    "BuildScheduleTreesPass",
    "MatchKernelsPass",
    "SelectOffloadPass",
    "IsolatePass",
    "FusionPass",
    "TilingPass",
    "DeviceMapPass",
    "LowerPass",
    "estimated_intensity",
    "OFFLOAD_POLICIES",
    "PASS_REGISTRY",
    "NAMED_PIPELINES",
    "build_pipeline",
    "resolve_pass_names",
    "validate_pipeline",
]
