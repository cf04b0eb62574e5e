"""Named pipelines and the pass registry.

A pipeline is a name: ``CompileOptions(pipeline="no-fusion")`` selects one
of the fixed pass orders of :data:`NAMED_PIPELINES`, whose pass names
resolve through :data:`PASS_REGISTRY`.
"""

from __future__ import annotations

from repro.compiler.passes.analysis_passes import MatchKernelsPass, SelectOffloadPass
from repro.compiler.passes.base import Pass, PipelineError
from repro.compiler.passes.frontend_passes import (
    BuildScheduleTreesPass,
    DetectScopsPass,
    NormalizeReductionsPass,
    ParsePass,
)
from repro.compiler.passes.lower_passes import LowerPass
from repro.compiler.passes.manager import PassManager
from repro.compiler.passes.transform_passes import (
    DeviceMapPass,
    FusionPass,
    IsolatePass,
    TilingPass,
)

#: Every built-in pass, keyed by its pipeline name.
PASS_REGISTRY: dict[str, type[Pass]] = {
    cls.name: cls
    for cls in (
        ParsePass,
        NormalizeReductionsPass,
        DetectScopsPass,
        BuildScheduleTreesPass,
        MatchKernelsPass,
        SelectOffloadPass,
        IsolatePass,
        FusionPass,
        TilingPass,
        DeviceMapPass,
        LowerPass,
    )
}

_FRONT_HALF = (
    "parse",
    "normalize-reductions",
    "detect-scops",
    "build-schedule-trees",
    "match-kernels",
)

#: Predefined pipelines, selectable via ``CompileOptions.pipeline``.
NAMED_PIPELINES: dict[str, tuple[str, ...]] = {
    # The paper's Figure 4 flow.
    "default": _FRONT_HALF
    + (
        "select-offload",
        "isolate",
        "fusion",
        "tiling",
        "device-map",
        "lower",
    ),
    # Ablation: everything except the endurance-oriented kernel fusion.
    "no-fusion": _FRONT_HALF
    + (
        "select-offload",
        "isolate",
        "tiling",
        "device-map",
        "lower",
    ),
    # Analysis only: detect SCoPs and match kernels, transform nothing —
    # the compiled program is the (normalised) input program.
    "detect-only": _FRONT_HALF,
}


def resolve_pass_names(name: str) -> tuple[str, ...]:
    """The pass names of the named pipeline *name*."""
    if isinstance(name, str) and name in NAMED_PIPELINES:
        return NAMED_PIPELINES[name]
    raise PipelineError(
        f"unknown pipeline {name!r}; a pipeline is one of the names "
        f"{sorted(NAMED_PIPELINES)}"
    )


def build_pipeline(name: str = "default") -> PassManager:
    """Instantiate a :class:`PassManager` for the named pipeline *name*."""
    return PassManager([PASS_REGISTRY[p]() for p in resolve_pass_names(name)], name)
