"""Named pipelines and the pass registry.

Benchmarks and ablations select pipelines declaratively —
``CompileOptions(pipeline="no-fusion")`` — instead of toggling individual
feature flags.  A pipeline description is either the name of a predefined
pipeline or an explicit sequence of pass names; both resolve through
:data:`PASS_REGISTRY`.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.compiler.passes.analysis_passes import MatchKernelsPass, SelectOffloadPass
from repro.compiler.passes.base import Pass, PipelineError
from repro.compiler.passes.frontend_passes import (
    BuildScheduleTreesPass,
    DetectScopsPass,
    NormalizeReductionsPass,
    ParsePass,
)
from repro.compiler.passes.lower_passes import EngineLowerPass, LowerPass
from repro.compiler.passes.manager import PassManager
from repro.compiler.passes.transform_passes import (
    DeviceMapPass,
    FusionPass,
    IsolatePass,
    TilingPass,
)

PipelineDescription = Union[str, Sequence[str]]

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
        EngineLowerPass,
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
        "engine-lower",
    ),
    # Ablation: everything except the endurance-oriented kernel fusion.
    "no-fusion": _FRONT_HALF
    + (
        "select-offload",
        "isolate",
        "tiling",
        "device-map",
        "lower",
        "engine-lower",
    ),
    # Analysis only: detect SCoPs and match kernels, transform nothing —
    # the compiled program is the (normalised) input program.
    "detect-only": _FRONT_HALF,
}


def resolve_pass_names(description: PipelineDescription) -> tuple[str, ...]:
    """Expand a pipeline description into the concrete pass-name sequence."""
    if isinstance(description, str):
        try:
            return NAMED_PIPELINES[description]
        except KeyError:
            raise PipelineError(
                f"unknown pipeline {description!r}; "
                f"named pipelines: {sorted(NAMED_PIPELINES)} "
                f"(or pass an explicit sequence of pass names)"
            ) from None
    names = tuple(description)
    for name in names:
        if name not in PASS_REGISTRY:
            raise PipelineError(
                f"unknown pass {name!r} in explicit pipeline {list(names)}; "
                f"available passes: {sorted(PASS_REGISTRY)}"
            )
    return names


def validate_pipeline(description: PipelineDescription) -> None:
    """Check a pipeline description (names only; ordering is checked by
    :class:`PassManager` when the pipeline is built)."""
    resolve_pass_names(description)


def build_pipeline(description: PipelineDescription = "default") -> PassManager:
    """Instantiate a :class:`PassManager` for a pipeline description."""
    names = resolve_pass_names(description)
    label = description if isinstance(description, str) else "+".join(names)
    return PassManager([PASS_REGISTRY[name]() for name in names], description=label)
