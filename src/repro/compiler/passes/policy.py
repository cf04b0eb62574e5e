"""Offload selection: the decision the select-offload pass makes per kernel.

The paper's compiler offloads every kernel Loop Tactics matches, with an
optional compute-intensity threshold ("Selective Geomean").  That behaviour
is the ``"threshold"`` policy, the default.  ``"always"`` is an ablation
policy: it bypasses the kind filter and the intensity heuristic entirely,
so benchmarks can bound what the selection logic itself contributes.
``"never"`` is the plain ``-O3`` host baseline: nothing is offloaded and
the compiled program is the (normalised) input program.  A policy is a name in ``CompileOptions.offload_policy``, so
it is part of the compile fingerprint like every other option;
:func:`decide_offload` reads it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Optional

from repro.compiler.report import KernelDecision
from repro.tactics.patterns import KernelMatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.options import CompileOptions
    from repro.poly.scop import Scop


def estimated_intensity(
    match: KernelMatch,
    size_hint: Optional[Mapping[str, int | float]],
) -> tuple[Optional[float], Optional[str]]:
    """MACs per crossbar-cell write, estimated from the size hint: the
    product of the kernel's extents over the product of the extents that
    subscript its stationary operand.

    Returns ``(intensity, note)``: ``intensity`` is ``None`` when it cannot
    be estimated, and ``note`` explains why when the cause is an incomplete
    size hint (a missing loop-extent parameter), so the decision reason can
    surface it instead of silently dropping the heuristic.

    ``size_hint`` should already be a plain dict — callers convert once up
    front rather than per ``extent()`` lookup.
    """
    if size_hint is None:
        return None, None
    hints = size_hint if isinstance(size_hint, dict) else dict(size_hint)
    spec = match.spec
    try:
        extents = {role: match.extent(role, hints) for role in spec.dims}
    except (KeyError, TypeError) as exc:
        # An extent parameter is absent from (or non-numeric in) the size
        # hint; anything else — a genuinely broken match — must propagate.
        return None, f"size hint missing extent: {exc}"
    # Every stationary-operand element is written once and used by the
    # iterations over the other dimensions.
    writes = math.prod(extents[role] for role in spec.stationary_dims)
    if writes == 0:
        return None, None
    return math.prod(extents.values()) / writes, None


#: The names ``CompileOptions.offload_policy`` accepts.
OFFLOAD_POLICIES = ("threshold", "always", "never")


def validate_policy(name: str) -> None:
    if name not in OFFLOAD_POLICIES:
        raise ValueError(
            f"unknown offload policy {name!r}; "
            f"available: {sorted(OFFLOAD_POLICIES)}"
        )


def decide_offload(
    scop: "Scop",
    match: KernelMatch,
    options: "CompileOptions",
    size_hint: Optional[dict[str, int | float]],
) -> KernelDecision:
    """Whether *match* is offloaded under *options*, and why.

    Under ``"never"`` (the plain ``-O3`` host baseline) every kernel stays
    on the host and no intensity is estimated.  ``"always"`` offloads every
    kernel; ``"threshold"`` applies the kind filter, then
    ``min_macs_per_write`` when the intensity can be estimated.
    """
    never = options.offload_policy == "never"
    intensity, note = (None, None) if never else estimated_intensity(match, size_hint)
    threshold = options.min_macs_per_write
    if never:
        offloaded, reason = False, "offloading disabled"
    elif options.offload_policy == "always":
        offloaded, reason = True, "always-offload policy (ablation)"
    elif not options.wants_kind(match.kind):
        offloaded, reason = False, f"kind {match.kind!r} excluded by options"
    elif threshold is not None and intensity is not None and intensity < threshold:
        offloaded, reason = False, (
            f"compute intensity {intensity:.1f} MACs/write below "
            f"threshold {threshold:.1f}"
        )
    else:
        offloaded, reason = True, "pattern matched by Loop Tactics"
        if note is not None:
            reason = f"{reason} ({note})"
    return KernelDecision(
        scop=scop.name,
        statement=match.update_stmt,
        kind=match.kind,
        offloaded=offloaded,
        reason=reason,
        estimated_macs_per_write=intensity,
    )
