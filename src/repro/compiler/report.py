"""Compilation report: what was detected, offloaded, fused, and why."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class KernelDecision:
    """The compiler's decision about one detected kernel."""

    scop: str
    statement: str
    kind: str
    offloaded: bool
    reason: str
    fused_with: list[str] = field(default_factory=list)
    estimated_macs_per_write: Optional[float] = None

    def __str__(self) -> str:
        action = "offloaded" if self.offloaded else "kept on host"
        extra = f" fused with {self.fused_with}" if self.fused_with else ""
        return f"{self.kind} kernel {self.statement} ({self.scop}): {action} — {self.reason}{extra}"


@dataclass
class PassTiming:
    """Wall time of one compiler pass."""

    name: str
    wall_time_s: float

    def __str__(self) -> str:
        return f"{self.name:<22s} {self.wall_time_s * 1e3:8.3f} ms"


@dataclass
class CompilationReport:
    """Summary of one TDO-CIM compilation."""

    program: str = ""
    scop_count: int = 0
    decisions: list[KernelDecision] = field(default_factory=list)
    fusion_groups: list[list[str]] = field(default_factory=list)
    tiled_kernels: list[str] = field(default_factory=list)
    runtime_calls_emitted: list[str] = field(default_factory=list)
    #: Per-pass instrumentation recorded by the
    #: :class:`~repro.compiler.passes.manager.PassManager` — one entry per
    #: executed pass, in pipeline order.
    pass_timings: list[PassTiming] = field(default_factory=list)
    #: Printed IR snapshots requested via ``CompileOptions.dump_ir_after``,
    #: keyed by pass name.
    ir_dumps: dict[str, str] = field(default_factory=dict)
    #: Per-nest engine lowering report produced by the ``engine-lower``
    #: pass: which execution tier (interpreter / fold) every
    #: loop nest of the compiled program lands on, and why slower tiers
    #: were chosen.  Entries are
    #: :class:`~repro.ir.engine.lowering.NestLowering` objects.
    nest_lowerings: list = field(default_factory=list)

    @property
    def detected_kernels(self) -> int:
        return len(self.decisions)

    @property
    def offloaded_kernels(self) -> int:
        return sum(1 for d in self.decisions if d.offloaded)

    def summary(self) -> str:
        lines = [
            f"TDO-CIM compilation of {self.program!r}:",
            f"  SCoPs detected:   {self.scop_count}",
            f"  kernels detected: {self.detected_kernels}",
            f"  kernels offloaded: {self.offloaded_kernels}",
        ]
        if self.fusion_groups:
            lines.append(f"  fusion groups:    {self.fusion_groups}")
        if self.tiled_kernels:
            lines.append(f"  tiled kernels:    {self.tiled_kernels}")
        for decision in self.decisions:
            lines.append(f"    - {decision}")
        return "\n".join(lines)

    def lowering_summary(self) -> str:
        """Per-nest engine-tier table (empty string if the pass didn't run)."""
        if not self.nest_lowerings:
            return ""
        lines = [f"engine lowering for {self.program!r}:"]
        lines.extend(f"  {nest.summary()}" for nest in self.nest_lowerings)
        return "\n".join(lines)

    def timing_summary(self) -> str:
        """Per-pass wall-time table (empty string if none)."""
        if not self.pass_timings:
            return ""
        total = sum(t.wall_time_s for t in self.pass_timings)
        lines = [f"pass pipeline for {self.program!r} ({total * 1e3:.3f} ms total):"]
        lines.extend(f"  {timing}" for timing in self.pass_timings)
        return "\n".join(lines)
