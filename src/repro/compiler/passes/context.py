"""The compilation state threaded through the pass pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Union

from repro.compiler.report import CompilationReport, KernelDecision
from repro.ir.program import Program
from repro.poly.dependence import Dependence, compute_dependences
from repro.poly.schedule_tree import DomainNode
from repro.poly.scop import Scop
from repro.tactics.patterns import KernelMatch
from repro.transforms.device_map import DeviceMappingResult
from repro.transforms.fusion import FusionGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.options import CompileOptions


@dataclass
class CompilationContext:
    """Everything one compiler invocation knows, shared between passes.

    The context is created by the driver with the immutable inputs
    (``source``, ``options``, ``size_hint``, ``cache_key``) and is then
    populated stage by stage; the per-SCoP lists (``*_by_scop``) run
    parallel to :attr:`scops`/:attr:`trees`.  After the pipeline finishes,
    the driver folds the context into a
    :class:`~repro.compiler.driver.CompilationResult`.
    """

    # ------------------------------------------------------------------
    # Inputs (set once by the driver).
    source: Union[str, Program]
    options: "CompileOptions"
    size_hint: Optional[Mapping[str, int | float]] = None
    #: Content fingerprint of this invocation when compile caching is
    #: active (``None`` otherwise) — observability for tools and dumps.
    cache_key: Optional[str] = None

    # ------------------------------------------------------------------
    # State produced by the passes.
    #: The program after parsing/normalisation, then the compiled program
    #: once the lower pass reassembled the transformed SCoPs.
    program: Optional[Program] = None
    #: The (normalised) input program, kept for host-baseline costing.
    source_program: Optional[Program] = None
    report: CompilationReport = field(default_factory=CompilationReport)
    scops: list[Scop] = field(default_factory=list)
    #: Each SCoP's dependences, computed on first use (see
    #: :meth:`dependences`); ``None`` until then.
    dependences_by_scop: list[Optional[list[Dependence]]] = field(default_factory=list)
    trees: list[DomainNode] = field(default_factory=list)
    matches_by_scop: list[list[KernelMatch]] = field(default_factory=list)
    selected_by_scop: list[list[KernelMatch]] = field(default_factory=list)
    decisions_by_scop: list[list[KernelDecision]] = field(default_factory=list)
    groups_by_scop: list[list[FusionGroup]] = field(default_factory=list)
    mappings: list[DeviceMappingResult] = field(default_factory=list)
    anything_offloaded: bool = False

    #: ``size_hint`` converted to a plain dict exactly once, so repeated
    #: ``match.extent(...)`` calls do not rebuild it per lookup.
    size_hint_values: Optional[dict[str, int | float]] = field(
        init=False, default=None, repr=False
    )

    def __post_init__(self) -> None:
        if self.size_hint is not None:
            self.size_hint_values = dict(self.size_hint)

    # ------------------------------------------------------------------
    @property
    def matches(self) -> list[KernelMatch]:
        """All kernel matches, flattened in SCoP order."""
        return [match for matches in self.matches_by_scop for match in matches]

    def dependences(self, scop_index: int) -> list[Dependence]:
        """The dependences of one SCoP, computed once per compile.

        No pass changes a :class:`Scop` after detection, so every step of
        every transformation can share one list.
        """
        dependences = self.dependences_by_scop[scop_index]
        if dependences is None:
            dependences = compute_dependences(self.scops[scop_index])
            self.dependences_by_scop[scop_index] = dependences
        return dependences

    def groups_for(self, scop_index: int) -> list[FusionGroup]:
        """One SCoP's fusion groups; none when the pipeline has no
        ``fusion`` pass (``"no-fusion"``)."""
        if scop_index < len(self.groups_by_scop):
            return self.groups_by_scop[scop_index]
        return []
