"""Revisited kernel fusion (Listing 2 of the paper).

Two adjacent kernels X and Y are fused when they have the same access
pattern (both are GEMM-like contractions) and are independent: Y neither
reads nor writes any output of X and does not write any input of X.  Fusion
pays off twice on the CIM device:

1. the two kernels become a single *batched* runtime call, halving the
   offload overhead;
2. when the kernels share an input operand, the shared operand is written to
   the crossbar only once and the other operands are streamed through the
   input buffers — the "smart mapping" that roughly doubles PCM lifetime in
   Figure 5.

This module finds fusable groups among pattern matches; device mapping
consumes the groups to emit ``polly_cimBlasGemmBatched`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.poly.dependence import kernels_independent
from repro.poly.scop import Scop
from repro.tactics.patterns import KernelMatch


@dataclass
class FusionGroup:
    """A set of kernels to be executed as one batched CIM call."""

    matches: list[KernelMatch] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.matches)

    @property
    def statements(self) -> set[str]:
        names: set[str] = set()
        for match in self.matches:
            names |= match.statements
        return names

    def shared_arrays(self) -> set[str]:
        """Input arrays read by every kernel of the group (the operands the
        smart mapping keeps stationary in the crossbar)."""
        if not self.matches:
            return set()
        shared: Optional[set[str]] = None
        for match in self.matches:
            scop = match.scop
            assert scop is not None
            stmt = scop.statement(match.update_stmt)
            inputs = stmt.read_arrays() - stmt.write_arrays()
            shared = inputs if shared is None else (shared & inputs)
        return shared or set()

    def __str__(self) -> str:
        kernels = ", ".join(m.update_stmt for m in self.matches)
        return f"FusionGroup[{kernels}] shared={sorted(self.shared_arrays())}"


def _kernels_pairwise_independent(
    scop: Scop, matches: Sequence[KernelMatch]
) -> bool:
    """Every later kernel must be independent of every earlier one,
    considering both the update and the init statement of each kernel."""
    for earlier_index, earlier in enumerate(matches):
        for later in matches[earlier_index + 1 :]:
            for x_name in earlier.statements:
                for y_name in later.statements:
                    x_stmt = scop.statement(x_name)
                    y_stmt = scop.statement(y_name)
                    if not kernels_independent(x_stmt, y_stmt):
                        return False
    return True


def find_fusable_groups(
    scop: Scop,
    matches: Sequence[KernelMatch],
    require_shared_input: bool = False,
    same_kind_only: bool = True,
    fusable_kinds: tuple[str, ...] = ("gemm",),
) -> list[FusionGroup]:
    """Group adjacent fusable kernel matches.

    Matches are considered in program order (by the nest they live in).  A
    group grows while the next kernel: lives in a different loop nest (fusion
    across nests, as in Listing 2), has the same kind (GEMM with GEMM),
    and is independent of every kernel already in the group.  Groups of size
    one are not reported.

    ``require_shared_input`` additionally demands a common read operand (the
    endurance-oriented case the paper highlights); by default sharing is
    exploited opportunistically but not required.
    """
    ordered = sorted(
        (m for m in matches if m.kind in fusable_kinds),
        key=lambda m: scop.statement(m.update_stmt).nest_index,
    )
    groups: list[FusionGroup] = []
    current: list[KernelMatch] = []

    def flush() -> None:
        if len(current) > 1:
            groups.append(FusionGroup(list(current)))
        current.clear()

    for match in ordered:
        if not current:
            current.append(match)
            continue
        previous = current[-1]
        prev_nest = scop.statement(previous.update_stmt).nest_index
        this_nest = scop.statement(match.update_stmt).nest_index
        candidate = current + [match]
        compatible = (
            this_nest != prev_nest
            and (not same_kind_only or match.kind == previous.kind)
            and _kernels_pairwise_independent(scop, candidate)
        )
        if compatible and require_shared_input:
            compatible = bool(FusionGroup(candidate).shared_arrays())
        if compatible:
            current.append(match)
        else:
            flush()
            current.append(match)
    flush()
    return groups
