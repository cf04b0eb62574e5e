"""Loop distribution (fission) on schedule trees.

Several PolyBench kernels compute two contractions inside one shared loop
nest (``bicg``, ``gesummv``, ``atax``); before such a kernel can be replaced
by a single runtime call its statements must be *isolated* into their own
nest — the classic loop-distribution transformation Polly applies through
rescheduling.  Distribution of a band over the sequence below it is legal
when no dependence flows from a statement of a later sequence branch to a
statement of an earlier branch, and every cross-branch dependence carried by
the distributed loop points forward.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.poly.dependence import Dependence
from repro.poly.schedule_tree import (
    BandNode,
    DomainNode,
    FilterNode,
    MarkNode,
    SequenceNode,
    path_to,
    replace_node,
)
from repro.tactics.patterns import KernelMatch


class DistributionError(RuntimeError):
    """Illegal or impossible distribution request."""


def _sequence_below(band: BandNode) -> Optional[SequenceNode]:
    """The sequence directly below *band* (skipping marks), if any."""
    node = band.child
    while isinstance(node, MarkNode):
        node = node.child
    return node if isinstance(node, SequenceNode) else None


def _filter_order(sequence: SequenceNode) -> dict[str, int]:
    order: dict[str, int] = {}
    for position, child in enumerate(sequence.children()):
        assert isinstance(child, FilterNode)
        for name in child.statements:
            order[name] = position
    return order


def can_distribute(band: BandNode, dependences: Sequence[Dependence]) -> bool:
    """Legality of distributing *band* over the sequence below it, given
    the SCoP's *dependences* (distribution never changes them)."""
    sequence = _sequence_below(band)
    if sequence is None:
        return False
    order = _filter_order(sequence)
    band_vars = set(band.dims)
    for dep in dependences:
        src_pos = order.get(dep.source)
        dst_pos = order.get(dep.target)
        if src_pos is None or dst_pos is None or src_pos == dst_pos:
            continue
        if src_pos > dst_pos:
            # Dependence from a later branch back to an earlier one: after
            # distribution the earlier branch would run entirely first.
            return False
        if dep.distance is None:
            return False
        for var, dist in zip(dep.common_loops, dep.distance):
            if var in band_vars and dist < 0:
                return False
    return True


def distribute_band(
    tree: DomainNode, band: BandNode, dependences: Sequence[Dependence]
) -> SequenceNode:
    """Distribute *band* over the sequence below it (checked for legality).

    ``band(sequence(f1, f2, ...))`` becomes
    ``sequence(f1(band'), f2(band''), ...)`` where each new band copies the
    original band's dimensions.  Returns the new sequence node, which takes
    the band's place in the tree.
    """
    if not can_distribute(band, dependences):
        raise DistributionError(
            f"distributing band {band.dims} would violate a dependence"
        )
    sequence = _sequence_below(band)
    assert sequence is not None
    new_filters: list[FilterNode] = []
    for child in sequence.children():
        assert isinstance(child, FilterNode)
        new_band = BandNode(
            list(band.dims),
            child.child,
            permutable=band.permutable,
            tile_steps=dict(band.tile_steps),
            tile_origin=dict(band.tile_origin),
        )
        new_filters.append(FilterNode(set(child.statements), new_band))
    new_sequence = SequenceNode(new_filters)
    replace_node(path_to(tree, band), new_sequence)
    return new_sequence


def owns_nest(tree: DomainNode, match: KernelMatch) -> bool:
    """True when the match's subtree root encloses all of the match's loops."""
    return _blocking_band(tree, match) is None


def _blocking_band(tree: DomainNode, match: KernelMatch) -> Optional[BandNode]:
    """The innermost band above the match's subtree root that schedules one
    of the match's loops, if any."""
    needed_dims = set(match.dims.values())
    for node in reversed(match.subtree_path(tree)[:-1]):
        if isinstance(node, BandNode) and not needed_dims.isdisjoint(node.dims):
            return node
    return None


def isolate_match(
    tree: DomainNode, match: KernelMatch, dependences: Sequence[Dependence], *, max_steps: int = 16
) -> bool:
    """Distribute loops until *match* owns a complete loop nest.

    *dependences* are the SCoP's.  Returns True when the match's subtree
    root encloses every band of the match's loop dimensions; returns False
    when a required distribution is illegal — the kernel then stays on the
    host.
    """
    for _ in range(max_steps):
        blocking = _blocking_band(tree, match)
        if blocking is None:
            return True
        if not can_distribute(blocking, dependences):
            return False
        distribute_band(tree, blocking, dependences)
    return False
