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

from repro.poly.dependence import Dependence, compute_dependences
from repro.poly.schedule_tree import (
    BandNode,
    DomainNode,
    FilterNode,
    MarkNode,
    ScheduleNode,
    SequenceNode,
    replace_node,
)
from repro.poly.scop import Scop
from repro.tactics.patterns.base import KernelMatch


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


def can_distribute(scop: Scop, band: BandNode) -> bool:
    """Legality of distributing *band* over the sequence below it."""
    sequence = _sequence_below(band)
    if sequence is None:
        return False
    order = _filter_order(sequence)
    band_vars = set(band.dims)
    for dep in compute_dependences(scop):
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


def distribute_band(tree: DomainNode, band: BandNode) -> SequenceNode:
    """Distribute *band* over the sequence below it (checked for legality).

    ``band(sequence(f1, f2, ...))`` becomes
    ``sequence(f1(band'), f2(band''), ...)`` where each new band copies the
    original band's dimensions.  Returns the new sequence node, which takes
    the band's place in the tree.
    """
    scop = tree.scop
    if not can_distribute(scop, band):
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
            permutable=band.permutable,
            tile_steps=dict(band.tile_steps),
            tile_origin=dict(band.tile_origin),
        )
        new_band.set_child(0, child.child) if child.child is not None else None
        new_filters.append(FilterNode(set(child.statements), new_band))
    new_sequence = SequenceNode(new_filters)
    replace_node(band, new_sequence)
    return new_sequence


def isolate_match(tree: DomainNode, match: KernelMatch, *, max_steps: int = 16) -> bool:
    """Distribute loops until *match* owns a complete loop nest.

    Returns True when the match's subtree root now contains every band of
    the match's loop dimensions (so device mapping can replace one subtree
    by one runtime call); returns False when a required distribution is
    illegal — the kernel then stays on the host.
    """
    needed_dims = set(match.dims.values())
    for _ in range(max_steps):
        root = match.subtree_root(tree)
        covered = {
            dim
            for node in root.walk()
            if isinstance(node, BandNode)
            for dim in node.dims
        }
        if isinstance(root, BandNode):
            covered |= set(root.dims)
        if needed_dims <= covered:
            return True
        # Find the innermost band above the root that schedules a needed
        # dimension but also non-match statements, and distribute it.
        blocking: Optional[BandNode] = None
        node: Optional[ScheduleNode] = root.parent
        while node is not None:
            if isinstance(node, BandNode) and set(node.dims) & needed_dims:
                blocking = node
                break
            node = node.parent
        if blocking is None:
            return False
        sequence = _sequence_below(blocking)
        if sequence is None or not can_distribute(tree.scop, blocking):
            return False
        distribute_band(tree, blocking)
    return False
