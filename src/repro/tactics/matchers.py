"""Structural matchers over schedule trees.

Loop Tactics describes candidate schedules declaratively: a matcher is a
small tree of combinators mirroring the shape of the schedule tree to
recognise.  Matching a combinator against a node either fails or extends a
capture dictionary mapping capture names to schedule-tree nodes.

Example — the canonical GEMM schedule (three nested 1-D bands around a leaf,
with an optional init-statement filter in between) is written as::

    matcher = m_band(
        m_band(
            m_any(capture="below_ij"),
        capture="band_j"),
    capture="band_i")

and matched with :func:`match_tree`, which returns the capture dict or
``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.poly.schedule_tree import (
    BandNode,
    DomainNode,
    FilterNode,
    LeafNode,
    MarkNode,
    ScheduleNode,
    SequenceNode,
)

Captures = dict[str, ScheduleNode]


@dataclass
class TreeMatcher:
    """A single structural matcher node.

    ``node_type`` restricts the schedule-tree node class (``None`` matches
    any node).  ``children`` are sub-matchers applied to the node's children
    positionally; a matcher with no children accepts a node with any
    children (the subtree below is unconstrained).  ``predicate`` can impose
    extra conditions (e.g. band dimensionality).  ``capture`` stores the node
    in the capture dictionary under that name.
    """

    node_type: Optional[type] = None
    children: tuple["TreeMatcher", ...] = ()
    predicate: Optional[Callable[[ScheduleNode], bool]] = None
    capture: Optional[str] = None
    exact_children: bool = True

    def matches(self, node: ScheduleNode, captures: Captures) -> bool:
        if self.node_type is not None and not isinstance(node, self.node_type):
            return False
        if self.predicate is not None and not self.predicate(node):
            return False
        if self.children:
            actual = list(node.children())
            if self.exact_children and len(actual) != len(self.children):
                return False
            if len(actual) < len(self.children):
                return False
            for sub_matcher, child in zip(self.children, actual):
                if not sub_matcher.matches(child, captures):
                    return False
        if self.capture is not None:
            captures[self.capture] = node
        return True


def match_tree(matcher: TreeMatcher, node: ScheduleNode) -> Optional[Captures]:
    """Match *matcher* against *node*; return captures or ``None``."""
    captures: Captures = {}
    if matcher.matches(node, captures):
        return captures
    return None


def find_matches(matcher: TreeMatcher, root: ScheduleNode) -> list[Captures]:
    """All positions in the tree rooted at *root* where *matcher* matches."""
    results = []
    for node in root.walk():
        captures = match_tree(matcher, node)
        if captures is not None:
            results.append(captures)
    return results


# ----------------------------------------------------------------------
# Combinators
# ----------------------------------------------------------------------
def m_any(capture: Optional[str] = None) -> TreeMatcher:
    """Match any node (wildcard)."""
    return TreeMatcher(node_type=None, capture=capture)


def m_domain(*children: TreeMatcher, capture: Optional[str] = None) -> TreeMatcher:
    return TreeMatcher(node_type=DomainNode, children=tuple(children), capture=capture)


def m_band(
    *children: TreeMatcher,
    capture: Optional[str] = None,
    n_dims: Optional[int] = None,
    dims: Optional[Sequence[str]] = None,
    permutable: Optional[bool] = None,
) -> TreeMatcher:
    """Match a band node, optionally constraining dimensionality or names."""

    def predicate(node: ScheduleNode) -> bool:
        assert isinstance(node, BandNode)
        if n_dims is not None and node.n_dims != n_dims:
            return False
        if dims is not None and list(node.dims) != list(dims):
            return False
        if permutable is not None and node.permutable != permutable:
            return False
        return True

    return TreeMatcher(
        node_type=BandNode,
        children=tuple(children),
        predicate=predicate,
        capture=capture,
    )


def m_sequence(
    *children: TreeMatcher,
    capture: Optional[str] = None,
    exact: bool = True,
) -> TreeMatcher:
    """Match a sequence node whose children match positionally."""
    return TreeMatcher(
        node_type=SequenceNode,
        children=tuple(children),
        capture=capture,
        exact_children=exact,
    )


def m_filter(
    *children: TreeMatcher,
    capture: Optional[str] = None,
    statements: Optional[set[str]] = None,
) -> TreeMatcher:
    def predicate(node: ScheduleNode) -> bool:
        assert isinstance(node, FilterNode)
        if statements is not None and node.statements != set(statements):
            return False
        return True

    return TreeMatcher(
        node_type=FilterNode,
        children=tuple(children),
        predicate=predicate,
        capture=capture,
    )


def m_leaf(capture: Optional[str] = None) -> TreeMatcher:
    return TreeMatcher(node_type=LeafNode, capture=capture)


# ----------------------------------------------------------------------
# Pre-built structural shapes used by the pattern library
# ----------------------------------------------------------------------
def band_chain_matcher(depth: int, capture_prefix: str = "band") -> TreeMatcher:
    """A chain of *depth* nested 1-D bands ending anywhere.

    Captures each band as ``<capture_prefix><level>`` with level 0 outermost.
    """
    matcher = m_any(capture=f"{capture_prefix}_inner")
    for level in reversed(range(depth)):
        matcher = m_band(matcher, capture=f"{capture_prefix}{level}", n_dims=1)
    return matcher


def nested_band_chain(node: ScheduleNode, max_depth: int = 16) -> list[BandNode]:
    """Longest chain of nested bands starting at *node* (helper for patterns).

    The chain follows single-child links and collects band nodes, tolerating
    interleaved mark nodes; it stops at sequences, filters, leaves, or when
    ``max_depth`` bands have been collected.
    """
    chain: list[BandNode] = []
    current: Optional[ScheduleNode] = node
    while current is not None and len(chain) < max_depth:
        if isinstance(current, BandNode):
            chain.append(current)
            current = current.child
        elif isinstance(current, MarkNode):
            current = current.child
        else:
            break
    return chain
