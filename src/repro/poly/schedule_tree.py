"""Schedule trees: the execution-strategy representation Loop Tactics match on.

The node kinds mirror ISL schedule trees as used by Polly and the paper's
Loop Tactics passes:

* :class:`DomainNode` — the root; owns the SCoP whose statements the tree
  schedules.
* :class:`BandNode` — one or more schedule dimensions (loops).  A band built
  from the input program has one dimension per source loop; transformations
  may split it (tiling) or permute it (interchange).
* :class:`SequenceNode` — ordered execution of its filter children.
* :class:`FilterNode` — restricts the subtree to a subset of statements.
* :class:`MarkNode` — an annotation attached by a matcher or transformation
  (e.g. ``"gemm"`` with the match capture as payload).
* :class:`ExtensionNode` — statements injected by a transformation that are
  not part of the original domain; used for CIM runtime calls after device
  mapping.
* :class:`LeafNode` — the point where the active statements execute.

Trees are mutable (children lists can be edited in place) but every node
exposes ``copy()`` for non-destructive transformation pipelines.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.ir.stmt import CallStmt


class ScheduleNode:
    """Base class of all schedule-tree nodes."""

    parent: Optional["ScheduleNode"]

    def __init__(self) -> None:
        self.parent = None

    # -- structure ------------------------------------------------------
    def children(self) -> Sequence["ScheduleNode"]:
        return ()

    def set_child(self, index: int, node: "ScheduleNode") -> None:
        raise NotImplementedError(f"{type(self).__name__} has no editable children")

    def walk(self) -> Iterator["ScheduleNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children():
            yield from child.walk()

    def find(self, predicate: Callable[["ScheduleNode"], bool]) -> list["ScheduleNode"]:
        return [node for node in self.walk() if predicate(node)]

    def copy(self) -> "ScheduleNode":
        """Deep copy of this subtree (parent links are rebuilt)."""
        cloned = _copy.deepcopy(self)
        _fix_parents(cloned, None)
        return cloned

    # -- convenience ----------------------------------------------------
    def ancestors(self) -> Iterator["ScheduleNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "ScheduleNode":
        node: ScheduleNode = self
        while node.parent is not None:
            node = node.parent
        return node

    def active_statements(self) -> set[str]:
        """Statement names active at this node (domain minus filters above)."""
        root = self.root()
        if not isinstance(root, DomainNode):
            return set()
        active = set(root.scop.statement_names)
        for ancestor in list(self.ancestors()) + [self]:
            if isinstance(ancestor, FilterNode):
                active &= ancestor.statements
        return active

    def band_ancestor_dims(self) -> list[str]:
        """Schedule dimensions introduced by bands above this node, outer first."""
        dims: list[str] = []
        for ancestor in reversed(list(self.ancestors())):
            if isinstance(ancestor, BandNode):
                dims.extend(ancestor.dims)
        return dims


def _fix_parents(node: ScheduleNode, parent: Optional[ScheduleNode]) -> None:
    node.parent = parent
    for child in node.children():
        _fix_parents(child, node)


def _adopt(parent: ScheduleNode, child: Optional[ScheduleNode]) -> None:
    if child is not None:
        child.parent = parent


class DomainNode(ScheduleNode):
    """Root node owning the SCoP."""

    def __init__(self, scop, child: Optional[ScheduleNode] = None):
        super().__init__()
        self.scop = scop
        self.child = child
        _adopt(self, child)

    def children(self) -> Sequence[ScheduleNode]:
        return (self.child,) if self.child is not None else ()

    def set_child(self, index: int, node: ScheduleNode) -> None:
        if index != 0:
            raise IndexError("DomainNode has a single child")
        self.child = node
        _adopt(self, node)

    def __repr__(self) -> str:
        return f"DomainNode({self.scop.name})"


class BandNode(ScheduleNode):
    """A (possibly multi-dimensional) schedule band.

    ``dims`` are loop-variable names, outermost first.  ``permutable`` is set
    by dependence analysis and allows interchange/tiling.  Tiling metadata
    (``tile_origin``) records, for a point band created by the tiling
    transformation, the name of the corresponding tile-loop variable so the
    AST generator can emit ``min`` upper bounds.
    """

    def __init__(
        self,
        dims: Sequence[str],
        child: Optional[ScheduleNode] = None,
        permutable: bool = False,
        tile_steps: Optional[dict[str, int]] = None,
        tile_origin: Optional[dict[str, str]] = None,
    ):
        super().__init__()
        self.dims = list(dims)
        self.child = child
        self.permutable = permutable
        # For a *tile* band: loop steps (tile sizes) per dimension.
        self.tile_steps = dict(tile_steps or {})
        # For a *point* band: maps point-loop var -> tile-loop var.
        self.tile_origin = dict(tile_origin or {})
        _adopt(self, child)

    def children(self) -> Sequence[ScheduleNode]:
        return (self.child,) if self.child is not None else ()

    def set_child(self, index: int, node: ScheduleNode) -> None:
        if index != 0:
            raise IndexError("BandNode has a single child")
        self.child = node
        _adopt(self, node)

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    def __repr__(self) -> str:
        flags = []
        if self.permutable:
            flags.append("permutable")
        if self.tile_steps:
            flags.append(f"tile_steps={self.tile_steps}")
        if self.tile_origin:
            flags.append(f"point_of={self.tile_origin}")
        suffix = (" " + " ".join(flags)) if flags else ""
        return f"BandNode({self.dims}{suffix})"


class SequenceNode(ScheduleNode):
    """Ordered sequence; children must be filter nodes."""

    def __init__(self, children: Sequence["FilterNode"] = ()):
        super().__init__()
        self._children: list[FilterNode] = list(children)
        for child in self._children:
            _adopt(self, child)

    def children(self) -> Sequence[ScheduleNode]:
        return tuple(self._children)

    def set_child(self, index: int, node: ScheduleNode) -> None:
        if not isinstance(node, FilterNode):
            raise TypeError("SequenceNode children must be FilterNodes")
        self._children[index] = node
        _adopt(self, node)

    def remove_child(self, index: int) -> "FilterNode":
        node = self._children.pop(index)
        node.parent = None
        return node

    def __repr__(self) -> str:
        return f"SequenceNode({len(self._children)} children)"


class FilterNode(ScheduleNode):
    """Restricts execution to a subset of statements."""

    def __init__(self, statements: set[str] | Sequence[str], child: Optional[ScheduleNode] = None):
        super().__init__()
        self.statements = set(statements)
        self.child = child
        _adopt(self, child)

    def children(self) -> Sequence[ScheduleNode]:
        return (self.child,) if self.child is not None else ()

    def set_child(self, index: int, node: ScheduleNode) -> None:
        if index != 0:
            raise IndexError("FilterNode has a single child")
        self.child = node
        _adopt(self, node)

    def __repr__(self) -> str:
        return f"FilterNode({sorted(self.statements)})"


class MarkNode(ScheduleNode):
    """Annotation node; ``payload`` typically holds a pattern match capture."""

    def __init__(self, mark: str, payload: object = None, child: Optional[ScheduleNode] = None):
        super().__init__()
        self.mark = mark
        self.payload = payload
        self.child = child
        _adopt(self, child)

    def children(self) -> Sequence[ScheduleNode]:
        return (self.child,) if self.child is not None else ()

    def set_child(self, index: int, node: ScheduleNode) -> None:
        if index != 0:
            raise IndexError("MarkNode has a single child")
        self.child = node
        _adopt(self, node)

    def __repr__(self) -> str:
        return f"MarkNode({self.mark!r})"


class ExtensionNode(ScheduleNode):
    """Injects statements that are not part of the original SCoP domain.

    Device mapping uses extension nodes to splice CIM runtime calls into the
    schedule; the AST generator emits the calls verbatim, in order.
    """

    def __init__(self, calls: Sequence[CallStmt], child: Optional[ScheduleNode] = None):
        super().__init__()
        self.calls = list(calls)
        self.child = child
        _adopt(self, child)

    def children(self) -> Sequence[ScheduleNode]:
        return (self.child,) if self.child is not None else ()

    def set_child(self, index: int, node: ScheduleNode) -> None:
        if index != 0:
            raise IndexError("ExtensionNode has a single child")
        self.child = node
        _adopt(self, node)

    def __repr__(self) -> str:
        return f"ExtensionNode({[c.callee for c in self.calls]})"


class LeafNode(ScheduleNode):
    """Execution point of the statements active at this position."""

    def __init__(self, statements: Optional[Sequence[str]] = None):
        super().__init__()
        # Explicit ordering of statements sharing the same innermost point
        # (textual order within the innermost loop body).
        self.statements = list(statements or [])

    def __repr__(self) -> str:
        return f"LeafNode({self.statements})"


def replace_node(old: ScheduleNode, new: ScheduleNode) -> None:
    """Replace *old* by *new* in the tree (old must have a parent)."""
    parent = old.parent
    if parent is None:
        raise ValueError("cannot replace the root node")
    for index, child in enumerate(parent.children()):
        if child is old:
            parent.set_child(index, new)
            return
    raise ValueError("node is not a child of its parent (corrupted tree)")


def tree_to_string(node: ScheduleNode, depth: int = 0) -> str:
    """Readable indented rendering of a schedule tree (for tests and docs)."""
    pad = "  " * depth
    lines = [pad + repr(node)]
    for child in node.children():
        lines.append(tree_to_string(child, depth + 1))
    return "\n".join(lines)


def validate_tree(root: ScheduleNode) -> list[str]:
    """Structural invariant checks; returns a list of problems (empty = OK)."""
    problems: list[str] = []
    if not isinstance(root, DomainNode):
        problems.append("root node must be a DomainNode")
    for node in root.walk():
        for child in node.children():
            if child.parent is not node:
                problems.append(f"broken parent link at {child!r}")
        if isinstance(node, SequenceNode):
            for child in node.children():
                if not isinstance(child, FilterNode):
                    problems.append(
                        f"SequenceNode child {child!r} is not a FilterNode"
                    )
        if isinstance(node, BandNode) and not node.dims:
            problems.append("BandNode with no dimensions")
        if isinstance(node, FilterNode) and not node.statements:
            problems.append("FilterNode with empty statement set")
    # Every domain statement must be reachable through exactly one leaf or be
    # deliberately dropped by a device-mapping extension.
    if isinstance(root, DomainNode):
        reachable: dict[str, int] = {}
        for node in root.walk():
            if isinstance(node, LeafNode):
                for name in node.active_statements() & set(
                    node.statements or node.active_statements()
                ):
                    reachable[name] = reachable.get(name, 0) + 1
        for name, count in reachable.items():
            if count > 1:
                problems.append(f"statement {name!r} scheduled {count} times")
    return problems
