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

Trees point down only, as ISL's do: a node knows its children, never its
parent.  Code that needs a node's ancestors holds a *path*, the list of
nodes from the root down to it, and the statements active at a node are
:func:`active_statements` of its path.  A tree therefore holds no
reference cycle and is freed by reference counting alone.
"""

from __future__ import annotations

import copy as _copy
from typing import Callable, Iterator, Optional, Sequence

from repro.ir.stmt import CallStmt


class ScheduleNode:
    """Base class of all schedule-tree nodes."""

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
        """Deep copy of this subtree."""
        return _copy.deepcopy(self)


class DomainNode(ScheduleNode):
    """Root node owning the SCoP."""

    def __init__(self, scop, child: Optional[ScheduleNode] = None):
        self.scop = scop
        self.child = child

    def children(self) -> Sequence[ScheduleNode]:
        return (self.child,) if self.child is not None else ()

    def set_child(self, index: int, node: ScheduleNode) -> None:
        if index != 0:
            raise IndexError("DomainNode has a single child")
        self.child = node

    def __repr__(self) -> str:
        return f"DomainNode({self.scop.name})"


class BandNode(ScheduleNode):
    """A (possibly multi-dimensional) schedule band.

    ``dims`` are loop-variable names, outermost first.  ``permutable`` is set
    by dependence analysis and allows interchange/tiling.  Tiling metadata
    (``tile_origin``) records, for a point band created by the tiling
    transformation, the corresponding tile-loop variable and tile size so
    the AST generator can emit ``min`` upper bounds.
    """

    def __init__(
        self,
        dims: Sequence[str],
        child: Optional[ScheduleNode] = None,
        permutable: bool = False,
        tile_steps: Optional[dict[str, int]] = None,
        tile_origin: Optional[dict[str, tuple[str, int]]] = None,
    ):
        self.dims = list(dims)
        self.child = child
        self.permutable = permutable
        # For a *tile* band: loop steps (tile sizes) per dimension.
        self.tile_steps = dict(tile_steps or {})
        # For a *point* band: maps point-loop var -> (tile-loop var, tile size).
        self.tile_origin = dict(tile_origin or {})

    def children(self) -> Sequence[ScheduleNode]:
        return (self.child,) if self.child is not None else ()

    def set_child(self, index: int, node: ScheduleNode) -> None:
        if index != 0:
            raise IndexError("BandNode has a single child")
        self.child = node

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
        self._children: list[FilterNode] = list(children)

    def children(self) -> Sequence[ScheduleNode]:
        return tuple(self._children)

    def set_child(self, index: int, node: ScheduleNode) -> None:
        if not isinstance(node, FilterNode):
            raise TypeError("SequenceNode children must be FilterNodes")
        self._children[index] = node

    def remove_child(self, index: int) -> "FilterNode":
        return self._children.pop(index)

    def __repr__(self) -> str:
        return f"SequenceNode({len(self._children)} children)"


class FilterNode(ScheduleNode):
    """Restricts execution to a subset of statements."""

    def __init__(self, statements: set[str] | Sequence[str], child: Optional[ScheduleNode] = None):
        self.statements = set(statements)
        self.child = child

    def children(self) -> Sequence[ScheduleNode]:
        return (self.child,) if self.child is not None else ()

    def set_child(self, index: int, node: ScheduleNode) -> None:
        if index != 0:
            raise IndexError("FilterNode has a single child")
        self.child = node

    def __repr__(self) -> str:
        return f"FilterNode({sorted(self.statements)})"


class MarkNode(ScheduleNode):
    """Annotation node; ``payload`` typically holds a pattern match capture."""

    def __init__(self, mark: str, payload: object = None, child: Optional[ScheduleNode] = None):
        self.mark = mark
        self.payload = payload
        self.child = child

    def children(self) -> Sequence[ScheduleNode]:
        return (self.child,) if self.child is not None else ()

    def set_child(self, index: int, node: ScheduleNode) -> None:
        if index != 0:
            raise IndexError("MarkNode has a single child")
        self.child = node

    def __repr__(self) -> str:
        return f"MarkNode({self.mark!r})"


class ExtensionNode(ScheduleNode):
    """Injects statements that are not part of the original SCoP domain.

    Device mapping uses extension nodes to splice CIM runtime calls into the
    schedule; the AST generator emits the calls verbatim, in order.
    """

    def __init__(self, calls: Sequence[CallStmt], child: Optional[ScheduleNode] = None):
        self.calls = list(calls)
        self.child = child

    def children(self) -> Sequence[ScheduleNode]:
        return (self.child,) if self.child is not None else ()

    def set_child(self, index: int, node: ScheduleNode) -> None:
        if index != 0:
            raise IndexError("ExtensionNode has a single child")
        self.child = node

    def __repr__(self) -> str:
        return f"ExtensionNode({[c.callee for c in self.calls]})"


class LeafNode(ScheduleNode):
    """Execution point of the statements active at this position."""

    def __init__(self, statements: Optional[Sequence[str]] = None):
        # Explicit ordering of statements sharing the same innermost point
        # (textual order within the innermost loop body).
        self.statements = list(statements or [])

    def __repr__(self) -> str:
        return f"LeafNode({self.statements})"


def walk_paths(root: ScheduleNode) -> Iterator[list[ScheduleNode]]:
    """Pre-order traversal yielding each node's root-to-node path."""
    pending = [[root]]
    while pending:
        path = pending.pop()
        yield path
        pending.extend(path + [child] for child in reversed(path[-1].children()))


def path_to(root: ScheduleNode, node: ScheduleNode) -> list[ScheduleNode]:
    """The root-to-*node* path in the tree below *root*."""
    for path in walk_paths(root):
        if path[-1] is node:
            return path
    raise LookupError(f"{node!r} is not in the tree")


def active_statements(path: Sequence[ScheduleNode]) -> set[str]:
    """Statements active at the end of a root-to-node *path*: the domain's
    statements that every filter on the path admits."""
    root = path[0]
    if not isinstance(root, DomainNode):
        return set()
    active = set(root.scop.statement_names)
    for node in path:
        if isinstance(node, FilterNode):
            active &= node.statements
    return active


def replace_node(path: Sequence[ScheduleNode], new: ScheduleNode) -> None:
    """Replace the last node of a root-to-node *path* by *new*."""
    if len(path) < 2:
        raise ValueError("cannot replace the root node")
    parent, old = path[-2], path[-1]
    for index, child in enumerate(parent.children()):
        if child is old:
            parent.set_child(index, new)
            return
    raise ValueError("path does not follow the tree's child links")


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
    # Every domain statement must be reachable through exactly one leaf or be
    # deliberately dropped by a device-mapping extension.
    reachable: dict[str, int] = {}
    for path in walk_paths(root):
        node = path[-1]
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
        if isinstance(node, LeafNode):
            active = active_statements(path)
            for name in active & set(node.statements or active):
                reachable[name] = reachable.get(name, 0) + 1
    for name, count in reachable.items():
        if count > 1:
            problems.append(f"statement {name!r} scheduled {count} times")
    return problems
