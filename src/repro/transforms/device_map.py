"""Device mapping: rewrite matched kernels into CIM runtime calls.

This pass turns the schedule tree of a SCoP into the offloaded form of
Listing 1: the subtree that scheduled a matched kernel is replaced by an
extension node carrying buffer allocations, host-to-device copies, the BLAS
call, and the device-to-host copy of the result.  Kernels grouped by the
fusion pass become a single ``polly_cimBlasGemmBatched`` call placed at the
first kernel's position; the remaining kernels' subtrees are removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.codegen.runtime_calls import (
    BUFFER,
    CIM_DEV_TO_HOST,
    CIM_GEMM_BATCHED,
    CIM_HOST_TO_DEV,
    CIM_MALLOC,
    DIM,
    LD,
    SCALAR,
    TRANS,
    BatchedGemmCallArgs,
    CopyCallArgs,
    KernelCallArgs,
    MallocCallArgs,
)
from repro.ir.expr import BinOp, Expr, FloatConst, IntConst
from repro.ir.program import ArrayDecl
from repro.ir.stmt import CallStmt
from repro.poly.schedule_tree import (
    DomainNode,
    ExtensionNode,
    FilterNode,
    ScheduleNode,
    SequenceNode,
    active_statements,
    replace_node,
)
from repro.tactics.patterns import KernelMatch
from repro.transforms.fusion import FusionGroup


class DeviceMappingError(RuntimeError):
    """A match cannot be mapped onto the accelerator."""


@dataclass
class DeviceMapping:
    """Record of one offloaded kernel (or fused kernel group)."""

    kind: str
    call_name: str
    matches: list[KernelMatch]
    statements: set[str]
    shared_arrays: set[str] = field(default_factory=set)

    def __str__(self) -> str:
        stmts = ", ".join(sorted(self.statements))
        return f"{self.call_name}({self.kind}) <- {stmts}"


@dataclass
class DeviceMappingResult:
    """Outcome of device mapping over one schedule tree."""

    mappings: list[DeviceMapping] = field(default_factory=list)
    offloaded_statements: set[str] = field(default_factory=set)
    allocated_buffers: dict[str, str] = field(default_factory=dict)  # array -> buffer

    @property
    def any_offloaded(self) -> bool:
        return bool(self.mappings)


def _buffer_name(array: str) -> str:
    return f"cim_{array}"


def _array_size_bytes_expr(decl: ArrayDecl) -> Expr:
    """Symbolic byte size of an array (product of extents times element size)."""
    size: Expr = IntConst(decl.elem_type.size_bytes)
    for dim in decl.shape:
        size = BinOp("*", size, dim)
    return size


def _leading_dim_expr(decl: ArrayDecl) -> Expr:
    """Leading dimension of a row-major array (its innermost extent)."""
    return decl.shape[-1]


def _is_literal_zero(expr: Expr) -> bool:
    return isinstance(expr, (IntConst, FloatConst)) and float(expr.value) == 0.0


class _CallBuilder:
    """Accumulates the runtime calls of one extension node."""

    def __init__(self, tree: DomainNode, result: DeviceMappingResult):
        self.program = tree.scop.program
        self.result = result
        self.calls: list[CallStmt] = []
        # Byte-size expression per array, built once: a buffer's malloc and
        # copies all name the same size.
        self._sizes: dict[str, Expr] = {}

    def _size(self, array: str) -> Expr:
        if array not in self._sizes:
            self._sizes[array] = _array_size_bytes_expr(self.program.array(array))
        return self._sizes[array]

    # -- building blocks -------------------------------------------------
    def ensure_buffer(self, array: str) -> str:
        buffer = _buffer_name(array)
        if array not in self.result.allocated_buffers:
            self.calls.append(
                CallStmt(CIM_MALLOC, [MallocCallArgs(buffer, array, self._size(array))])
            )
            self.result.allocated_buffers[array] = buffer
        return buffer

    def copy_in(self, array: str) -> str:
        return self._copy(CIM_HOST_TO_DEV, array)

    def copy_out(self, array: str) -> str:
        return self._copy(CIM_DEV_TO_HOST, array)

    def _copy(self, callee: str, array: str) -> str:
        buffer = self.ensure_buffer(array)
        self.calls.append(
            CallStmt(callee, [CopyCallArgs(buffer, array, self._size(array))])
        )
        return buffer

    def append(self, call: CallStmt) -> None:
        self.calls.append(call)


def _effective_beta(
    match: KernelMatch, path: Sequence[ScheduleNode]
) -> tuple[Expr, bool]:
    """Beta to pass to the runtime call, and whether the init statement is
    absorbed by the offload (True) or stays on the host (False); *path*
    leads to the subtree the offload replaces."""
    if match.init_stmt is None:
        return match.beta, False
    if match.init_stmt in active_statements(path):
        return match.beta, True
    # The init statement lives outside the replaced subtree (e.g. a separate
    # scaling nest): it keeps running on the host, the device call must then
    # accumulate onto the already-scaled output.
    return FloatConst(1.0), False


def _call_args(match: KernelMatch, builder: _CallBuilder, beta: Expr) -> KernelCallArgs:
    """Copy *match*'s operands in, then fill its spec's argument layout.

    The output is copied in only when the call reads it (``beta`` is not
    the literal 0); otherwise its buffer is just allocated.
    """
    spec = match.spec
    out, *operands = spec.arrays
    buffers = {role: builder.copy_in(match.arrays[role]) for role in operands}
    if _is_literal_zero(beta):
        buffers[out] = builder.ensure_buffer(match.arrays[out])
    else:
        buffers[out] = builder.copy_in(match.arrays[out])
    flags = dict(zip(operands, (match.trans_a, match.trans_b)))
    scalars = {"alpha": match.alpha, "beta": beta}
    resolve = {
        TRANS: flags.__getitem__,
        DIM: match.extent_expr,
        SCALAR: scalars.__getitem__,
        BUFFER: buffers.__getitem__,
        LD: lambda role: _leading_dim_expr(builder.program.array(match.arrays[role])),
    }
    args = tuple((slot, resolve[slot.kind](slot.role)) for slot in spec.layout)
    return KernelCallArgs(spec.entry, args, dict(match.arrays), spec.stationary)


def _map_group(
    tree: DomainNode,
    group: list[KernelMatch],
    result: DeviceMappingResult,
) -> tuple[ExtensionNode, DeviceMapping, list[list[ScheduleNode]]]:
    """Build the extension node for one kernel, or one batched GEMM call
    for a fused group."""
    builder = _CallBuilder(tree, result)
    paths = [match.subtree_path(tree) for match in group]
    problems: list[KernelCallArgs] = []
    statements: set[str] = set()
    for match, path in zip(group, paths):
        beta, absorbs_init = _effective_beta(match, path)
        problems.append(_call_args(match, builder, beta))
        statements.add(match.update_stmt)
        if absorbs_init and match.init_stmt is not None:
            statements.add(match.init_stmt)
    if len(problems) == 1:
        call_name, payload = group[0].spec.call, problems[0]
    else:
        call_name, payload = CIM_GEMM_BATCHED, BatchedGemmCallArgs(tuple(problems))
    builder.append(CallStmt(call_name, [payload]))
    for match in group:
        builder.copy_out(match.arrays[match.spec.arrays[0]])
    mapping = DeviceMapping(
        kind=group[0].kind,
        call_name=call_name,
        matches=list(group),
        statements=statements,
        shared_arrays=FusionGroup(list(group)).shared_arrays() if len(group) > 1 else set(),
    )
    return ExtensionNode(builder.calls), mapping, paths


def _detach_root(path: Sequence[ScheduleNode]) -> None:
    """Remove the subtree at the end of a root-to-node *path*, which became
    redundant after fusion, together with the nodes above it that enclose
    only it."""
    depth = len(path) - 1
    if not isinstance(path[depth], FilterNode):
        # Walk up to the filter that encloses only this subtree, if any.
        while depth > 1 and not isinstance(path[depth - 1], SequenceNode):
            depth -= 1
    parent = path[depth - 1]
    if isinstance(parent, SequenceNode):
        for index, child in enumerate(parent.children()):
            if child is path[depth]:
                parent.remove_child(index)
                return
    raise DeviceMappingError(
        "cannot remove a fused kernel's subtree: it is not under a sequence"
    )


def map_kernels_to_cim(
    tree: DomainNode,
    matches: Sequence[KernelMatch],
    fusion_groups: Sequence[FusionGroup] = (),
) -> DeviceMappingResult:
    """Map matched kernels onto the CIM accelerator.

    ``matches`` are the kernels selected for offloading; ``fusion_groups``
    (whose members must all appear in ``matches``) are offloaded as batched
    calls.  The schedule tree is modified in place.
    """
    result = DeviceMappingResult()
    selected_names = {m.update_stmt for m in matches}
    grouped: list[list[KernelMatch]] = []
    in_group: set[str] = set()
    for group in fusion_groups:
        members = [m for m in group.matches if m.update_stmt in selected_names]
        if len(members) > 1:
            grouped.append(members)
            in_group |= {m.update_stmt for m in members}
    for match in matches:
        if match.update_stmt not in in_group:
            grouped.append([match])

    for group in grouped:
        extension, mapping, paths = _map_group(tree, group, result)
        # Replace the first kernel's subtree by the runtime calls, drop the
        # rest (their work is covered by the batched call).  Sequence nodes
        # only accept filter children, so when the replaced subtree is a
        # filter the extension is grafted underneath it instead.
        first = paths[0]
        if isinstance(first[-1], FilterNode) and isinstance(first[-2], SequenceNode):
            first[-1].set_child(0, extension)
        else:
            replace_node(first, extension)
        for redundant in paths[1:]:
            _detach_root(redundant)
        result.mappings.append(mapping)
        result.offloaded_statements |= mapping.statements
    return result
