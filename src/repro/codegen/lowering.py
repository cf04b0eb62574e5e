"""Reassemble transformed SCoPs into a complete program.

Polly regenerates LLVM-IR for each transformed SCoP and splices it back into
the surrounding function; here the regenerated top-level statements of every
SCoP replace the original loop nests in the program body, and a prologue
(``polly_cimInit``) is prepended when anything was offloaded.

The emitted runtime calls are deliberately *tile-agnostic*: a compiled
program names kernels and operands (``polly_cimBlasSGemm(...)``), never
tile placements, so the same artifact — including one served from the
kernel-compile cache (:mod:`repro.compiler.cache`) — runs unchanged on any
``num_tiles`` configuration.  Sharding and pipelining happen below the
runtime ABI, in the micro-engine's scheduler (:mod:`repro.hw.scheduler`).
"""

from __future__ import annotations

from typing import Sequence

from repro.codegen.runtime_calls import CIM_INIT, InitCallArgs
from repro.ir.program import Program
from repro.ir.stmt import Block, CallStmt, Stmt
from repro.poly.scop import Scop


def reassemble_program(
    original: Program,
    replacements: Sequence[tuple[Scop, list[Stmt]]],
    add_init_call: bool = False,
    suffix: str = "_cim",
) -> Program:
    """Build the compiled program.

    ``replacements`` pairs each SCoP with the top-level statements generated
    from its (transformed) schedule tree.  SCoPs must come from *original*;
    statements of the original body that belong to no SCoP are kept as they
    are.  When ``add_init_call`` is set, a ``polly_cimInit(0)`` call is
    prepended (the device is initialised once per program, as in Listing 1).
    """
    covered: dict[int, tuple[Scop, list[Stmt]]] = {}
    for scop, stmts in replacements:
        if scop.program is not original:
            raise ValueError(
                f"SCoP {scop.name!r} does not belong to the program being reassembled"
            )
        covered[scop.body_start] = (scop, stmts)

    new_body: list[Stmt] = []
    if add_init_call:
        new_body.append(CallStmt(CIM_INIT, [InitCallArgs(0)]))

    index = 0
    body = original.body.stmts
    while index < len(body):
        if index in covered:
            scop, stmts = covered[index]
            new_body.extend(stmts)
            index += len(scop.nests)
        else:
            new_body.append(body[index])
            index += 1

    return Program(
        name=original.name + suffix,
        params=list(original.params),
        arrays=list(original.arrays),
        body=Block(new_body),
    )
