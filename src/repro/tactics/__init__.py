"""Loop Tactics: declarative detection of computational patterns.

This package reproduces the role of Loop Tactics (Zinenko/Chelini et al.) in
the paper's flow: *access-relation matchers* with placeholders
(:mod:`repro.tactics.access`) and a pattern library
(:mod:`repro.tactics.patterns`) that declares each kernel the CIM
accelerator can execute (GEMM, GEMV, 2D convolution) as a table of access
patterns.  Detection is per statement, on access patterns and domain depth;
the loop-nest structure around a kernel is left to ``isolate``.

The matchers do not transform anything; they produce
:class:`~repro.tactics.patterns.KernelMatch` objects, each bound to its
kind's spec, that the transformations in :mod:`repro.transforms` consume.
"""

from repro.tactics.access import (
    Placeholder,
    AccessPattern,
    match_accesses,
    read_access,
    write_access,
)
from repro.tactics.patterns import (
    KERNEL_SPECS,
    KernelMatch,
    KernelSpec,
    find_all_kernels,
    match_statement,
)

__all__ = [
    "Placeholder",
    "AccessPattern",
    "match_accesses",
    "read_access",
    "write_access",
    "KERNEL_SPECS",
    "KernelMatch",
    "KernelSpec",
    "find_all_kernels",
    "match_statement",
]
