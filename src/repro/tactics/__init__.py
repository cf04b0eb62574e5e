"""Loop Tactics: declarative detection of computational patterns.

This package reproduces the role of Loop Tactics (Zinenko/Chelini et al.) in
the paper's flow: declarative *structural matchers* over schedule trees
combined with *access-relation matchers* with placeholders, and a pattern
library that recognises the kernels the CIM accelerator can execute (GEMM,
GEMV, batched GEMM, 2D convolution).

The matchers do not transform anything; they produce capture objects
(:class:`~repro.tactics.patterns.gemm.GemmMatch` etc.) that the
transformations in :mod:`repro.transforms` consume.
"""

from repro.tactics.matchers import (
    TreeMatcher,
    m_any,
    m_band,
    m_domain,
    m_filter,
    m_leaf,
    m_sequence,
    match_tree,
)
from repro.tactics.access import (
    Placeholder,
    AccessPattern,
    match_accesses,
    read_access,
    write_access,
)
from repro.tactics.patterns import (
    GemmMatch,
    GemvMatch,
    Conv2DMatch,
    KernelMatch,
    find_gemm_kernels,
    find_gemv_kernels,
    find_conv2d_kernels,
    find_all_kernels,
)

__all__ = [
    "TreeMatcher",
    "m_any",
    "m_band",
    "m_domain",
    "m_filter",
    "m_leaf",
    "m_sequence",
    "match_tree",
    "Placeholder",
    "AccessPattern",
    "match_accesses",
    "read_access",
    "write_access",
    "GemmMatch",
    "GemvMatch",
    "Conv2DMatch",
    "KernelMatch",
    "find_gemm_kernels",
    "find_gemv_kernels",
    "find_conv2d_kernels",
    "find_all_kernels",
]
