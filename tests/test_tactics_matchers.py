"""Tests for the access matchers."""

from repro.poly.access import AccessKind, AccessRelation
from repro.poly.affine import AffineExpr
from repro.tactics.access import (
    array_placeholders,
    dim_placeholders,
    match_accesses,
    read_access,
    write_access,
)


# ----------------------------------------------------------------------
# Access matchers
# ----------------------------------------------------------------------
def test_access_match_gemm_update(gemm_scop):
    update = gemm_scop.statements[1]
    i, j, k = dim_placeholders("i", "j", "k")
    a, b, c = array_placeholders("A", "B", "C")
    binding = match_accesses(
        update.accesses,
        [
            write_access(c, (i, j)),
            read_access(c, (i, j)),
            read_access(a, (i, k)),
            read_access(b, (k, j)),
        ],
    )
    assert binding is not None
    assert binding.array("C") == "C" and binding.array("A") == "A"
    assert binding.dim("i") == "i" and binding.dim("k") == "k"


def test_access_match_rejects_wrong_orientation(gemm_scop):
    update = gemm_scop.statements[1]
    i, j, k = dim_placeholders("i", "j", "k")
    a, b, c = array_placeholders("A", "B", "C")
    binding = match_accesses(
        update.accesses,
        [
            write_access(c, (i, j)),
            read_access(c, (i, j)),
            read_access(a, (k, i)),   # transposed A: should not unify
            read_access(b, (k, j)),
        ],
    )
    assert binding is None


def test_access_match_requires_all_accesses_consumed(gemm_scop):
    update = gemm_scop.statements[1]
    i, j = dim_placeholders("i", "j")
    c = array_placeholders("C")[0]
    binding = match_accesses(update.accesses, [write_access(c, (i, j))])
    assert binding is None
    binding = match_accesses(
        update.accesses, [write_access(c, (i, j))], allow_extra=True
    )
    assert binding is not None


def test_distinct_dims_constraint():
    accesses = [
        AccessRelation("X", AccessKind.WRITE, (AffineExpr.var("i"), AffineExpr.var("i"))),
    ]
    i, j = dim_placeholders("i", "j")
    x = array_placeholders("X")[0]
    assert match_accesses(accesses, [write_access(x, (i, j))]) is None
    assert (
        match_accesses(accesses, [write_access(x, (i, j))], distinct_dims=False)
        is not None
    )


def test_sum_subscript_binds_its_terms_in_any_order():
    r, c, a, b = (AffineExpr.var(v) for v in ("r", "c", "a", "b"))
    accesses = [
        AccessRelation("F", AccessKind.READ, (a, b)),
        AccessRelation("I", AccessKind.READ, (r + a, c + b)),
    ]
    i, j, p, q = dim_placeholders("i", "j", "p", "q")
    f, img = array_placeholders("F", "img")
    pattern = [read_access(f, (p, q)), read_access(img, (i + p, j + q))]
    binding = match_accesses(accesses, pattern)
    assert binding is not None
    assert binding.dims == {"p": "a", "q": "b", "i": "r", "j": "c"}
    assert str(pattern[1]) == "read:?img[?i + ?p][?j + ?q]"
    # A sum matches only unit coefficients, no constant and no parameter.
    for index in (r + a + AffineExpr.constant_expr(1), r + AffineExpr.var("a", 2),
                  r + a + AffineExpr.param("N"), r):
        shifted = [accesses[0], AccessRelation("I", AccessKind.READ, (index, c + b))]
        assert match_accesses(shifted, pattern) is None
