"""A register tile changes no byte of what a C body computes.

A ``+`` reduction whose value is unit-stride along its target's last axis
runs its sequential loops inside register tiles (up to 2 rows x 4
vectors).  Every element still adds its terms one at a time, in the order
of the sequential loops, so each shape here must give the same bytes and
trace from the tiled C body, an untiled one, the fold body and the
interpreter: gemm nests at every row and column count around a tile's
edges, sequential extents 0 and 1, float and double, conv 5x5, mvt's
transposed nest and operands whose subscript names the strip variable
with coefficient 0.  Nests that must not tile give the same results on an
untiled body.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir.engine import native_available
from repro.workloads.polybench import KERNELS
from tests.test_engine_isa import _assert_isa_invariant, _program

pytestmark = pytest.mark.skipif(not native_available(), reason="no C toolchain")

GEMM = {"float": KERNELS["gemm"].source, "double": KERNELS["gemm"].source.replace("float", "double")}


def _arrays(source, params, seed=0):
    rng = np.random.default_rng(seed)
    return {
        decl.name: rng.standard_normal(decl.extent(params)).astype(decl.elem_type.numpy_dtype)
        for decl in _program(source).arrays
    }


def _assert_tiled(monkeypatch, source, params, tiled=True):
    _assert_isa_invariant(monkeypatch, source, params, _arrays(source, params), tiled=tiled)


@pytest.mark.parametrize("elem", sorted(GEMM))
@pytest.mark.parametrize("cols", [1, 7, 31, 32, 33, 64, 65])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_gemm_tiles_at_every_edge(monkeypatch, rows, cols, elem):
    params = {"NI": rows, "NJ": cols, "NK": 5, "alpha": 1.5, "beta": 1.2}
    _assert_tiled(monkeypatch, GEMM[elem], params)


@pytest.mark.parametrize("elem", sorted(GEMM))
@pytest.mark.parametrize("depth", [0, 1])
def test_sequential_extents_zero_and_one(monkeypatch, depth, elem):
    params = {"NI": 3, "NJ": 33, "NK": depth, "alpha": 1.5, "beta": 1.2}
    _assert_tiled(monkeypatch, GEMM[elem], params)


def test_conv_5x5_at_width_33(monkeypatch):
    params = {"OH": 3, "OW": 33, "KH": 5, "KW": 5, "alpha": 1.5}
    _assert_tiled(monkeypatch, KERNELS["conv"].source, params)


@pytest.mark.parametrize("name", ["mvt", "bicg"])
def test_transposed_and_row_broadcast_vector_nests(monkeypatch, name):
    """mvt's ``x2[i] += A[j][i] * y2[j]`` and bicg's ``s[j] += r[i] *
    A[i][j]``: one row of four vectors, the sequential loop outermost."""
    params = {"mvt": {"N": 45}, "bicg": {"N": 7, "M": 45}}[name]
    _assert_tiled(monkeypatch, KERNELS[name].source, params)


@pytest.mark.parametrize("operand", ["B[k][j - j]", "B[k][0 * j]", "B[j - j + k][j]"])
def test_a_subscript_that_names_the_strip_with_coefficient_zero(monkeypatch, operand):
    """``j - j`` names the strip variable but does not move with it: that
    subscript is one value per row, broadcast, never a vector load."""
    source = GEMM["float"].replace("B[k][j]", operand)
    _assert_tiled(monkeypatch, source, {"NI": 3, "NJ": 33, "NK": 5, "alpha": 1.5, "beta": 1.2})


#: Nests that keep their untiled body.
NOT_TILED = {
    # Each element reads its own partial sum; a tile would read it stale.
    "reads-what-it-writes": """
void k(int N, int K, double x[N], double A[K][N]) {
  for (int k = 0; k < K; k++)
    for (int j = 0; j < N; j++)
      x[j] = x[j] + A[k][j] * x[j];
}""",
    "strided-operand": """
void k(int NI, int NJ, int NK, float C[NI][NJ], float A[NI][NK], float B[NJ][NK]) {
  for (int i = 0; i < NI; i++)
    for (int j = 0; j < NJ; j++)
      for (int k = 0; k < NK; k++)
        C[i][j] += A[i][k] * B[j][k];
}""",
    "two-statements": """
void k(int NI, int NJ, int NK, float C[NI][NJ], float A[NI][NK], float B[NK][NJ]) {
  for (int i = 0; i < NI; i++)
    for (int j = 0; j < NJ; j++)
      for (int k = 0; k < NK; k++) {
        C[i][j] += A[i][k] * B[k][j];
        C[i][j] = C[i][j] * 0.5;
      }
}""",
    "mixed-types": """
void k(int NI, int NJ, int NK, float C[NI][NJ], float A[NI][NK], double B[NK][NJ]) {
  for (int i = 0; i < NI; i++)
    for (int j = 0; j < NJ; j++)
      for (int k = 0; k < NK; k++)
        C[i][j] += A[i][k] * B[k][j];
}""",
}


@pytest.mark.parametrize("name", sorted(NOT_TILED))
def test_nests_that_must_not_tile(monkeypatch, name):
    params = {"N": 33, "K": 5} if name == "reads-what-it-writes" else {"NI": 3, "NJ": 33, "NK": 5}
    _assert_tiled(monkeypatch, NOT_TILED[name], params, tiled=False)
