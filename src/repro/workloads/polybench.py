"""PolyBench/C kernel definitions.

The evaluated set follows the paper: GEMM-like kernels (``2mm``, ``3mm``,
``gemm``, ``conv``) and GEMV-like kernels (``gesummv``, ``bicg``, ``mvt``);
``atax`` is included as an extra GEMV-like workload to exercise the
loop-distribution path.  Sources are written in the mini-C subset; loop
structure and access patterns match PolyBench/C 4.2 (scaled dataset sizes —
the simulator is a Python model, not a silicon testbed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

DATASETS = ("MINI", "SMALL", "MEDIUM", "LARGE")


@dataclass(frozen=True)
class PolybenchKernel:
    """One workload: source, dataset presets, initialisers, reference."""

    name: str
    category: str  # "gemm-like" or "gemv-like"
    description: str
    source: str
    datasets: Mapping[str, Mapping[str, float]]
    init_arrays: Callable[[Mapping[str, float], int], dict[str, np.ndarray]]
    numpy_reference: Callable[
        [Mapping[str, float], Mapping[str, np.ndarray]], dict[str, np.ndarray]
    ]
    output_arrays: tuple[str, ...]

    def params(self, dataset: str = "SMALL") -> dict[str, float]:
        if dataset not in self.datasets:
            raise KeyError(
                f"kernel {self.name!r} has no dataset {dataset!r}; "
                f"available: {sorted(self.datasets)}"
            )
        return dict(self.datasets[dataset])

    def arrays(self, dataset: str = "SMALL", seed: int = 0) -> dict[str, np.ndarray]:
        return self.init_arrays(self.params(dataset), seed)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# gemm
# ----------------------------------------------------------------------
_GEMM_SOURCE = """
void gemm(int NI, int NJ, int NK, float alpha, float beta,
          float C[NI][NJ], float A[NI][NK], float B[NK][NJ]) {
  for (int i = 0; i < NI; i++)
    for (int j = 0; j < NJ; j++) {
      C[i][j] = beta * C[i][j];
      for (int k = 0; k < NK; k++)
        C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j];
    }
}
"""


def _gemm_init(params, seed):
    rng = _rng(seed)
    ni, nj, nk = int(params["NI"]), int(params["NJ"]), int(params["NK"])
    return {
        "A": rng.random((ni, nk), dtype=np.float32),
        "B": rng.random((nk, nj), dtype=np.float32),
        "C": rng.random((ni, nj), dtype=np.float32),
    }


def _gemm_ref(params, arrays):
    a = arrays["A"].astype(np.float64)
    b = arrays["B"].astype(np.float64)
    c = arrays["C"].astype(np.float64)
    out = params["beta"] * c + params["alpha"] * (a @ b)
    return {"C": out}


# ----------------------------------------------------------------------
# 2mm
# ----------------------------------------------------------------------
_2MM_SOURCE = """
void k2mm(int NI, int NJ, int NK, int NL, float alpha, float beta,
          float tmp[NI][NJ], float A[NI][NK], float B[NK][NJ],
          float C[NJ][NL], float D[NI][NL]) {
  for (int i = 0; i < NI; i++)
    for (int j = 0; j < NJ; j++) {
      tmp[i][j] = 0.0;
      for (int k = 0; k < NK; k++)
        tmp[i][j] += alpha * A[i][k] * B[k][j];
    }
  for (int i = 0; i < NI; i++)
    for (int j = 0; j < NL; j++) {
      D[i][j] = D[i][j] * beta;
      for (int k = 0; k < NJ; k++)
        D[i][j] += tmp[i][k] * C[k][j];
    }
}
"""


def _2mm_init(params, seed):
    rng = _rng(seed)
    ni, nj, nk, nl = (int(params[p]) for p in ("NI", "NJ", "NK", "NL"))
    return {
        "tmp": np.zeros((ni, nj), dtype=np.float32),
        "A": rng.random((ni, nk), dtype=np.float32),
        "B": rng.random((nk, nj), dtype=np.float32),
        "C": rng.random((nj, nl), dtype=np.float32),
        "D": rng.random((ni, nl), dtype=np.float32),
    }


def _2mm_ref(params, arrays):
    a, b = arrays["A"].astype(np.float64), arrays["B"].astype(np.float64)
    c, d = arrays["C"].astype(np.float64), arrays["D"].astype(np.float64)
    tmp = params["alpha"] * (a @ b)
    out = params["beta"] * d + tmp @ c
    return {"tmp": tmp, "D": out}


# ----------------------------------------------------------------------
# 3mm
# ----------------------------------------------------------------------
_3MM_SOURCE = """
void k3mm(int NI, int NJ, int NK, int NL, int NM,
          float E[NI][NJ], float A[NI][NK], float B[NK][NJ],
          float F[NJ][NL], float C[NJ][NM], float D[NM][NL],
          float G[NI][NL]) {
  for (int i = 0; i < NI; i++)
    for (int j = 0; j < NJ; j++) {
      E[i][j] = 0.0;
      for (int k = 0; k < NK; k++)
        E[i][j] += A[i][k] * B[k][j];
    }
  for (int i = 0; i < NJ; i++)
    for (int j = 0; j < NL; j++) {
      F[i][j] = 0.0;
      for (int k = 0; k < NM; k++)
        F[i][j] += C[i][k] * D[k][j];
    }
  for (int i = 0; i < NI; i++)
    for (int j = 0; j < NL; j++) {
      G[i][j] = 0.0;
      for (int k = 0; k < NJ; k++)
        G[i][j] += E[i][k] * F[k][j];
    }
}
"""


def _3mm_init(params, seed):
    rng = _rng(seed)
    ni, nj, nk, nl, nm = (int(params[p]) for p in ("NI", "NJ", "NK", "NL", "NM"))
    return {
        "E": np.zeros((ni, nj), dtype=np.float32),
        "A": rng.random((ni, nk), dtype=np.float32),
        "B": rng.random((nk, nj), dtype=np.float32),
        "F": np.zeros((nj, nl), dtype=np.float32),
        "C": rng.random((nj, nm), dtype=np.float32),
        "D": rng.random((nm, nl), dtype=np.float32),
        "G": np.zeros((ni, nl), dtype=np.float32),
    }


def _3mm_ref(params, arrays):
    a, b = arrays["A"].astype(np.float64), arrays["B"].astype(np.float64)
    c, d = arrays["C"].astype(np.float64), arrays["D"].astype(np.float64)
    e = a @ b
    f = c @ d
    g = e @ f
    return {"E": e, "F": f, "G": g}


# ----------------------------------------------------------------------
# conv (2D convolution, valid padding, unit stride)
# ----------------------------------------------------------------------
_CONV_SOURCE = """
void conv2d(int OH, int OW, int KH, int KW, float alpha,
            float out[OH][OW], float img[OH + KH - 1][OW + KW - 1],
            float W[KH][KW]) {
  for (int i = 0; i < OH; i++)
    for (int j = 0; j < OW; j++) {
      out[i][j] = 0.0;
      for (int p = 0; p < KH; p++)
        for (int q = 0; q < KW; q++)
          out[i][j] += alpha * W[p][q] * img[i + p][j + q];
    }
}
"""


def _conv_init(params, seed):
    rng = _rng(seed)
    oh, ow = int(params["OH"]), int(params["OW"])
    kh, kw = int(params["KH"]), int(params["KW"])
    return {
        "out": np.zeros((oh, ow), dtype=np.float32),
        "img": rng.random((oh + kh - 1, ow + kw - 1), dtype=np.float32),
        "W": rng.random((kh, kw), dtype=np.float32),
    }


def _conv_ref(params, arrays):
    img = arrays["img"].astype(np.float64)
    weights = arrays["W"].astype(np.float64)
    oh, ow = int(params["OH"]), int(params["OW"])
    kh, kw = int(params["KH"]), int(params["KW"])
    out = np.zeros((oh, ow))
    for p in range(kh):
        for q in range(kw):
            out += weights[p, q] * img[p : p + oh, q : q + ow]
    return {"out": params["alpha"] * out}


# ----------------------------------------------------------------------
# gesummv
# ----------------------------------------------------------------------
_GESUMMV_SOURCE = """
void gesummv(int N, float alpha, float beta,
             float A[N][N], float B[N][N], float tmp[N], float x[N], float y[N]) {
  for (int i = 0; i < N; i++) {
    tmp[i] = 0.0;
    y[i] = 0.0;
    for (int j = 0; j < N; j++) {
      tmp[i] = A[i][j] * x[j] + tmp[i];
      y[i] = B[i][j] * x[j] + y[i];
    }
    y[i] = alpha * tmp[i] + beta * y[i];
  }
}
"""


def _gesummv_init(params, seed):
    rng = _rng(seed)
    n = int(params["N"])
    return {
        "A": rng.random((n, n), dtype=np.float32),
        "B": rng.random((n, n), dtype=np.float32),
        "tmp": np.zeros(n, dtype=np.float32),
        "x": rng.random(n, dtype=np.float32),
        "y": np.zeros(n, dtype=np.float32),
    }


def _gesummv_ref(params, arrays):
    a, b = arrays["A"].astype(np.float64), arrays["B"].astype(np.float64)
    x = arrays["x"].astype(np.float64)
    tmp = a @ x
    y = params["alpha"] * tmp + params["beta"] * (b @ x)
    return {"tmp": tmp, "y": y}


# ----------------------------------------------------------------------
# bicg
# ----------------------------------------------------------------------
_BICG_SOURCE = """
void bicg(int N, int M, float A[N][M], float s[M], float q[N],
          float p[M], float r[N]) {
  for (int i = 0; i < M; i++)
    s[i] = 0.0;
  for (int i = 0; i < N; i++) {
    q[i] = 0.0;
    for (int j = 0; j < M; j++) {
      s[j] = s[j] + r[i] * A[i][j];
      q[i] = q[i] + A[i][j] * p[j];
    }
  }
}
"""


def _bicg_init(params, seed):
    rng = _rng(seed)
    n, m = int(params["N"]), int(params["M"])
    return {
        "A": rng.random((n, m), dtype=np.float32),
        "s": np.zeros(m, dtype=np.float32),
        "q": np.zeros(n, dtype=np.float32),
        "p": rng.random(m, dtype=np.float32),
        "r": rng.random(n, dtype=np.float32),
    }


def _bicg_ref(params, arrays):
    a = arrays["A"].astype(np.float64)
    p = arrays["p"].astype(np.float64)
    r = arrays["r"].astype(np.float64)
    return {"s": a.T @ r, "q": a @ p}


# ----------------------------------------------------------------------
# mvt
# ----------------------------------------------------------------------
_MVT_SOURCE = """
void mvt(int N, float x1[N], float x2[N], float y1[N], float y2[N],
         float A[N][N]) {
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++)
      x1[i] = x1[i] + A[i][j] * y1[j];
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++)
      x2[i] = x2[i] + A[j][i] * y2[j];
}
"""


def _mvt_init(params, seed):
    rng = _rng(seed)
    n = int(params["N"])
    return {
        "x1": rng.random(n, dtype=np.float32),
        "x2": rng.random(n, dtype=np.float32),
        "y1": rng.random(n, dtype=np.float32),
        "y2": rng.random(n, dtype=np.float32),
        "A": rng.random((n, n), dtype=np.float32),
    }


def _mvt_ref(params, arrays):
    a = arrays["A"].astype(np.float64)
    return {
        "x1": arrays["x1"].astype(np.float64) + a @ arrays["y1"].astype(np.float64),
        "x2": arrays["x2"].astype(np.float64) + a.T @ arrays["y2"].astype(np.float64),
    }


# ----------------------------------------------------------------------
# atax
# ----------------------------------------------------------------------
_ATAX_SOURCE = """
void atax(int M, int N, float A[M][N], float x[N], float y[N], float tmp[M]) {
  for (int i = 0; i < N; i++)
    y[i] = 0.0;
  for (int i = 0; i < M; i++) {
    tmp[i] = 0.0;
    for (int j = 0; j < N; j++)
      tmp[i] = tmp[i] + A[i][j] * x[j];
    for (int j = 0; j < N; j++)
      y[j] = y[j] + A[i][j] * tmp[i];
  }
}
"""


def _atax_init(params, seed):
    rng = _rng(seed)
    m, n = int(params["M"]), int(params["N"])
    return {
        "A": rng.random((m, n), dtype=np.float32),
        "x": rng.random(n, dtype=np.float32),
        "y": np.zeros(n, dtype=np.float32),
        "tmp": np.zeros(m, dtype=np.float32),
    }


def _atax_ref(params, arrays):
    a = arrays["A"].astype(np.float64)
    x = arrays["x"].astype(np.float64)
    tmp = a @ x
    return {"tmp": tmp, "y": a.T @ tmp}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
KERNELS: dict[str, PolybenchKernel] = {
    "gemm": PolybenchKernel(
        name="gemm",
        category="gemm-like",
        description="C = alpha*A*B + beta*C",
        source=_GEMM_SOURCE,
        datasets={
            "MINI": {"NI": 12, "NJ": 14, "NK": 16, "alpha": 1.5, "beta": 1.2},
            "SMALL": {"NI": 40, "NJ": 44, "NK": 48, "alpha": 1.5, "beta": 1.2},
            "MEDIUM": {"NI": 128, "NJ": 128, "NK": 128, "alpha": 1.5, "beta": 1.2},
            "LARGE": {"NI": 200, "NJ": 220, "NK": 240, "alpha": 1.5, "beta": 1.2},
        },
        init_arrays=_gemm_init,
        numpy_reference=_gemm_ref,
        output_arrays=("C",),
    ),
    "2mm": PolybenchKernel(
        name="2mm",
        category="gemm-like",
        description="D = alpha*A*B*C + beta*D (two chained GEMMs)",
        source=_2MM_SOURCE,
        datasets={
            "MINI": {"NI": 10, "NJ": 12, "NK": 14, "NL": 16, "alpha": 1.5, "beta": 1.2},
            "SMALL": {"NI": 36, "NJ": 40, "NK": 44, "NL": 48, "alpha": 1.5, "beta": 1.2},
            "MEDIUM": {"NI": 112, "NJ": 120, "NK": 128, "NL": 128, "alpha": 1.5, "beta": 1.2},
            "LARGE": {"NI": 180, "NJ": 190, "NK": 210, "NL": 220, "alpha": 1.5, "beta": 1.2},
        },
        init_arrays=_2mm_init,
        numpy_reference=_2mm_ref,
        output_arrays=("D",),
    ),
    "3mm": PolybenchKernel(
        name="3mm",
        category="gemm-like",
        description="G = (A*B)*(C*D) (three GEMMs, first two independent)",
        source=_3MM_SOURCE,
        datasets={
            "MINI": {"NI": 10, "NJ": 12, "NK": 14, "NL": 16, "NM": 18},
            "SMALL": {"NI": 36, "NJ": 40, "NK": 44, "NL": 48, "NM": 52},
            "MEDIUM": {"NI": 112, "NJ": 120, "NK": 128, "NL": 128, "NM": 136},
            "LARGE": {"NI": 180, "NJ": 190, "NK": 200, "NL": 210, "NM": 220},
        },
        init_arrays=_3mm_init,
        numpy_reference=_3mm_ref,
        output_arrays=("G",),
    ),
    "conv": PolybenchKernel(
        name="conv",
        category="gemm-like",
        description="2D convolution (filter stationary on the crossbar)",
        source=_CONV_SOURCE,
        datasets={
            "MINI": {"OH": 8, "OW": 10, "KH": 3, "KW": 3, "alpha": 1.0},
            "SMALL": {"OH": 30, "OW": 32, "KH": 3, "KW": 3, "alpha": 1.0},
            "MEDIUM": {"OH": 120, "OW": 128, "KH": 5, "KW": 5, "alpha": 1.0},
            "LARGE": {"OH": 180, "OW": 192, "KH": 5, "KW": 5, "alpha": 1.0},
        },
        init_arrays=_conv_init,
        numpy_reference=_conv_ref,
        output_arrays=("out",),
    ),
    "gesummv": PolybenchKernel(
        name="gesummv",
        category="gemv-like",
        description="y = alpha*A*x + beta*B*x",
        source=_GESUMMV_SOURCE,
        datasets={
            "MINI": {"N": 16, "alpha": 1.5, "beta": 1.2},
            "SMALL": {"N": 56, "alpha": 1.5, "beta": 1.2},
            "MEDIUM": {"N": 160, "alpha": 1.5, "beta": 1.2},
            "LARGE": {"N": 320, "alpha": 1.5, "beta": 1.2},
        },
        init_arrays=_gesummv_init,
        numpy_reference=_gesummv_ref,
        output_arrays=("y",),
    ),
    "bicg": PolybenchKernel(
        name="bicg",
        category="gemv-like",
        description="s = A^T r ; q = A p",
        source=_BICG_SOURCE,
        datasets={
            "MINI": {"N": 14, "M": 16},
            "SMALL": {"N": 52, "M": 56},
            "MEDIUM": {"N": 152, "M": 160},
            "LARGE": {"N": 300, "M": 320},
        },
        init_arrays=_bicg_init,
        numpy_reference=_bicg_ref,
        output_arrays=("s", "q"),
    ),
    "mvt": PolybenchKernel(
        name="mvt",
        category="gemv-like",
        description="x1 += A y1 ; x2 += A^T y2",
        source=_MVT_SOURCE,
        datasets={
            "MINI": {"N": 16},
            "SMALL": {"N": 56},
            "MEDIUM": {"N": 160},
            "LARGE": {"N": 320},
        },
        init_arrays=_mvt_init,
        numpy_reference=_mvt_ref,
        output_arrays=("x1", "x2"),
    ),
    "atax": PolybenchKernel(
        name="atax",
        category="gemv-like",
        description="y = A^T (A x)",
        source=_ATAX_SOURCE,
        datasets={
            "MINI": {"M": 14, "N": 16},
            "SMALL": {"M": 52, "N": 56},
            "MEDIUM": {"M": 152, "N": 160},
            "LARGE": {"M": 300, "N": 320},
        },
        init_arrays=_atax_init,
        numpy_reference=_atax_ref,
        output_arrays=("y",),
    ),
}

#: The seven kernels evaluated in the paper's Figure 6, in figure order.
PAPER_KERNELS = ("2mm", "3mm", "gemm", "conv", "gesummv", "bicg", "mvt")


def get_kernel(name: str) -> PolybenchKernel:
    if name not in KERNELS:
        raise KeyError(f"unknown PolyBench kernel {name!r}; available: {sorted(KERNELS)}")
    return KERNELS[name]


def kernel_names() -> list[str]:
    return sorted(KERNELS)
