"""Tests for the evaluation harness (metrics, Figure 5, Figure 6, Table I)
and the ablation tables."""

import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

from repro import CompileOptions, OffloadExecutor, compile_source
from repro.eval import (
    evaluate_kernel,
    figure5,
    figure5_simulated,
    figure6,
    format_figure5,
    format_figure6,
    format_table,
    geometric_mean,
    improvement_factor,
    table1_rows,
)
from repro.eval.lifetime import SHARED_INPUT_GEMMS_SOURCE
from repro.eval.metrics import edp, signed_log_improvement
from repro.eval.tables import format_table1
from repro.frontend import parse_program
from repro.ir.normalize import normalize_reductions
from repro.poly import build_schedule_tree, detect_scops
from repro.system import CimSystem, SystemConfig
from repro.tactics import find_all_kernels
from repro.transforms import tile_band_chain
from repro.workloads import PAPER_KERNELS, get_kernel


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_geometric_mean_basic():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([5.0]) == pytest.approx(5.0)


def test_geometric_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, -2.0])


def test_improvement_factor_direction():
    assert improvement_factor(10.0, 2.0) == pytest.approx(5.0)
    assert improvement_factor(2.0, 10.0) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        improvement_factor(0.0, 1.0)


def test_signed_log_improvement():
    assert signed_log_improvement(4.0) == pytest.approx(4.0)
    assert signed_log_improvement(0.25) == pytest.approx(-4.0)
    with pytest.raises(ValueError):
        signed_log_improvement(0.0)


def test_edp():
    assert edp(2.0, 3.0) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        edp(-1.0, 1.0)


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def test_table1_render():
    text = format_table1()
    assert "256x256" in text
    assert "Arm-A7" in text
    rows = table1_rows()
    assert len(rows) >= 10


def test_format_table_alignment():
    text = format_table([("a", 1), ("bbb", 22)], headers=("col1", "col2"))
    lines = text.splitlines()
    assert len(lines) == 4
    assert len(set(len(line) for line in lines)) == 1


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------
def test_figure5_projection_shape():
    data = figure5()
    assert data.mode == "projected"
    assert data.lifetime_improvement == pytest.approx(2.0)
    naive_curve = data.naive_curve()
    smart_curve = data.smart_curve()
    assert len(naive_curve) == len(data.endurance_points)
    # Lifetime grows linearly with endurance.
    assert naive_curve[-1][1] == pytest.approx(
        naive_curve[0][1] * data.endurance_points[-1] / data.endurance_points[0]
    )
    # Smart mapping doubles the lifetime at every endurance point.
    for (_, naive_years), (_, smart_years) in zip(naive_curve, smart_curve):
        assert smart_years == pytest.approx(2 * naive_years)
    # The projected range is in the right ballpark (years, not hours).
    assert 1.0 < naive_curve[0][1] < 100.0
    assert "Figure 5" in format_figure5(data)


def test_figure5_simulated_write_counts():
    data = figure5_simulated(matrix_size=24)
    assert data.mode == "simulated"
    # Fusion halves the crossbar write volume (A written once instead of twice).
    assert data.write_volume_ratio == pytest.approx(2.0)
    assert data.lifetime_improvement == pytest.approx(2.0)
    # The naive mapping programs the shared operand twice.
    assert data.naive.crossbar_bytes_written == 2 * 24 * 24
    assert data.smart.crossbar_bytes_written == 24 * 24


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure6_small():
    return figure6(dataset="SMALL")


def test_figure6_covers_all_paper_kernels(figure6_small):
    assert [row.kernel for row in figure6_small.rows] == [
        "2mm", "3mm", "gemm", "conv", "gesummv", "bicg", "mvt",
    ]


def test_figure6_gemm_like_kernels_win(figure6_small):
    for row in figure6_small.rows:
        if row.category == "gemm-like":
            assert row.energy_improvement > 1.0, row.kernel
            assert row.edp_improvement > 1.0, row.kernel
            assert row.macs_per_cim_write > 10.0, row.kernel


def test_figure6_gemv_like_kernels_lose_edp(figure6_small):
    for row in figure6_small.rows:
        if row.category == "gemv-like":
            assert row.edp_improvement < 1.0, row.kernel
            assert row.runtime_improvement < 1.0, row.kernel
            assert row.macs_per_cim_write == pytest.approx(1.0)


def test_figure6_selective_geomean_exceeds_overall(figure6_small):
    assert figure6_small.selective_energy_geomean > figure6_small.energy_geomean
    assert figure6_small.energy_geomean > 1.0


def test_figure6_report_rendering(figure6_small):
    text = format_figure6(figure6_small)
    assert "Selective Geomean" in text
    assert "EDP improvement" in text
    for kernel in ("gemm", "mvt"):
        assert kernel in text


def test_figure6_row_lookup(figure6_small):
    row = figure6_small.row("gemm")
    assert row.kernel == "gemm"
    with pytest.raises(KeyError):
        figure6_small.row("unknown")


def test_evaluate_kernel_verification_path():
    evaluation = evaluate_kernel("gemm", dataset="MINI", verify=True)
    assert evaluation.kernel == "gemm"
    assert evaluation.compilation.report.offloaded_kernels == 1


# ----------------------------------------------------------------------
# Ablations.  Each scenario runs once per session; its table is pinned
# below with the paper's, and its structure is asserted here.
# ----------------------------------------------------------------------
FUSION_N = 48


@functools.cache
def _fusion_run(enable_fusion: bool):
    """Listing 2 on vs off: the named "default" vs "no-fusion" pipeline."""
    options = CompileOptions(pipeline="default" if enable_fusion else "no-fusion")
    result = compile_source(
        SHARED_INPUT_GEMMS_SOURCE, options=options, size_hint={"N": FUSION_N}
    )
    rng = np.random.default_rng(11)
    arrays = {name: rng.random((FUSION_N, FUSION_N), dtype=np.float32) for name in "ABE"}
    arrays.update(C=np.zeros((FUSION_N, FUSION_N), np.float32),
                  D=np.zeros((FUSION_N, FUSION_N), np.float32))
    outputs, report = OffloadExecutor().run(result.program, {"N": FUSION_N}, arrays)
    return result, outputs, report


def _ablation_fusion() -> str:
    unfused, fused = _fusion_run(False)[2], _fusion_run(True)[2]

    def energy(report, attr):
        return round(getattr(report, attr) * 1e6, 2)

    rows = [
        ("crossbar cell writes", unfused.crossbar_cell_writes, fused.crossbar_cell_writes),
        ("kernel launches (BLAS calls)",
         sum(1 for c in unfused.runtime_calls if "Gemm" in c),
         sum(1 for c in fused.runtime_calls if "Gemm" in c)),
        ("host offload energy (uJ)",
         energy(unfused, "offload_energy_j"), energy(fused, "offload_energy_j")),
        ("accelerator energy (uJ)",
         energy(unfused, "accelerator_energy_j"), energy(fused, "accelerator_energy_j")),
        ("total energy (uJ)",
         energy(unfused, "total_energy_j"), energy(fused, "total_energy_j")),
    ]
    return format_table(rows, headers=("Metric", "No fusion", "Fusion (batched)"))


def test_fusion_ablation_structure():
    unfused, fused = _fusion_run(False)[2], _fusion_run(True)[2]
    # Endurance: the shared operand is written once instead of twice.
    assert unfused.crossbar_cell_writes == 2 * fused.crossbar_cell_writes
    # Offload overhead: one batched launch instead of two GEMM launches.
    assert fused.runtime_calls.count("polly_cimBlasGemmBatched") == 1
    assert unfused.runtime_calls.count("polly_cimBlasSGemm") == 2
    assert fused.total_energy_j <= unfused.total_energy_j


def test_fusion_ablation_preserves_results():
    fused_result, fused_out, _ = _fusion_run(True)
    unfused_out = _fusion_run(False)[1]
    np.testing.assert_allclose(fused_out["C"], unfused_out["C"], rtol=1e-4)
    np.testing.assert_allclose(fused_out["D"], unfused_out["D"], rtol=1e-4)
    assert fused_result.report.fusion_groups


GEMM_SYSTEMS = {
    "double-buffering": lambda: SystemConfig(double_buffering=True),
    "no-double-buffering": lambda: SystemConfig(double_buffering=False),
    "ideal": SystemConfig.paper_default,
    "quantized": SystemConfig.quantized,
}


@functools.cache
def _gemm_run(system: str):
    """PolyBench gemm at SMALL on one of ``GEMM_SYSTEMS``."""
    kernel = get_kernel("gemm")
    params = kernel.params("SMALL")
    arrays = kernel.arrays("SMALL", seed=5)
    result = compile_source(kernel.source, size_hint=params)
    outputs, report = OffloadExecutor(CimSystem(GEMM_SYSTEMS[system]())).run(
        result.program, params, arrays
    )
    return outputs, report, kernel.numpy_reference(params, arrays)


def _max_relative_error(system: str) -> float:
    outputs, _, reference = _gemm_run(system)
    return np.abs(outputs["C"] - reference["C"]).max() / np.abs(reference["C"]).max()


def _ablation_double_buffering() -> str:
    with_db, without_db = _gemm_run("double-buffering")[1], _gemm_run("no-double-buffering")[1]
    return format_table(
        [
            ("accelerator latency (us)",
             f"{without_db.accelerator_time_s * 1e6:.1f}",
             f"{with_db.accelerator_time_s * 1e6:.1f}"),
            ("accelerator energy (uJ)",
             f"{without_db.accelerator_energy_j * 1e6:.2f}",
             f"{with_db.accelerator_energy_j * 1e6:.2f}"),
            ("GEMV operations", without_db.gemv_count, with_db.gemv_count),
        ],
        headers=("Metric", "No double buffering", "Double buffering"),
    )


def test_double_buffering_ablation_structure():
    with_db, without_db = _gemm_run("double-buffering")[1], _gemm_run("no-double-buffering")[1]
    assert with_db.accelerator_time_s < without_db.accelerator_time_s
    assert with_db.accelerator_energy_j == pytest.approx(without_db.accelerator_energy_j, rel=1e-6)
    assert with_db.gemv_count == without_db.gemv_count


#: The ideal crossbar's error is float32 rounding measured against NumPy's
#: BLAS, so its digits vary with the BLAS build: the table carries the
#: recorded cell and test_quantized_crossbar_ablation_structure bounds it.
IDEAL_ERROR_CELL = "1.53e-07"


def _ablation_quantized() -> str:
    ideal, quant = _gemm_run("ideal")[1], _gemm_run("quantized")[1]
    return format_table(
        [
            ("max relative error", IDEAL_ERROR_CELL, f"{_max_relative_error('quantized'):.2e}"),
            ("accelerator energy (uJ)",
             f"{ideal.accelerator_energy_j * 1e6:.2f}",
             f"{quant.accelerator_energy_j * 1e6:.2f}"),
            ("crossbar cell writes", ideal.crossbar_cell_writes, quant.crossbar_cell_writes),
        ],
        headers=("Metric", "Ideal crossbar", "Quantized 2x4-bit crossbar"),
    )


def test_quantized_crossbar_ablation_structure():
    ideal, quant = _gemm_run("ideal")[1], _gemm_run("quantized")[1]
    assert _max_relative_error("ideal") < 1e-6  # a few float32 ulps
    assert _max_relative_error("quantized") < 0.05
    # Table I charges per operation, not per bit pattern.
    assert quant.crossbar_cell_writes == ideal.crossbar_cell_writes
    assert quant.accelerator_energy_j == pytest.approx(ideal.accelerator_energy_j, rel=1e-6)


@functools.cache
def _energy_improvements(selective: bool) -> dict[str, float]:
    """Energy improvement per paper kernel at SMALL, offloading everything
    or only what the compute-intensity heuristic selects."""
    options = CompileOptions.selective(threshold=32.0) if selective else CompileOptions()
    return {
        name: evaluate_kernel(name, dataset="SMALL", options=options).energy_improvement
        for name in PAPER_KERNELS
    }


def _ablation_selective() -> str:
    offload_all, selective = _energy_improvements(False), _energy_improvements(True)
    rows = [
        (name, get_kernel(name).category, f"{offload_all[name]:.2f}x", f"{selective[name]:.2f}x")
        for name in PAPER_KERNELS
    ]
    rows.append(
        ("Geomean", "",
         f"{geometric_mean(offload_all.values()):.2f}x",
         f"{geometric_mean(selective.values()):.2f}x")
    )
    return format_table(
        rows, headers=("Kernel", "Category", "Offload everything", "Selective offload")
    )


def test_selective_offloading_ablation_structure():
    offload_all, selective = _energy_improvements(False), _energy_improvements(True)
    # GEMV-like kernels stay on the host: exactly 1x, never a regression.
    for name in ("gesummv", "bicg", "mvt"):
        assert selective[name] == pytest.approx(1.0, rel=1e-6)
        assert offload_all[name] < 2.0
    # GEMM-like kernels are offloaded in both configurations.
    for name in ("2mm", "3mm", "gemm", "conv"):
        assert selective[name] == pytest.approx(offload_all[name], rel=1e-6)
        assert selective[name] > 1.0
    assert geometric_mean(selective.values()) > geometric_mean(offload_all.values())


PURE_GEMM = """
void matmul(int N, float C[N][N], float A[N][N], float B[N][N]) {
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < N; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""
TILING_N, CROSSBAR = 1024, 256
TILE_BLOCKS = TILING_N // CROSSBAR


def _tile_write_count(tile_order: tuple[str, str, str]) -> int:
    """A-tile crossbar writes of Listing 3's tiled GEMM in *tile_order*:
    one whenever the (i_t, k_t) tile of the next point-loop execution
    differs from the resident one."""
    program = normalize_reductions(parse_program(PURE_GEMM))
    scop = detect_scops(program)[0]
    tree = build_schedule_tree(scop)
    [match] = find_all_kernels(scop)
    bands = match.band_chain(tree)
    tile_band = tile_band_chain(
        tree, bands, dict.fromkeys("ijk", CROSSBAR), tile_loop_order=list(tile_order)
    )
    writes, resident = 0, None
    for point in itertools.product(range(TILE_BLOCKS), repeat=3):
        tile = dict(zip(tile_band.dims, point))
        if (tile["i_t"], tile["k_t"]) != resident:
            writes += 1
            resident = (tile["i_t"], tile["k_t"])
    return writes


def _ablation_tiling() -> str:
    naive, paper = _tile_write_count(("i", "j", "k")), _tile_write_count(("i", "k", "j"))
    return format_table(
        [
            ("naive tile order (i_t, j_t, k_t)", naive),
            ("paper tile order (i_t, k_t, j_t)", paper),
            ("reduction factor", f"{naive / paper:.1f}x"),
        ],
        headers=("Configuration", "A-tile crossbar writes"),
    )


def test_tiling_ablation_structure():
    # Paper order: each (i_t, k_t) tile is written once; naive order
    # rewrites it for every j_t block.
    assert _tile_write_count(("i", "k", "j")) == TILE_BLOCKS**2
    assert _tile_write_count(("i", "j", "k")) == TILE_BLOCKS**3


# ----------------------------------------------------------------------
# The paper's tables, exact: any drift in the cost, energy or endurance
# model moves a digit here.  A deliberate model change regenerates the
# file from the formatter named beside it and says so in CHANGES.md.
# ----------------------------------------------------------------------
PAPER_GOLDENS = {
    "table1_config": format_table1,
    "fig5_lifetime_projected": lambda: format_figure5(figure5()),
    "fig5_lifetime_simulated": lambda: format_figure5(
        figure5_simulated(matrix_size=48)
    ),
    "fig6_energy_small": lambda: format_figure6(figure6("SMALL")),
    "fig6_energy_medium": lambda: format_figure6(figure6("MEDIUM")),
    "ablation_fusion": _ablation_fusion,
    "ablation_double_buffering": _ablation_double_buffering,
    "ablation_quantized": _ablation_quantized,
    "ablation_selective": _ablation_selective,
    "ablation_tiling": _ablation_tiling,
}


@pytest.mark.parametrize("name", sorted(PAPER_GOLDENS))
def test_paper_table_equals_golden(name):
    golden = Path(__file__).parent / "golden" / "paper" / f"{name}.txt"
    assert PAPER_GOLDENS[name]() + "\n" == golden.read_text()
