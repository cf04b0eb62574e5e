"""Tests for the evaluation harness (metrics, Figure 5, Figure 6, Table I)."""

from pathlib import Path

import pytest

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
from repro.eval.metrics import edp, signed_log_improvement
from repro.eval.tables import format_table1


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
}


@pytest.mark.parametrize("name", sorted(PAPER_GOLDENS))
def test_paper_table_equals_golden(name):
    golden = Path(__file__).parent / "golden" / "paper" / f"{name}.txt"
    assert PAPER_GOLDENS[name]() + "\n" == golden.read_text()
