"""Tests for the PCM device array and the crossbar model."""

import numpy as np
import pytest

from repro.hw.crossbar import Crossbar, CrossbarConfig
from repro.hw.pcm import PCMCellArray, PCMDeviceParams


# ----------------------------------------------------------------------
# PCM cell array
# ----------------------------------------------------------------------
def test_pcm_program_and_read_back():
    array = PCMCellArray(4, 4)
    levels = np.arange(16).reshape(4, 4) % 16
    array.program(levels)
    np.testing.assert_array_equal(array.read(), levels)


def test_pcm_partial_block_programming():
    array = PCMCellArray(8, 8)
    block = np.full((2, 3), 5)
    array.program(block, row_offset=2, col_offset=4)
    np.testing.assert_array_equal(array.read(2, 4, 2, 3), block)
    assert array.read(0, 0, 2, 3).sum() == 0


def test_pcm_wear_counts_only_changes_by_default():
    array = PCMCellArray(2, 2)
    levels = np.array([[1, 1], [1, 1]])
    changed_first = array.program(levels)
    changed_second = array.program(levels)
    assert changed_first == 4 and changed_second == 0
    assert array.max_cell_writes == 1


def test_pcm_count_unchanged_forces_wear():
    array = PCMCellArray(2, 2)
    levels = np.zeros((2, 2), dtype=int)
    array.program(levels, count_unchanged=True)
    array.program(levels, count_unchanged=True)
    assert array.max_cell_writes == 2


def test_pcm_rejects_out_of_range_levels():
    array = PCMCellArray(2, 2, PCMDeviceParams(bits=4))
    with pytest.raises(ValueError):
        array.program(np.full((2, 2), 16))


def test_pcm_rejects_out_of_bounds_block():
    array = PCMCellArray(2, 2)
    with pytest.raises(ValueError):
        array.program(np.zeros((3, 3), dtype=int))


def test_pcm_conductance_mapping_monotonic():
    params = PCMDeviceParams(bits=4)
    levels = np.arange(16)
    conductances = params.level_to_conductance(levels)
    assert np.all(np.diff(conductances) > 0)
    np.testing.assert_array_equal(params.conductance_to_level(conductances), levels)


def test_worn_out_fraction():
    array = PCMCellArray(2, 2, PCMDeviceParams(endurance_cycles=2))
    ones = np.ones((2, 2), dtype=int)
    zeros = np.zeros((2, 2), dtype=int)
    for _ in range(2):
        array.program(ones, count_unchanged=True)
    assert array.worn_out_fraction() == 1.0
    array.reset_wear()
    assert array.worn_out_fraction() == 0.0


# ----------------------------------------------------------------------
# Crossbar
# ----------------------------------------------------------------------
def test_ideal_gemv_is_exact(rng):
    xbar = Crossbar(CrossbarConfig(rows=16, cols=12, mode="ideal"))
    matrix = rng.standard_normal((16, 12))
    xbar.write(matrix)
    x = rng.standard_normal(16)
    result, report = xbar.gemv(x)
    np.testing.assert_allclose(result, x @ matrix, rtol=1e-12)
    assert report.macs == 16 * 12


def test_quantized_gemv_error_is_bounded(rng):
    xbar = Crossbar(CrossbarConfig(rows=32, cols=32, mode="quantized"))
    matrix = rng.random((32, 32))
    xbar.write(matrix)
    x = rng.random(32)
    result, _ = xbar.gemv(x)
    reference = x @ matrix
    rel_error = np.abs(result - reference) / np.maximum(np.abs(reference), 1e-9)
    assert rel_error.max() < 0.05


def test_quantized_gemv_handles_negative_values(rng):
    xbar = Crossbar(CrossbarConfig(rows=16, cols=16, mode="quantized"))
    matrix = rng.standard_normal((16, 16))
    xbar.write(matrix)
    x = rng.standard_normal(16)
    result, _ = xbar.gemv(x)
    reference = x @ matrix
    assert np.abs(result - reference).max() < 0.05 * np.abs(reference).max() + 0.05


def test_stored_quantised_close_to_values(rng):
    xbar = Crossbar(CrossbarConfig(rows=8, cols=8, mode="quantized"))
    matrix = rng.random((8, 8))
    xbar.write(matrix)
    np.testing.assert_allclose(xbar.stored_quantised(), matrix, atol=matrix.max() / 100)


def test_partial_write_and_active_subarray(rng):
    xbar = Crossbar(CrossbarConfig(rows=16, cols=16, mode="ideal"))
    block = rng.random((4, 6))
    report = xbar.write(block)
    assert report.rows_touched == 4
    assert report.cells_targeted == 24
    x = rng.random(4)
    result, gemv_report = xbar.gemv(x, rows_active=4, cols_active=6)
    np.testing.assert_allclose(result, x @ block, rtol=1e-12)
    assert gemv_report.macs == 24


def test_write_out_of_bounds_rejected():
    xbar = Crossbar(CrossbarConfig(rows=4, cols=4))
    with pytest.raises(ValueError):
        xbar.write(np.zeros((5, 5)))


def test_nan_operand_programs_the_block_as_zeros():
    """A NaN has no magnitude to scale by: the whole block is programmed
    at the zero level (128 = MSB 8, LSB 0) with scale 1.0 — and wears."""
    xbar = Crossbar(CrossbarConfig(rows=4, cols=4))
    xbar.write(np.array([[1.0, np.nan], [2.0, -3.0]]))
    np.testing.assert_array_equal(xbar.msb_plane.read(0, 0, 2, 2), 8)
    np.testing.assert_array_equal(xbar.lsb_plane.read(0, 0, 2, 2), 0)
    np.testing.assert_array_equal(xbar.stored_quantised()[:2, :2], 0.0)
    np.testing.assert_array_equal(xbar.write_counts()[:2, :2], 1)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_operand_is_rejected(value):
    """An infinite magnitude has no finite scale; it must not reach the
    cells as garbage levels."""
    xbar = Crossbar(CrossbarConfig(rows=4, cols=4))
    with pytest.raises(ValueError):
        xbar.write(np.array([[1.0, value], [2.0, -3.0]]))
    # Nothing was programmed.
    assert xbar.write_counts().max() == 0
    assert xbar.total_cell_writes == 0


def test_gemv_wrong_vector_length_rejected():
    xbar = Crossbar(CrossbarConfig(rows=4, cols=4))
    xbar.write(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        xbar.gemv(np.zeros(3))


def test_wear_accumulates_per_logical_cell():
    xbar = Crossbar(CrossbarConfig(rows=4, cols=4))
    xbar.write(np.ones((4, 4)))
    xbar.write(np.ones((4, 4)) * 2)
    assert xbar.max_cell_writes == 2
    assert xbar.total_cell_writes == 32
    assert xbar.write_counts().max() == 2


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        CrossbarConfig(mode="analogish")
