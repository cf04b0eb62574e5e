"""Tests for ADC, buffers, digital logic, tile, timeline, and endurance."""

import numpy as np
import pytest

from repro.hw.adc import ADCConfig, ADCStage
from repro.hw.buffers import BufferOverflowError, SRAMBuffer
from repro.hw.digital_logic import DigitalLogic
from repro.hw.endurance import EnduranceTracker, system_lifetime_years
from repro.hw.energy import CimEnergyModel, HostEnergyModel, TABLE_I, table_i_rows
from repro.hw.tile import CIMTile
from repro.hw.timeline import Timeline


# ----------------------------------------------------------------------
# ADC
# ----------------------------------------------------------------------
def test_adc_conversion_rounds():
    adc = ADCStage(ADCConfig(columns_per_adc=32))
    assert adc.conversion_rounds(256) == 8
    assert adc.conversion_rounds(1) == 1
    assert adc.conversion_rounds(33) == 2


def test_adc_quantisation_error_bounded():
    adc = ADCStage(ADCConfig(resolution_bits=8))
    values = np.linspace(-1.0, 1.0, 100)
    quantised = adc.convert(values, full_scale=1.0)
    assert np.abs(quantised - values).max() <= 1.0 / 256 + 1e-12


def test_adc_saturates_at_full_scale():
    adc = ADCStage()
    out = adc.convert(np.array([10.0, -10.0]), full_scale=1.0)
    assert out.max() <= 1.0 and out.min() >= -1.0


# ----------------------------------------------------------------------
# Buffers
# ----------------------------------------------------------------------
def test_buffer_write_read_roundtrip():
    buf = SRAMBuffer("row", 64)
    payload = bytes(range(16))
    buf.write(payload, offset=8)
    assert bytes(buf.read(16, offset=8)) == payload
    assert buf.bytes_written == 16 and buf.bytes_read == 16


def test_buffer_overflow_detected():
    buf = SRAMBuffer("row", 16)
    with pytest.raises(BufferOverflowError):
        buf.write(bytes(32))
    with pytest.raises(BufferOverflowError):
        buf.read(8, offset=12)


# ----------------------------------------------------------------------
# Digital logic
# ----------------------------------------------------------------------
def test_weighted_column_sum():
    logic = DigitalLogic()
    msb = np.array([1.0, 2.0])
    lsb = np.array([3.0, 4.0])
    combined = logic.weighted_column_sum(msb, lsb, device_bits=4)
    np.testing.assert_array_equal(combined, [19.0, 36.0])
    assert logic.weighted_sums == 1
    assert logic.alu_ops == 2


def test_scale_and_accumulate_counts_ops():
    logic = DigitalLogic()
    acc = np.zeros(4)
    out = logic.scale_and_accumulate(acc, np.ones(4), scale=2.0)
    np.testing.assert_array_equal(out, 2 * np.ones(4))
    assert logic.alu_ops == 8


def test_reduce_sum():
    logic = DigitalLogic()
    assert logic.reduce_sum(np.array([1.0, 2.0, 3.0])) == 6.0
    assert logic.alu_ops == 2


# ----------------------------------------------------------------------
# Tile
# ----------------------------------------------------------------------
def test_tile_write_and_gemv_costs(rng):
    tile = CIMTile()
    matrix = rng.random((8, 8))
    cost = tile.write_matrix(matrix)
    model = tile.energy_model
    assert cost.energy_j == pytest.approx(
        64 * model.write_energy_per_cell_j + (64 + 8) * model.buffer_energy_per_byte_j
    )
    assert cost.latency_s == pytest.approx(8 * model.write_latency_per_row_s)
    result, gemv_cost = tile.gemv(rng.random(8), rows_active=8, cols_active=8)
    assert result.shape == (8,)
    assert gemv_cost.latency_s == pytest.approx(model.compute_latency_per_gemv_s)
    assert tile.counters.get("cim.gemv_ops") == 1
    assert tile.energy.get("cim.mixed_signal") == pytest.approx(
        model.mixed_signal_energy_per_gemv_j
    )


def test_tile_charge_gemv_is_the_accounting_half_of_gemv_batch(rng):
    """``gemv_batch`` = one crossbar product + ``charge_gemv``; a caller that
    computed the values elsewhere charges exactly the same, array-free."""
    matrix, xs = rng.random((8, 6)), rng.random((5, 8))
    dispatched, charged = CIMTile(), CIMTile()
    dispatched.write_matrix(matrix)
    charged.write_matrix(matrix)
    values, cost = dispatched.gemv_batch(xs, rows_active=8, cols_active=6)
    np.testing.assert_array_equal(values, charged.crossbar.gemv_batch(xs, 8, 6)[0])
    assert charged.charge_gemv(5, 8, 6) == cost
    assert charged.energy.as_dict() == dispatched.energy.as_dict()
    assert charged.counters.as_dict() == dispatched.counters.as_dict()
    # Buffer traffic is a byte count: 1 B per input entry, 4 B per output,
    # however it compares with the 1.5 KiB the buffers hold.
    for name in ("row_buffer", "column_buffer", "output_buffer"):
        assert getattr(charged, name).bytes_written == getattr(dispatched, name).bytes_written
    assert charged.row_buffer.bytes_written == 8 + 5 * 8
    assert charged.output_buffer.bytes_written == 5 * 6 * 4


def test_tile_digital_ops_energy():
    tile = CIMTile()
    cost = tile.digital_ops(100)
    assert cost.energy_j == pytest.approx(100 * tile.energy_model.digital_alu_op_j)


# ----------------------------------------------------------------------
# Timeline
# ----------------------------------------------------------------------
def test_timeline_makespan_and_busy_time():
    timeline = Timeline()
    timeline.record("dma", "fill", 0.0, 2.0)
    timeline.record("crossbar", "compute", 1.0, 3.0)
    assert timeline.makespan_s == 4.0
    assert timeline.busy_time("dma") == 2.0
    assert timeline.busy_time("crossbar") == 3.0
    assert len(timeline) == 2
    rendering = timeline.render(width=20)
    assert "dma" in rendering and "crossbar" in rendering


def test_timeline_rejects_negative_duration():
    with pytest.raises(ValueError):
        Timeline().record("dma", "x", 0.0, -1.0)


# ----------------------------------------------------------------------
# Endurance / Eq. (1)
# ----------------------------------------------------------------------
def test_lifetime_equation_matches_hand_computation():
    # 1e7 writes endurance, 512 KB crossbar, 1 MB/s write traffic.
    years = system_lifetime_years(1e7, 512 * 1024, 1e6)
    expected_seconds = 1e7 * 512 * 1024 / 1e6
    assert years == pytest.approx(expected_seconds / (365.25 * 24 * 3600))


def test_lifetime_scales_linearly_with_endurance():
    base = system_lifetime_years(1e7, 512 * 1024, 1e6)
    assert system_lifetime_years(4e7, 512 * 1024, 1e6) == pytest.approx(4 * base)


def test_lifetime_zero_traffic_is_infinite():
    assert system_lifetime_years(1e7, 512 * 1024, 0.0) == float("inf")


def test_lifetime_invalid_inputs():
    with pytest.raises(ValueError):
        system_lifetime_years(0, 512, 1.0)
    with pytest.raises(ValueError):
        system_lifetime_years(1e7, 512, -1.0)


def test_endurance_tracker_aggregates():
    tracker = EnduranceTracker(crossbar_size_bytes=1024)
    tracker.record_kernel(bytes_written=2048, execution_time_s=1.0)
    tracker.record_kernel(bytes_written=2048, execution_time_s=1.0)
    assert tracker.write_traffic_bytes_per_s == pytest.approx(2048)
    curve = tracker.lifetime_curve([1e6, 2e6])
    assert curve[1][1] == pytest.approx(2 * curve[0][1])


# ----------------------------------------------------------------------
# Table I constants
# ----------------------------------------------------------------------
def test_table_i_values():
    cim = TABLE_I.cim
    assert cim.crossbar_rows == 256 and cim.crossbar_cols == 256
    assert cim.compute_energy_per_mac_j == pytest.approx(200e-15)
    assert cim.write_energy_per_cell_j == pytest.approx(200e-12)
    assert cim.compute_latency_per_gemv_s == pytest.approx(1e-6)
    assert cim.write_latency_per_row_s == pytest.approx(2.5e-6)
    host = TABLE_I.host
    assert host.energy_per_instruction_j == pytest.approx(128e-12)
    assert host.frequency_hz == pytest.approx(1.2e9)
    assert host.cores == 2


def test_table_i_rows_cover_all_parameters():
    rows = table_i_rows()
    text = " ".join(f"{k} {v}" for k, v in rows)
    for fragment in ("256x256", "200 fJ", "200 pJ", "3.9 nJ", "Arm-A7", "128 pJ"):
        assert fragment in text
