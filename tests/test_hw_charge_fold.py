"""The device's folded bookkeeping equals the bookkeeping it folds.

* Wear is kept as block records that are folded into per-cell counts when
  read, and a crossbar write stores its device levels when the planes are
  next read.  Both are compared with an eager reference over random
  sequences of overlapping writes, direct plane programming, wear resets
  and reads.
* A repeated charge (``EnergyLedger.add(..., repeat=n)``,
  ``CIMTile.charge_gemv(..., repeat=n)``, ``Timeline.record_run``) is
  bitwise the n single charges it replaces, on addends whose repeated
  float sums round at every step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.crossbar import Crossbar, CrossbarConfig
from repro.hw.pcm import MAX_PENDING_BLOCKS
from repro.hw.stats import EnergyLedger
from repro.hw.tile import CIMTile
from repro.hw.timeline import Timeline, TimelineEvent

ROWS, COLS = 6, 5
AWKWARD = (0.1, 1e-12, 3e-9)


# ----------------------------------------------------------------------
# Eager reference of a crossbar's two device planes
# ----------------------------------------------------------------------
class EagerCrossbar:
    """Per-cell wear and levels updated at every write, as written out
    before wear became block records and levels were stored lazily."""

    def __init__(self) -> None:
        self.counts = [np.zeros((ROWS, COLS), np.int64) for _ in range(2)]
        self.levels = [np.zeros((ROWS, COLS), np.int64) for _ in range(2)]
        self.scale = 1.0

    def write(self, r0: int, c0: int, block: np.ndarray) -> None:
        r1, c1 = r0 + block.shape[0], c0 + block.shape[1]
        max_abs = float(max(block.max(), -block.min()))
        if max_abs > 0:
            self.scale = max_abs / 127.0
            levels = (np.rint(block / self.scale) + 128.0).astype(np.uint8)
        else:
            self.scale = 1.0
            levels = np.full(block.shape, 128, np.uint8)
        for plane, part in enumerate((levels >> 4, levels & 15)):
            self.levels[plane][r0:r1, c0:c1] = part
            self.counts[plane][r0:r1, c0:c1] += 1

    def program(self, plane: int, r0: int, c0: int, values: np.ndarray,
                count_unchanged: bool) -> None:
        r1, c1 = r0 + values.shape[0], c0 + values.shape[1]
        if count_unchanged:
            self.counts[plane][r0:r1, c0:c1] += 1
        else:
            self.counts[plane][r0:r1, c0:c1] += self.levels[plane][r0:r1, c0:c1] != values
        self.levels[plane][r0:r1, c0:c1] = values

    def stored_quantised(self) -> np.ndarray:
        return ((self.levels[0] << 4 | self.levels[1]) - 128) * self.scale


def assert_matches(xbar: Crossbar, ref: EagerCrossbar) -> None:
    for plane, array in enumerate((xbar.msb_plane, xbar.lsb_plane)):
        np.testing.assert_array_equal(array.write_counts, ref.counts[plane])
        np.testing.assert_array_equal(array.levels, ref.levels[plane])
        assert array.max_cell_writes == ref.counts[plane].max()
        assert array.mean_cell_writes == ref.counts[plane].mean()
        for limit in (0, 1, 2, 3):
            assert array.worn_out_fraction(limit) == (ref.counts[plane] >= limit).mean()
    np.testing.assert_array_equal(xbar.write_counts(), np.maximum(*ref.counts))
    np.testing.assert_array_equal(xbar.stored_quantised(), ref.stored_quantised())


def assert_bounded(xbar: Crossbar) -> None:
    assert len(xbar._unquantised) <= MAX_PENDING_BLOCKS
    assert len(xbar.msb_plane._pending) <= MAX_PENDING_BLOCKS
    assert len(xbar.lsb_plane._pending) <= MAX_PENDING_BLOCKS


@st.composite
def blocks(draw):
    r0 = draw(st.integers(0, ROWS - 1))
    c0 = draw(st.integers(0, COLS - 1))
    return r0, c0, draw(st.integers(1, ROWS - r0)), draw(st.integers(1, COLS - c0))


VALUES = st.sampled_from([0.0, -0.0, 0.1, -0.35, 1e-12, 3e-9, 2.5, -7.0, 1e300, np.nan])
OPS = st.one_of(
    st.tuples(st.just("write"), blocks(), st.lists(VALUES, min_size=ROWS * COLS,
                                                   max_size=ROWS * COLS)),
    st.tuples(st.just("program"), blocks(), st.integers(0, 1), st.booleans(),
              st.integers(0, 2**32 - 1)),
    st.tuples(st.just("reset"), st.integers(0, 1)),
    st.tuples(st.just("read")),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ideal", "quantized"]), st.lists(OPS, max_size=40))
def test_wear_and_levels_equal_an_eager_reference(mode, ops):
    xbar = Crossbar(CrossbarConfig(rows=ROWS, cols=COLS, mode=mode))
    ref = EagerCrossbar()
    for op in ops:
        if op[0] == "write":
            (r0, c0, rows, cols), values = op[1], op[2]
            block = np.array(values[: rows * cols]).reshape(rows, cols)
            xbar.write(block, r0, c0)
            ref.write(r0, c0, block)
        elif op[0] == "program":
            (r0, c0, rows, cols), plane, count_unchanged, seed = op[1:]
            levels = np.random.default_rng(seed).integers(0, 16, (rows, cols))
            array = (xbar.msb_plane, xbar.lsb_plane)[plane]
            array.program(levels, r0, c0, count_unchanged=count_unchanged)
            ref.program(plane, r0, c0, levels, count_unchanged)
        elif op[0] == "reset":
            (xbar.msb_plane, xbar.lsb_plane)[op[1]].reset_wear()
            ref.counts[op[1]][:] = 0
        else:
            assert_matches(xbar, ref)
        assert_bounded(xbar)
    assert_matches(xbar, ref)


@pytest.mark.parametrize("first, second", [
    ((0, 0, 4, 3), (0, 0, 3, 3)),   # the second leaves the first's last row
    ((0, 0, 3, 4), (0, 0, 3, 3)),   # ... and its last column
    ((0, 1, 3, 3), (0, 0, 3, 3)),   # ... and its last column, offset
    ((1, 1, 2, 2), (0, 0, 3, 3)),   # the second covers the first
    ((0, 0, 3, 3), (0, 0, 3, 3)),   # ... exactly
])
def test_a_later_write_drops_only_the_blocks_it_covers(first, second):
    xbar = Crossbar(CrossbarConfig(rows=ROWS, cols=COLS, mode="ideal"))
    ref = EagerCrossbar()
    for scale, (r0, c0, rows, cols) in zip((1.0, -40.0), (first, second)):
        block = scale * np.arange(1.0, rows * cols + 1).reshape(rows, cols)
        xbar.write(block, r0, c0)
        ref.write(r0, c0, block)
    assert_matches(xbar, ref)


def test_pending_blocks_stay_bounded_over_every_block():
    """Every distinct block of the array, each written twice: far more
    rectangles than the bound, none of them covering the next."""
    xbar = Crossbar(CrossbarConfig(rows=ROWS, cols=COLS, mode="ideal"))
    ref = EagerCrossbar()
    rng = np.random.default_rng(0)
    every_block = [
        (r0, c0, r1 - r0, c1 - c0)
        for r0 in range(ROWS) for r1 in range(r0 + 1, ROWS + 1)
        for c0 in range(COLS) for c1 in range(c0 + 1, COLS + 1)
    ]
    assert len(every_block) > 2 * MAX_PENDING_BLOCKS
    for r0, c0, rows, cols in every_block * 2:
        block = rng.standard_normal((rows, cols))
        xbar.write(block, r0, c0)
        ref.write(r0, c0, block)
        assert_bounded(xbar)
    assert_matches(xbar, ref)


# ----------------------------------------------------------------------
# Repeated charges
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(AWKWARD), st.integers(0, 300), st.sampled_from([None, 0.3, 7e-10]))
def test_ledger_add_repeat_is_n_single_adds(joules, n, prior):
    folded, single = EnergyLedger(), EnergyLedger()
    for ledger in (folded, single):
        ledger.add("first", 1.0)
        if prior is not None:
            ledger.add("cim.x", prior)
    folded.add("cim.x", joules, repeat=n)
    for _ in range(n):
        single.add("cim.x", joules)
    assert list(folded.as_dict().items()) == list(single.as_dict().items())


def _tile_state(tile: CIMTile) -> tuple:
    return (
        list(tile.energy.as_dict().items()),
        tile.counters.as_dict(),
        [buffer.bytes_written for buffer in
         (tile.row_buffer, tile.column_buffer, tile.output_buffer)],
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.integers(1, 256), st.integers(1, 256), st.integers(1, 150))
def test_charge_gemv_repeat_is_n_single_charges(n_vectors, rows, cols, n):
    folded, single = (CIMTile(CrossbarConfig(rows=8, cols=8)) for _ in range(2))
    for tile in (folded, single):
        tile.write_matrix(np.full((3, 2), 0.1))
    cost = folded.charge_gemv(n_vectors, rows, cols, repeat=n)
    for _ in range(n):
        assert single.charge_gemv(n_vectors, rows, cols) == cost
    assert _tile_state(folded) == _tile_state(single)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(AWKWARD), st.sampled_from([0.0, 0.1, 3e-9]), st.integers(0, 300))
def test_timeline_record_run_is_n_records(duration, start, n):
    folded, single = Timeline(), Timeline()
    end = folded.record_run("crossbar", "compute", start, duration, n)
    clock = start
    for _ in range(n):
        single.record("crossbar", "compute", clock, duration)
        clock += duration
    assert folded.events == single.events
    assert end == clock
    assert [e.end_s for e in folded.events] == [e.end_s for e in single.events]


def test_timeline_event_is_immutable_with_value_equality():
    event = TimelineEvent("dma", "fill_buffer", 0.1, 3e-9)
    assert event == TimelineEvent("dma", "fill_buffer", 0.1, 3e-9)
    assert event != TimelineEvent("dma", "fill_buffer", 0.1, 1e-12)
    assert hash(event) == hash(TimelineEvent("dma", "fill_buffer", 0.1, 3e-9))
    assert event.end_s == 0.1 + 3e-9
    with pytest.raises(AttributeError):
        event.start_s = 0.0
    with pytest.raises(ValueError):
        Timeline().record_run("dma", "fill_buffer", 0.0, -1.0, 1)
