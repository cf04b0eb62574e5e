"""The crossbar keeps what it holds: the micro-engine's region store.

Every operand tile the micro-engine programs takes an aligned
power-of-two square of the crossbar (``hw/microengine.py::_RegionStore``)
and stays programmed until a tile that finds no free square evicts it,
least recently used first.  A launch whose tile has the same shape and
bytes as a held one finds it resident and is charged as resident, across
launches and across serving leases alike; only a statistics reset
(``OffloadExecutor.run``, a gateway worker's ``serve_one``) empties it.

Pinned here:

* a GEMV over a block written anywhere equals the same GEMV at the
  origin, bit for bit, in both numeric modes;
* random lease sequences through a ``CimServer`` and a faulted
  ``FleetServer`` return exactly what cold serial runs return, never
  write more cells than the same sequence on a device that forgets its
  crossbar at every lease, and keep the exact accounting partition;
* ``serve_batched``'s four models all stay resident after warm-up;
* cut down to one region at the origin and scrubbed at every lease, the
  device reproduces what it did before it had a store: every golden that
  the store moves, digest for digest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CimServer, CimSystem, OffloadExecutor, ServerConfig, SystemConfig
from repro import compile_source
from repro.fleet import FaultPlan, FleetConfig, FleetServer, OpFaultRule
from repro.gateway.loadgen import GEMV_SOURCE
from repro.hw.crossbar import Crossbar, CrossbarConfig
from repro.hw.microengine import _RegionStore
from repro.serve import RequestStatus
from repro.serve.dispatch import LeaseExecutor
from repro.trace import SCENARIOS


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _one_slot(patch: pytest.MonkeyPatch) -> None:
    """Cut the store down to one region, the whole crossbar at the origin,
    and forget the crossbar at the start of every lease."""
    allocate = _RegionStore.allocate
    patch.setattr(_RegionStore, "allocate",
                  lambda self, rows, cols: allocate(self, self.rows, self.cols))
    dispatch = LeaseExecutor.dispatch

    def scrubbed(self, batch, batch_id):
        self.system.accelerator.micro_engine.invalidate_residency()
        return dispatch(self, batch, batch_id)

    patch.setattr(LeaseExecutor, "dispatch", scrubbed)


@pytest.fixture
def one_slot(monkeypatch):
    _one_slot(monkeypatch)


# ----------------------------------------------------------------------
# A region computes what the origin computes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["ideal", "quantized"])
@pytest.mark.parametrize(
    "rows, cols",
    [(1, 1), (3, 5), (17, 9), (64, 64), (100, 37), (128, 128), (129, 255), (256, 256)],
)
def test_a_gemv_anywhere_equals_the_gemv_at_the_origin(mode, rows, cols):
    """Non-integer operands, 1, 5 and 16 vectors, up to 40 offsets per
    shape (aligned or not): the products are the same bytes."""
    rng = np.random.default_rng(rows * 1000 + cols)
    matrix = rng.standard_normal((rows, cols))
    origin = Crossbar(CrossbarConfig(mode=mode))
    origin.write(matrix)
    moved = Crossbar(CrossbarConfig(mode=mode))
    offsets = set(zip(rng.integers(0, 257 - rows, 40).tolist(),
                      rng.integers(0, 257 - cols, 40).tolist()))
    for row, col in sorted(offsets):
        moved.write(matrix, row, col)
        for n_vectors in (1, 5, 16):
            x = rng.standard_normal((n_vectors, rows))
            expected, _ = origin.gemv_batch(x, rows, cols)
            actual, _ = moved.gemv_batch(x, rows, cols, row, col)
            assert actual.tobytes() == expected.tobytes(), (row, col, n_vectors)


def test_four_quarter_tiles_fill_the_crossbar_and_evict_least_recently_used():
    system = CimSystem(SystemConfig())
    store = system.accelerator.micro_engine.store
    squares = [store.allocate(128, 128) for _ in range(4)]
    assert sorted(squares) == [(0, 0, 128), (0, 128, 128), (128, 0, 128), (128, 128, 128)]
    for square in squares:
        store.release(*square)
    assert {side: free for side, free in store.free.items() if free} == {256: {(0, 0)}}
    # Two 20x20 tiles and a 100x60 one, then a full-size tile evicts all.
    rng = np.random.default_rng(3)
    tiles = [rng.random(shape, dtype=np.float32) for shape in ((20, 20), (20, 20), (60, 100))]
    held = [store.program(system.accelerator.tile, (index,), tile, (0, 4))
            for index, tile in enumerate(tiles)]
    assert [(h.row, h.col, h.side) for h in held] == [(0, 0, 32), (0, 32, 32), (0, 128, 128)]
    assert store.find((9,), tiles[0].copy(), (0, 4)) is held[0]
    assert list(store.held) == [held[1], held[2], held[0]]  # least recently used first
    store.program(system.accelerator.tile, (3,), rng.random((256, 200), dtype=np.float32),
                  (0, 4))
    assert len(store.held) == 1 and store.find((9,), tiles[0].copy(), (0, 4)) is None


def test_a_fifth_quarter_tile_evicts_the_least_recently_used():
    system = CimSystem(SystemConfig())
    store, tile = system.accelerator.micro_engine.store, system.accelerator.tile
    rng = np.random.default_rng(4)
    tiles = [rng.random((128, 128), dtype=np.float32) for _ in range(5)]
    held = [store.program(tile, (index,), operand, (0, 4))
            for index, operand in enumerate(tiles[:4])]
    assert store.find((9,), tiles[0].copy(), (0, 4)) is held[0]
    fifth = store.program(tile, (4,), tiles[4], (0, 4))
    assert (fifth.row, fifth.col) == (held[1].row, held[1].col)
    # (Each lookup names another window: one window holds one operand.)
    assert [store.find((10 + index,), operand.copy(), (0, 4))
            for index, operand in enumerate(tiles)] == [held[0], None, held[2], held[3], fifth]


def test_a_nan_tile_is_never_found():
    system = CimSystem(SystemConfig())
    store = system.accelerator.micro_engine.store
    tile = np.ones((4, 4), dtype=np.float32)
    tile[1, 2] = np.nan
    store.program(system.accelerator.tile, (0,), tile, (0, 4))
    assert store.find((1,), tile.copy(), (0, 4)) is None


# ----------------------------------------------------------------------
# Random lease sequences
# ----------------------------------------------------------------------
SHAPES = [(1, 1), (3, 7), (16, 16), (40, 9), (128, 128), (200, 256), (256, 256)]


@st.composite
def lease_sequences(draw):
    """A numeric mode, a few stationary operands (shapes may repeat, so
    same-shape tiles compete) and bursts of requests naming them; a burst
    arrives at one instant and is drained before the next."""
    mode = draw(st.sampled_from(["ideal", "quantized"]))
    shapes = draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=4))
    bursts = draw(st.lists(
        st.lists(st.integers(0, len(shapes) - 1), min_size=1, max_size=4),
        min_size=1, max_size=5))
    return mode, shapes, bursts, draw(st.integers(0, 2**16))


def _requests(shapes, bursts, seed):
    rng = np.random.default_rng(seed)
    operands = [rng.standard_normal((m, n)).astype(np.float32) for m, n in shapes]
    return [
        [
            ({"M": shapes[index][0], "N": shapes[index][1]},
             {"A": operands[index],
              "x": rng.standard_normal(shapes[index][1]).astype(np.float32),
              "y": np.zeros(shapes[index][0], dtype=np.float32)})
            for index in burst
        ]
        for burst in bursts
    ]


def _serve(server, requests):
    """Serve the bursts; returns the handles, the cells every device's
    crossbar wrote, and whether the accounting partition holds."""
    handles = []
    for burst in requests:
        handles += [server.submit(f"t{slot % 3}", GEMV_SOURCE, params, arrays)
                    for slot, (params, arrays) in enumerate(burst)]
        server.drain()
    if isinstance(server, FleetServer):
        systems = [device.system for device in server.devices]
        partition = server.verify_fleet_partition()
    else:
        systems = [server.system]
        partition = server.ledger.verify_partition(server.system.accelerator)
    writes = sum(system.accelerator.tile.crossbar.total_cell_writes for system in systems)
    return handles, writes, all(partition.values())


def _cold_results(mode, requests):
    executor = OffloadExecutor(CimSystem(SystemConfig(crossbar_mode=mode)))
    results = []
    for burst in requests:
        for params, arrays in burst:
            program = compile_source(GEMV_SOURCE, size_hint=params).program
            results.append(executor.run(program, params, arrays)[0]["y"])
    return results


def _make_server(fleet: bool, mode: str, seed: int):
    if not fleet:
        return CimServer(ServerConfig(crossbar_mode=mode))
    plan = FaultPlan(op_rules=[OpFaultRule("dma", 0.2), OpFaultRule("dispatch", 0.2)],
                     seed=seed)
    return FleetServer(FleetConfig(num_devices=3, crossbar_mode=mode, fault_plan=plan,
                                   placement="round-robin", max_attempts=12))


@pytest.mark.parametrize("fleet", [False, True], ids=["server", "faulted-fleet"])
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(sequence=lease_sequences())
def test_leases_return_cold_results_and_never_write_more(fleet, sequence):
    mode, shapes, bursts, seed = sequence
    requests = _requests(shapes, bursts, seed)
    with _make_server(fleet, mode, seed) as server:
        handles, writes, partition_ok = _serve(server, requests)
    with pytest.MonkeyPatch.context() as patch:
        _one_slot(patch)
        with _make_server(fleet, mode, seed) as server:
            _, scrubbed_writes, scrubbed_ok = _serve(server, requests)
    assert partition_ok and scrubbed_ok
    assert writes <= scrubbed_writes
    assert all(handle.status is RequestStatus.COMPLETED for handle in handles)
    for handle, expected in zip(handles, _cold_results(mode, requests)):
        assert handle.result()["y"].tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# serve_batched's shape
# ----------------------------------------------------------------------
def test_four_models_stay_resident_and_later_leases_write_nothing():
    """Four 128x128 models in bursts of 16: after each has been served
    once, the crossbar holds all four and no later lease programs it."""
    side = 128
    rng = np.random.default_rng(0)
    models = [rng.integers(0, 8, size=(side, side)).astype(np.float32) for _ in range(4)]
    params = {"M": side, "N": side}

    def burst(server, model):
        handles = [
            server.submit(f"t{slot % 4}", GEMV_SOURCE, params, {
                "A": models[model],
                "x": rng.integers(0, 8, size=side).astype(np.float32),
                "y": np.zeros(side, dtype=np.float32)})
            for slot in range(16)
        ]
        server.drain()
        return handles

    with CimServer() as server:
        for model in range(4):
            burst(server, model)
        store = server.system.accelerator.micro_engine.store
        assert sorted((h.row, h.col, h.side) for h in store.held) == [
            (0, 0, 128), (0, 128, 128), (128, 0, 128), (128, 128, 128)]
        crossbar = server.system.accelerator.tile.crossbar
        warm = crossbar.total_cell_writes
        for model in rng.integers(0, 4, size=12):
            for handle in burst(server, int(model)):
                assert handle.report.crossbar_cell_writes == 0
                assert handle.report.crossbar_write_ops == 0
        assert crossbar.total_cell_writes == warm
        assert all(server.ledger.verify_partition(server.system.accelerator).values())


# ----------------------------------------------------------------------
# One slot at the origin is the device before the store
# ----------------------------------------------------------------------
#: Digests of what the device produced while its crossbar held one tile at
#: the origin and every lease forgot it.  ``fused_leases`` leaves out the
#: serve timelines (their lease labels carry compile fingerprints, which
#: dropped a frozen version tag and engine item) and the traces leave out
#: their header (which no longer writes ``engine`` or ``scrub_leases``).
ONE_SLOT = {
    "device_reports": "1ce40738f5f181b42301fbe5d23ec94cba25e10f2f311e3aa688a38e9e71fad9",
    "retrigger": "a5f03856617fae4a8a3e4bf2bb24814f319125f64c99d6e31f6ee2f8dec4149e",
    "fused_leases": "197f46d5b18565068d0ef39cb1776c826df697e0c584a8b29c26a853f85c2865",
    "serve_multitenant": "a964b3922ddbbe8c249fe7f34bfda23e1f57d4ed1e0713a3acf6644d1b30f4f0",
    "fleet_faultstorm": "0bfb7cb8efe387e1017af38e0235dbf047e50a819a15a01b633226ac2d94e03a",
}


def test_one_slot_reproduces_the_device_goldens(one_slot):
    from tests import test_hw_equivalence, test_hw_retrigger

    for name, module in (("device_reports", test_hw_equivalence),
                         ("retrigger", test_hw_retrigger)):
        records = {case: module.run_case(case) for case in module.CASES}
        text = json.dumps(records, indent=1, sort_keys=True) + "\n"
        assert _sha256(text) == ONE_SLOT[name], name


def test_one_slot_reproduces_the_fused_leases_and_traces(one_slot):
    from tests import test_fused_lease_golden

    records = {
        name: {k: v for k, v in test_fused_lease_golden.run_case(name).items()
               if k != "serve_timeline"}
        for name in test_fused_lease_golden.CASES
    }
    assert _sha256(json.dumps(records, sort_keys=True)) == ONE_SLOT["fused_leases"]
    for name in ("serve_multitenant", "fleet_faultstorm"):
        lines = SCENARIOS[name]().dumps().splitlines(keepends=True)
        assert _sha256("".join(lines[1:])) == ONE_SLOT[name], name


def test_one_slot_reproduces_the_simulated_magnitudes(one_slot):
    from tests.conftest import GEMV_SOURCE as SOURCE
    from tests.test_simulated_magnitudes import (
        batching_speedups,
        half_fleet_fraction,
        lifetime_extension,
    )

    assert batching_speedups(SOURCE) == {1: 6.51, 2: 6.51, 4: 6.51}
    assert lifetime_extension(SOURCE) == 75.00012487521073
    assert half_fleet_fraction(SOURCE) == 0.879365079365079
