"""Property-based tests for the dynamic batcher and the fair-share
scheduler (PR 4 satellite).

The two contract properties of the serving layer:

1. **Bit-identity under any interleaving** — however tenant submissions
   interleave (tenant assignment, shared vs private matrices, arrival
   spacing, window/batch-size configuration), every request's results are
   bit-identical to running its program alone through a fresh
   :class:`OffloadExecutor`.
2. **No starvation** — a tenant submitting a single request while another
   tenant floods the server still gets served, with bounded queueing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CimServer, OffloadExecutor, ServerConfig, TenantQuota
from repro.serve import RequestStatus
from repro.serve.batcher import same_bytes

GEMV_SOURCE = """
void gemv(int M, int N, float A[M][N], float x[N], float y[M]) {
  for (int i = 0; i < M; i++) {
    y[i] = 0.0;
    for (int j = 0; j < N; j++)
      y[i] += A[i][j] * x[j];
  }
}
"""

GESUMMV_LIKE_SOURCE = """
void twomv(int M, int N, float A[M][N], float B[M][N], float x[N],
           float y[M], float z[M]) {
  for (int i = 0; i < M; i++) {
    y[i] = 0.0;
    for (int j = 0; j < N; j++)
      y[i] += A[i][j] * x[j];
  }
  for (int i = 0; i < M; i++) {
    z[i] = 0.0;
    for (int j = 0; j < N; j++)
      z[i] += B[i][j] * x[j];
  }
}
"""

SIZE = 16
PARAMS = {"M": SIZE, "N": SIZE}

#: A small pool of stationary matrices the strategy draws from — index 0
#: is "the shared model"; distinct indices never batch together.
_MATRIX_POOL_SEED = 99


def _matrix_pool():
    rng = np.random.default_rng(_MATRIX_POOL_SEED)
    return [rng.random((SIZE, SIZE), dtype=np.float32) for _ in range(3)]


submission_plans = st.lists(
    st.tuples(
        st.sampled_from(["alice", "bob", "carol"]),   # tenant
        st.integers(0, 2),                             # matrix pool index
        st.integers(0, 1),                             # kernel choice
        st.integers(0, 50),                            # arrival gap (µs)
        st.integers(0, 2**31 - 1),                     # vector seed
    ),
    min_size=1,
    max_size=10,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    plan=submission_plans,
    window_us=st.sampled_from([0, 40, 150]),
    max_batch=st.sampled_from([1, 3, 8]),
)
def test_any_interleaving_is_bit_identical_to_serial(plan, window_us, max_batch):
    pool = _matrix_pool()
    sources = [GEMV_SOURCE, GESUMMV_LIKE_SOURCE]
    config = ServerConfig(
        batch_window_s=window_us * 1e-6, max_batch_size=max_batch
    )
    submissions = []
    with CimServer(config) as server:
        arrival = 0.0
        for tenant, matrix_idx, kernel_idx, gap_us, seed in plan:
            arrival += gap_us * 1e-6
            rng = np.random.default_rng(seed)
            if kernel_idx == 0:
                arrays = {
                    "A": pool[matrix_idx],
                    "x": rng.random(SIZE, dtype=np.float32),
                    "y": np.zeros(SIZE, dtype=np.float32),
                }
            else:
                arrays = {
                    "A": pool[matrix_idx],
                    "B": pool[(matrix_idx + 1) % 3],
                    "x": rng.random(SIZE, dtype=np.float32),
                    "y": np.zeros(SIZE, dtype=np.float32),
                    "z": np.zeros(SIZE, dtype=np.float32),
                }
            source = sources[kernel_idx]
            handle = server.submit(
                tenant,
                source,
                PARAMS,
                arrays,
                arrival_s=arrival,
            )
            submissions.append(
                (handle, source, {n: v.copy() for n, v in arrays.items()})
            )
        server.drain()

        # Every request completed (no quota in play) ...
        assert all(
            handle.status is RequestStatus.COMPLETED
            for handle, _, _ in submissions
        )
        # ... and the accounting partition is exact.
        checks = server.ledger.verify_partition(server.system.accelerator)
        assert all(checks.values()), checks

        # Bit-identity against fresh, serialized single-request execution.
        for handle, source, arrays in submissions:
            program = server.compiler.compile(source, size_hint=PARAMS).program
            direct, _ = OffloadExecutor().run(program, PARAMS, arrays)
            served = handle.result()
            assert set(direct) == set(served)
            for name in direct:
                assert np.array_equal(direct[name], served[name]), (
                    f"request {handle.request_id} array {name!r} diverged"
                )


@settings(max_examples=10, deadline=None)
@given(
    flood=st.integers(5, 25),
    light_weight=st.sampled_from([0.5, 1.0, 4.0]),
    window_us=st.sampled_from([0, 60]),
)
def test_fair_share_never_starves_a_tenant(flood, light_weight, window_us):
    """A flooding tenant cannot starve a light tenant: the light tenant's
    lone request completes, and fair sharing dispatches it ahead of the
    flooder's backlog once it is queued."""
    rng = np.random.default_rng(7)
    flood_matrix = rng.random((SIZE, SIZE), dtype=np.float32)
    light_matrix = rng.random((SIZE, SIZE), dtype=np.float32)
    config = ServerConfig(
        batch_window_s=window_us * 1e-6,
        max_batch_size=4,
        default_quota=TenantQuota(max_queue_depth=64),
    )
    with CimServer(config) as server:
        server.set_quota(
            "light", TenantQuota(max_queue_depth=64, weight=light_weight)
        )
        flood_handles = [
            server.submit(
                "flood",
                GEMV_SOURCE,
                PARAMS,
                {
                    "A": flood_matrix,
                    "x": rng.random(SIZE, dtype=np.float32),
                    "y": np.zeros(SIZE, dtype=np.float32),
                },
                arrival_s=0.0,
            )
            for _ in range(flood)
        ]
        light_handle = server.submit(
            "light",
            GEMV_SOURCE,
            PARAMS,
            {
                "A": light_matrix,
                "x": rng.random(SIZE, dtype=np.float32),
                "y": np.zeros(SIZE, dtype=np.float32),
            },
            arrival_s=0.0,
        )
        server.drain()
        assert light_handle.status is RequestStatus.COMPLETED
        assert all(h.status is RequestStatus.COMPLETED for h in flood_handles)
        # Fair share: once the light tenant has no attained service it is
        # picked over the flooder — its request rides at latest in the
        # second dispatched batch.
        assert light_handle.batch_id <= 2
        # And the flood tenant still attains (weighted) more service.
        attained = server.admission.attained_s
        assert attained["flood"] > attained["light"]


def test_flooded_queue_rejects_but_light_tenant_unaffected():
    """Backpressure on one tenant's queue never spills onto another."""
    rng = np.random.default_rng(8)
    config = ServerConfig(
        batch_window_s=0.0,
        default_quota=TenantQuota(max_queue_depth=3),
    )
    with CimServer(config) as server:
        matrix = rng.random((SIZE, SIZE), dtype=np.float32)
        flood_handles = [
            server.submit(
                "flood",
                GEMV_SOURCE,
                PARAMS,
                {
                    "A": matrix,
                    "x": rng.random(SIZE, dtype=np.float32),
                    "y": np.zeros(SIZE, dtype=np.float32),
                },
                arrival_s=0.0,
            )
            for _ in range(10)
        ]
        light_handle = server.submit(
            "light",
            GEMV_SOURCE,
            PARAMS,
            {
                "A": rng.random((SIZE, SIZE), dtype=np.float32),
                "x": rng.random(SIZE, dtype=np.float32),
                "y": np.zeros(SIZE, dtype=np.float32),
            },
            arrival_s=0.0,
        )
        server.drain()
        rejected = [
            h for h in flood_handles if h.status is RequestStatus.REJECTED
        ]
        assert rejected, "expected backpressure on the flooding tenant"
        assert light_handle.status is RequestStatus.COMPLETED


# ----------------------------------------------------------------------
# same_bytes: the one bitwise-equality rule for arrays
# ----------------------------------------------------------------------
def _nan(payload: int) -> np.ndarray:
    return np.array([0x7FC00000 | payload], dtype=np.uint32).view(np.float32)


@pytest.mark.parametrize(
    "a, b, same",
    [
        (np.array([-0.0]), np.array([0.0]), False),
        (_nan(1), _nan(1), True),
        (_nan(1), _nan(2), False),
        (np.array([1.5, -2.0], dtype="<f4"), np.array([1.5, -2.0], dtype=">f4"), False),
        (np.zeros((2, 3), np.float32), np.zeros((3, 2), np.float32), False),
        (np.arange(12.0).reshape(3, 4)[:, ::2], np.arange(12.0).reshape(3, 4)[:, ::2].copy(), True),
        (None, None, False),
        (np.zeros(2), None, False),
        (np.zeros(2), [0.0, 0.0], False),
    ],
    ids=[
        "signed-zeros", "equal-nan-payloads", "different-nan-payloads",
        "byte-orders", "shapes", "view-and-copy", "none", "array-and-none",
        "array-and-list",
    ],
)
def test_same_bytes(a, b, same):
    assert same_bytes(a, b) is same
    assert same_bytes(b, a) is same
