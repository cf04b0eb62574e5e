"""Micro-engine: turns context-register parameters into tile operations.

The micro-engine (Section II-C) translates the high-level parameters the
host wrote into the context registers into circuit-level operations: DMA
loads from shared memory into the row/column buffers, crossbar writes,
GEMV triggers, digital post-processing, and DMA stores of the results.  It
decomposes GEMM into a series of GEMVs, tiles operands that exceed the
crossbar geometry, reuses an already-programmed operand across batched
kernels that share it (the endurance-friendly "smart mapping"), and supports
double buffering to hide DMA latency behind crossbar compute.

With ``num_tiles > 1`` the operand blocks become shards handed to the
:class:`~repro.hw.scheduler.TileScheduler`, which places them on parallel
tile lanes with an async double-buffered DMA/compute pipeline; the
functional execution and all energy/wear accounting are unchanged — only
the reported latency (timeline makespan) shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.hw.dma import DMAEngine
from repro.hw.energy import CimEnergyModel
from repro.hw.scheduler import ShardWork, TileScheduler, plan_gemm_shards
from repro.hw.stats import AcceleratorRunStats, EnergyLedger, StatCounter
from repro.hw.tile import CIMTile
from repro.hw.timeline import Timeline


@dataclass
class GemmRequest:
    """One GEMM (or GEMV as the N=1 / single-output case) work item.

    Addresses are physical byte addresses in shared memory; matrices are
    stored row-major with the given leading dimensions (elements, not
    bytes).  ``elem_size`` is the operand element size in bytes (4 for
    single precision).
    """

    m: int
    n: int
    k: int
    addr_a: int
    addr_b: int
    addr_c: int
    lda: int
    ldb: int
    ldc: int
    alpha: float = 1.0
    beta: float = 0.0
    trans_a: bool = False
    trans_b: bool = False
    elem_size: int = 4

    def validate(self) -> None:
        if min(self.m, self.n, self.k) <= 0:
            raise ValueError("GEMM dimensions must be positive")
        if self.elem_size != 4:
            raise ValueError("only 4-byte (float32) operands are supported")


@dataclass
class Conv2DRequest:
    """Direct 2D convolution work item (filter stationary in the crossbar)."""

    out_h: int
    out_w: int
    filter_h: int
    filter_w: int
    img_h: int
    img_w: int
    addr_img: int
    addr_filter: int
    addr_out: int
    alpha: float = 1.0
    beta: float = 0.0
    elem_size: int = 4

    def validate(self) -> None:
        if min(self.out_h, self.out_w, self.filter_h, self.filter_w) <= 0:
            raise ValueError("convolution dimensions must be positive")
        if self.img_h < self.out_h + self.filter_h - 1:
            raise ValueError("input image height too small for requested output")
        if self.img_w < self.out_w + self.filter_w - 1:
            raise ValueError("input image width too small for requested output")


class MicroEngine:
    """Drives the CIM tile to execute GEMM / batched GEMM / convolution."""

    def __init__(
        self,
        tile: CIMTile,
        dma: DMAEngine,
        energy: EnergyLedger,
        counters: StatCounter,
        timeline: Optional[Timeline] = None,
        double_buffering: bool = True,
        batch_gemv: bool = True,
        reuse_resident_gemv: bool = True,
        num_tiles: int = 1,
    ):
        self.tile = tile
        self.dma = dma
        self.energy = energy
        self.counters = counters
        # Note: `timeline or Timeline()` would be wrong — an empty Timeline
        # is falsy (it has __len__), which would silently detach this engine
        # from the accelerator's timeline.
        self.timeline = timeline if timeline is not None else Timeline()
        self.double_buffering = double_buffering
        #: Number of physical tiles the timing model schedules over.  One
        #: tile reproduces the seed's serial clock exactly; more tiles shard
        #: operand blocks across lanes (see :mod:`repro.hw.scheduler`).
        #: Functional state and energy/wear accounting are tile-count-
        #: invariant; only the timeline/latency changes.
        self.num_tiles = num_tiles
        self.scheduler = TileScheduler(num_tiles, double_buffering)
        #: Dispatch all GEMVs that stream against one programmed tile as a
        #: single batched tile operation (one matmul in ideal mode, one
        #: vectorized MSB/LSB pass in quantized mode).  Pure dispatch
        #: optimisation: energy/latency/wear accounting is unchanged.
        self.batch_gemv = batch_gemv
        #: Keep the programmed operand resident across separate GEMV
        #: invocations (the paper's model does not re-program a matrix that
        #: is already in the crossbar when streaming more vectors at it).
        self.reuse_resident_gemv = reuse_resident_gemv
        self.energy_model: CimEnergyModel = tile.energy_model
        self._clock_s = 0.0
        # Operand-reuse state: identity and a full-precision copy of the
        # operand tile currently programmed into the crossbar (for batched
        # smart mapping and cross-call GEMV residency).  The copy guards
        # against stale reuse after the host rewrites the operand buffer.
        self._programmed_operand: Optional[tuple] = None
        self._programmed_values: Optional[np.ndarray] = None
        #: ``((m, k, cols, rows), blocks)`` of the last GEMM shard plan: a
        #: re-triggered descriptor plans the same blocks.
        self._shard_plan: Optional[tuple[tuple[int, int, int, int], list]] = None

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def invalidate_residency(self) -> None:
        """Forget the programmed operand (e.g. on a statistics reset, so
        repeated measurements start from the same cold-crossbar state)."""
        self._programmed_operand = None
        self._programmed_values = None

    def run_gemm(self, request: GemmRequest) -> AcceleratorRunStats:
        """Execute one GEMM: ``C = alpha * op(A) * op(B) + beta * C``."""
        request.validate()
        result = AcceleratorRunStats()
        self._execute_gemm(request, result, reuse_programmed=False)
        self._finish(result)
        return result

    def run_gemm_batched(self, requests: list[GemmRequest]) -> AcceleratorRunStats:
        """Execute a batch of GEMMs, reusing the programmed operand when
        consecutive batch entries read the same ``A`` matrix (same address
        and shape) — the paper's endurance-oriented fusion payoff."""
        result = AcceleratorRunStats()
        for request in requests:
            request.validate()
            self._execute_gemm(request, result, reuse_programmed=True)
        self._finish(result)
        return result

    def run_conv2d(self, request: Conv2DRequest) -> AcceleratorRunStats:
        """Execute a 2D convolution with the filter stationary in the
        crossbar and image patches streamed through the row buffers."""
        request.validate()
        result = AcceleratorRunStats()
        self._execute_conv2d(request, result)
        self._finish(result)
        return result

    # ------------------------------------------------------------------
    # GEMM decomposition
    # ------------------------------------------------------------------
    def _execute_gemm(
        self, req: GemmRequest, result: AcceleratorRunStats, reuse_programmed: bool
    ) -> None:
        rows = self.tile.rows  # crossbar rows index the contraction (k)
        cols = self.tile.cols  # crossbar columns index the output rows (i)
        elem = req.elem_size

        # float32 windows onto shared memory; only what reaches the
        # crossbar (the tile being programmed, the streamed vectors) is
        # widened to float64.
        a = self._load_matrix(req.addr_a, req.m, req.k, req.lda, req.trans_a)
        b = self._load_matrix(req.addr_b, req.k, req.n, req.ldb, req.trans_b)
        c_out = np.zeros((req.m, req.n), dtype=np.float64)

        # A GEMV request (N = 1) may reuse the operand left resident in the
        # crossbar by a previous invocation: the paper's model keeps the
        # matrix programmed while vectors stream against it, instead of
        # re-accounting a full write per call.
        allow_reuse = reuse_programmed or (
            self.reuse_resident_gemv and req.n == 1
        )
        # Multi-tile mode: collect the timing phases of each operand block
        # and let the scheduler place them on tile lanes afterwards.  The
        # functional execution and every energy/counter charge below stay
        # exactly as in the serial (single-tile) path.
        sharded = self.num_tiles > 1
        shard_work: list[ShardWork] = []
        plan_key = (req.m, req.k, cols, rows)
        if self._shard_plan is None or self._shard_plan[0] != plan_key:
            self._shard_plan = (plan_key, plan_gemm_shards(*plan_key))
        for block in self._shard_plan[1]:
            i0, i_size, k0, k_size = block.i0, block.i_size, block.k0, block.k_size
            shard = (
                ShardWork(label=f"A[{i0}:{i0 + i_size},{k0}:{k0 + k_size}]")
                if sharded else None
            )
            a_tile = a[i0 : i0 + i_size, k0 : k0 + k_size]
            # --- program the A tile (transposed: rows = k, cols = i) ---
            # The key carries the operand layout (transpose flag and
            # leading dimension): A and A^T at the same address are
            # different tiles.  The stored value copy guards against the
            # host having rewritten the buffer since it was programmed.
            tile_key = (req.addr_a, req.trans_a, req.lda, i0, k0, i_size, k_size)
            already_programmed = (
                allow_reuse
                and self._programmed_operand == tile_key
                and self._programmed_values is not None
                and np.array_equal(self._programmed_values, a_tile)
            )
            if not already_programmed:
                tile_bytes = i_size * k_size * elem
                if sharded:
                    shard.dma_in_s = self._dma_in(
                        req.addr_a, tile_bytes, result, overlappable=True
                    )
                else:
                    self._dma_in(req.addr_a, tile_bytes, result)
                cost = self.tile.write_matrix(a_tile.T)
                if sharded:
                    shard.program_s = cost.latency_s
                else:
                    self._advance("crossbar", "write_crossbar", cost.latency_s)
                result.crossbar_cell_writes += i_size * k_size
                result.crossbar_write_ops += 1
                self._programmed_operand = tile_key
                self._programmed_values = a_tile.copy()
            else:
                self.counters.add("cim.crossbar_write_reuse", 1)
            # --- stream the columns of B through the tile -------------
            in_bytes = k_size * elem
            if self.batch_gemv and req.n > 1:
                # Batched dispatch: all N column vectors against the
                # programmed tile in one tile operation.  Per-GEMV
                # energy/latency/DMA accounting is applied n-fold, so
                # the reports are identical to the sequential loop.
                x_block = np.ascontiguousarray(b[k0 : k0 + k_size, :].T, dtype=np.float64)
                dma_time = self._dma_in(req.addr_b, in_bytes, result,
                                        overlappable=True, transfers=req.n)
                partial, cost = self.tile.gemv_batch(
                    x_block, rows_active=k_size, cols_active=i_size
                )
                gemv_time = cost.latency_s / req.n
                if self.double_buffering:
                    step = req.n * max(gemv_time, dma_time)
                else:
                    step = req.n * (gemv_time + dma_time)
                self._step_compute(shard, sharded, step)
                self.energy.add(
                    "cim.dma_microengine",
                    req.n * self.energy_model.dma_microengine_energy_per_gemv_j,
                )
                result.gemv_count += req.n
                result.macs += req.n * i_size * k_size
                c_out[i0 : i0 + i_size, :] += partial.T
                if sharded:
                    shard_work.append(shard)
                continue
            for j in range(req.n):
                x = b[k0 : k0 + k_size, j]
                dma_time = self._dma_in(req.addr_b, in_bytes, result,
                                        overlappable=True)
                partial, cost = self.tile.gemv(
                    x, rows_active=k_size, cols_active=i_size
                )
                gemv_time = cost.latency_s
                if self.double_buffering:
                    step = max(gemv_time, dma_time)
                else:
                    step = gemv_time + dma_time
                self._step_compute(shard, sharded, step)
                self.energy.add(
                    "cim.dma_microengine",
                    self.energy_model.dma_microengine_energy_per_gemv_j,
                )
                result.gemv_count += 1
                result.macs += i_size * k_size
                c_out[i0 : i0 + i_size, j] += partial
            if sharded:
                shard_work.append(shard)
        if sharded:
            self._clock_s = self.scheduler.schedule(
                shard_work, start_s=self._clock_s, timeline=self.timeline
            )
        # --- post-processing and write-back ------------------------------
        # alpha * C_acc + beta * C, in place (the same three roundings per
        # element as the expression, without its temporaries).
        digital_ops = req.m * req.n  # alpha scaling
        c_out *= req.alpha
        if req.beta != 0.0:
            c_orig = self._load_matrix(req.addr_c, req.m, req.n, req.ldc, False)
            self._dma_in(req.addr_c, req.m * req.n * elem, result)
            c_in = c_orig.astype(np.float64)
            c_in *= req.beta
            c_out += c_in
            digital_ops += 2 * req.m * req.n
        self.tile.digital_ops(digital_ops)
        self._store_matrix(req.addr_c, c_out.astype(np.float32), req.ldc, result)

    # ------------------------------------------------------------------
    # Convolution
    # ------------------------------------------------------------------
    def _execute_conv2d(self, req: Conv2DRequest, result: AcceleratorRunStats) -> None:
        """Weight-stationary unrolled convolution.

        The filter is replicated into ``T`` crossbar columns, column ``t``
        shifted by ``t`` input pixels, so one GEMV over an input slab of
        ``filter_h x (filter_w + T - 1)`` pixels produces ``T`` adjacent
        output pixels of one output row.  Only the rows covered by each
        column's filter footprint are programmed (the row-enable mask of the
        row buffers, Section II-B), so the one-time crossbar write costs
        ``filter_h * filter_w * T`` cells.
        """
        elem = req.elem_size
        kh, kw = req.filter_h, req.filter_w
        taps = kh * kw
        if taps > self.tile.rows:
            raise ValueError(
                f"filter of {taps} taps exceeds crossbar rows {self.tile.rows}"
            )
        # Pick the number of replicated columns: bounded by the crossbar
        # columns, by the rows needed for the widened slab, and by the output
        # row width (no point replicating beyond one output row).
        max_by_rows = self.tile.rows // kh - kw + 1
        t_cols = max(1, min(self.tile.cols, max_by_rows, req.out_w))
        slab_w = kw + t_cols - 1
        slab_len = kh * slab_w

        weights = self.dma.read_array(req.addr_filter, taps).astype(np.float64)
        result.dma_bytes += taps * elem
        # Column t holds the filter shifted right by t pixels: tap (p, q)
        # sits at slab pixel (p, q + t).
        toeplitz = np.zeros((kh, slab_w, t_cols), dtype=np.float64)
        shift = np.arange(t_cols)
        toeplitz[:, np.arange(kw)[:, None] + shift, shift] = weights.reshape(kh, kw, 1)
        cost = self.tile.write_matrix(toeplitz.reshape(slab_len, t_cols))
        self._advance("crossbar", "write_crossbar", cost.latency_s)
        # Only the filter-footprint cells are programmed (row-enable mask);
        # the tile's internal ledger counts the full block, so the endurance-
        # relevant count reported upward is the masked one.
        result.crossbar_cell_writes += taps * t_cols
        result.crossbar_write_ops += 1
        self._programmed_operand = None
        self._programmed_values = None

        # Gather the slabs of every output row at once: slab (oi, s) is the
        # kh x slab_w window of the image at (oi, s * t_cols), zero-padded
        # past the right edge.  The image is streamed slab by slab in
        # hardware, so its traffic is charged per slab below.
        n_slabs = -(-req.out_w // t_cols)
        padded = np.zeros(
            (req.img_h, max(req.img_w, (n_slabs - 1) * t_cols + slab_w)), dtype=np.float64
        )
        padded[:, : req.img_w] = self._fetch(
            req.addr_img, req.img_h * req.img_w
        ).reshape(req.img_h, req.img_w)
        slabs = np.lib.stride_tricks.sliding_window_view(padded, (kh, slab_w))[
            : req.out_h, : n_slabs * t_cols : t_cols
        ].reshape(req.out_h * n_slabs, slab_len)
        slab_bytes = slab_len * elem
        per_gemv_j = self.energy_model.dma_microengine_energy_per_gemv_j
        # Multi-tile mode: the filter was broadcast-programmed into every
        # tile above (charged once — tile-count-invariant accounting, see
        # docs/scheduler.md); each output row becomes one shard streamed on
        # whichever tile lane frees up first.
        sharded = self.num_tiles > 1
        shard_work: list[ShardWork] = []
        if self.batch_gemv:
            # One tile product for the image, and one batched dispatch per
            # output row charged out_h times over: every row streams the
            # same slabs, so each charge is one addend of that dispatch.
            values, _ = self.tile.crossbar.gemv_batch(slabs, slab_len, t_cols)
            dma_time = self._dma_in(req.addr_img, slab_bytes, result, overlappable=True,
                                    transfers=n_slabs, repeat=req.out_h)
            cost = self.tile.charge_gemv(n_slabs, slab_len, t_cols, repeat=req.out_h)
            gemv_time = cost.latency_s / n_slabs
            step = n_slabs * (max(gemv_time, dma_time) if self.double_buffering
                              else gemv_time + dma_time)
            if sharded:
                shard_work = [ShardWork(compute_s=step, label=f"out_row[{oi}]")
                              for oi in range(req.out_h)]
            else:
                self._advance("crossbar", "compute", step, repeat=req.out_h)
            self.energy.add("cim.dma_microengine", n_slabs * per_gemv_j, req.out_h)
        else:
            values = np.empty((len(slabs), t_cols), dtype=np.float64)
            for oi in range(req.out_h):
                shard = ShardWork(label=f"out_row[{oi}]") if sharded else None
                for index in range(oi * n_slabs, (oi + 1) * n_slabs):
                    dma_time = self._dma_in(req.addr_img, slab_bytes, result,
                                            overlappable=True)
                    values[index], cost = self.tile.gemv(
                        slabs[index], rows_active=slab_len, cols_active=t_cols
                    )
                    step = max(cost.latency_s, dma_time) if self.double_buffering else (
                        cost.latency_s + dma_time
                    )
                    self._step_compute(shard, sharded, step)
                    self.energy.add("cim.dma_microengine", per_gemv_j)
                if sharded:
                    shard_work.append(shard)
        if sharded:
            self._clock_s = self.scheduler.schedule(
                shard_work, start_s=self._clock_s, timeline=self.timeline
            )
        result.gemv_count += req.out_h * n_slabs
        result.macs += req.out_h * req.out_w * taps
        # Slab s of a row holds output pixels s * t_cols onwards; the last
        # slab's columns past out_w are inactive.
        out = values.reshape(req.out_h, n_slabs * t_cols)[:, : req.out_w]

        digital_ops = req.out_h * req.out_w
        out *= req.alpha
        if req.beta != 0.0:
            orig = self.dma.read_array(
                req.addr_out, req.out_h * req.out_w
            ).reshape(req.out_h, req.out_w).astype(np.float64)
            result.dma_bytes += req.out_h * req.out_w * elem
            orig *= req.beta
            out += orig
            digital_ops += 2 * req.out_h * req.out_w
        self.tile.digital_ops(digital_ops)
        self._store_matrix(req.addr_out, out.astype(np.float32), req.out_w, result)

    # ------------------------------------------------------------------
    # Shared-memory helpers
    # ------------------------------------------------------------------
    def _fetch(self, address: int, count: int) -> np.ndarray:
        """A float32 window onto *count* operand elements in shared memory.

        A functional fetch only: the traffic is charged where the data
        streams (:meth:`_dma_in`), so the DMA engine's charge is taken back.
        """
        window = self.dma.read_array(address, count, np.float32)
        size = window.nbytes
        self.dma.total_bytes -= size
        self.dma.total_energy_j -= size * self.energy_model.dma_energy_per_byte_j
        self.dma.total_time_s -= size / self.energy_model.dma_bandwidth_bytes_per_s
        return window

    def _load_matrix(
        self, address: int, n_rows: int, n_cols: int, leading_dim: int, transposed: bool
    ) -> np.ndarray:
        """View a row-major (possibly transposed) float32 matrix in shared
        memory; nothing is copied."""
        if transposed:
            stored_rows, stored_cols = n_cols, n_rows
        else:
            stored_rows, stored_cols = n_rows, n_cols
        ld = max(leading_dim, stored_cols)
        matrix = self._fetch(address, stored_rows * ld).reshape(stored_rows, ld)[
            :, :stored_cols
        ]
        return matrix.T if transposed else matrix

    def _store_matrix(
        self, address: int, matrix: np.ndarray, leading_dim: int, result: AcceleratorRunStats
    ) -> None:
        n_rows, n_cols = matrix.shape
        ld = max(leading_dim, n_cols)
        if ld == n_cols:
            self.dma.write_array(address, matrix)
        else:
            elem = matrix.dtype.itemsize
            for row_index in range(n_rows):
                self.dma.write_array(address + row_index * ld * elem, matrix[row_index])
        size = n_rows * n_cols * matrix.dtype.itemsize
        result.dma_bytes += size
        self._advance(
            "dma", "store_result", size / self.energy_model.dma_bandwidth_bytes_per_s
        )

    def _dma_in(
        self,
        address: int,
        size_bytes: int,
        result: AcceleratorRunStats,
        overlappable: bool = False,
        transfers: int = 1,
        repeat: int = 1,
    ) -> float:
        """Charge *repeat* times a stream of *transfers* equal input DMA
        transfers; returns the duration of one transfer.

        The actual data was already fetched functionally; this only accounts
        energy/time for the streamed traffic.  A stream is one energy
        addend (batched dispatch charges all its transfers at once); each
        of the *repeat* streams is its own addend and, unless
        *overlappable*, its own timeline event.
        """
        energy = transfers * size_bytes * self.energy_model.dma_energy_per_byte_j
        duration = size_bytes / self.energy_model.dma_bandwidth_bytes_per_s
        self.energy.add("cim.dma_traffic", energy, repeat)
        self.counters.add("cim.dma_bytes", repeat * transfers * size_bytes)
        result.dma_bytes += repeat * transfers * size_bytes
        if not overlappable:
            self._advance("dma", "fill_buffer", transfers * duration, repeat)
        return duration

    # ------------------------------------------------------------------
    def _step_compute(
        self, shard: Optional[ShardWork], sharded: bool, step_s: float
    ) -> None:
        """Account one streaming step: onto the shard (multi-tile mode, the
        scheduler places it later) or straight onto the serial clock."""
        if sharded:
            shard.compute_s += step_s
        else:
            self._advance("crossbar", "compute", step_s)

    def _advance(
        self, component: str, action: str, duration_s: float, repeat: int = 1
    ) -> None:
        """Record *repeat* back-to-back phases on the serial clock."""
        self._clock_s = self.timeline.record_run(
            component, action, self._clock_s, duration_s, repeat
        )

    def _finish(self, result: AcceleratorRunStats) -> None:
        result.latency_s = self._clock_s
        self._clock_s = 0.0
