"""Micro-engine: turns context-register parameters into tile operations.

The micro-engine (Section II-C) translates the high-level parameters the
host wrote into the context registers into circuit-level operations: DMA
loads from shared memory into the row/column buffers, crossbar writes,
GEMV triggers, digital post-processing, and DMA stores of the results.  It
decomposes GEMM into a series of GEMVs, tiles operands that exceed the
crossbar geometry, keeps every programmed operand tile in a region of its
own so that any later kernel, call or lease with the same operand finds it
(the endurance-friendly "smart mapping"), and supports double buffering to
hide DMA latency behind crossbar compute.

With ``num_tiles > 1`` the operand blocks become shards handed to the
:class:`~repro.hw.scheduler.TileScheduler`, which places them on parallel
tile lanes with an async double-buffered DMA/compute pipeline; the
functional execution and all energy/wear accounting are unchanged — only
the reported latency (timeline makespan) shrinks.

A decoded descriptor is costed once, into a :class:`RunPlan`: the operand
windows onto shared memory and, per crossbar block, the ordered charges of
both residency verdicts — "program" the block, or find it "resident" — plus
the post-processing and the store.  A run is the NumPy values pass, one
residency verdict per block and a replay of the chosen charges
(:class:`~repro.hw.stats.Charges`).  The tile's crossbar write and GEMVs
are called as they happen and charge the tile themselves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.hw.dma import DMAEngine
from repro.hw.energy import CimEnergyModel
from repro.hw.scheduler import ShardWork, TileScheduler, plan_gemm_shards
from repro.hw.stats import AcceleratorRunStats, Charges, EnergyLedger, StatCounter, memoized
from repro.hw.tile import CIMTile
from repro.hw.timeline import Timeline

if TYPE_CHECKING:
    from repro.hw.accelerator import AcceleratorConfig
    from repro.system.memory import WriteWatch


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


class _Held:
    """A held tile: its square (``row, col, side``, the tile in its corner), shape and bytes."""

    def __init__(self, a_tile: np.ndarray):
        self.shape, self.dtype, self.data = a_tile.shape, a_tile.dtype, a_tile.tobytes()

    @functools.cached_property
    def hits(self) -> bool:  # a NaN never equals itself, so never hits
        values = np.frombuffer(self.data, self.dtype)
        return bool((values == values).all())


class _RegionStore:
    """The tiles the crossbar holds, least recently used first, each in a square of a
    quad-tree buddy allocator (one finding none free evicts the oldest), found by shape
    and bytes or, the last one used, by a watch on its window (the only watch kept)."""

    def __init__(self, rows: int, cols: int, memory):
        self.rows, self.cols, self.memory = rows, cols, memory
        self.root = 1 << max(rows - 1, cols - 1).bit_length()
        self.last: Optional[tuple[tuple, _Held, WriteWatch]] = None
        self.clear()

    def clear(self) -> None:
        self._use(None)
        self.held: dict[_Held, None] = {}
        self.free: dict[int, set[tuple[int, int]]] = {self.root: {(0, 0)}}

    def _use(self, held: Optional[_Held], key: tuple = (), span: tuple[int, int] = (0, 0)):
        if self.last is not None:
            self.memory.unwatch(self.last[2])
        self.last = None if held is None else (key, held, self.memory.watch(*span))
        if held is not None:
            self.held[held] = self.held.pop(held, None)
        return held

    def find(self, key: tuple, a_tile: np.ndarray, span: tuple[int, int]) -> Optional[_Held]:
        if self.last is not None and self.last[0] == key and not self.last[2].written:
            return self.last[1] if self.last[1].hits else None
        # Last used first; the tile's bytes are taken only if a first row matches.
        shape, head = a_tile.shape, a_tile[0].tobytes()
        same = [h for h in reversed(self.held) if h.shape == shape and h.data.startswith(head)]
        if same:
            data = a_tile.tobytes()
            for held in same:
                if held.data == data and held.hits:
                    return self._use(held, key, span)
        return None

    def program(self, tile: CIMTile, key: tuple, a_tile: np.ndarray,
                span: tuple[int, int]) -> _Held:
        """Program *a_tile* (as rows = k, cols = i) into a free square."""
        held = _Held(a_tile)
        held.row, held.col, held.side = self.allocate(a_tile.shape[1], a_tile.shape[0])
        try:
            tile.write_matrix(a_tile.T, held.row, held.col)
        except ValueError:  # an operand the cells cannot hold takes no square
            self.release(held.row, held.col, held.side)
            raise
        return self._use(held, key, span)

    def allocate(self, rows: int, cols: int) -> tuple[int, int, int]:
        """The lowest free square a ``rows x cols`` block fits in, as ``(row, col, side)``."""
        side = size = 1 << max(rows - 1, cols - 1, 0).bit_length()
        if side == self.root:  # the whole crossbar: no tile stays
            self.clear()
            self.free = {}
            return 0, 0, side
        while True:
            if size > self.root:  # none is free: evict the least recently used tile
                oldest = next(iter(self.held))
                if self.last is not None and self.last[1] is oldest:
                    self._use(None)
                del self.held[oldest]
                if oldest.side == side and oldest.row + rows <= self.rows \
                        and oldest.col + cols <= self.cols:
                    return oldest.row, oldest.col, side  # the only free square of its side
                self.release(oldest.row, oldest.col, oldest.side)
                size = side
            fits = [(r, c) for r, c in self.free.get(size, ())
                    if r + rows <= self.rows and c + cols <= self.cols]
            if fits:
                break
            size *= 2
        row, col = min(fits)
        self.free[size].remove((row, col))
        while size > side:  # keep the corner quarter, free the other three
            size //= 2
            for r, c in ((row, col + size), (row + size, col), (row + size, col + size)):
                if r < self.rows and c < self.cols:
                    self.free.setdefault(size, set()).add((r, c))
        return row, col, side

    def release(self, row: int, col: int, side: int) -> None:
        """Free a square, merged with its free buddies."""
        while side < self.root:
            r0, c0 = row - row % (2 * side), col - col % (2 * side)
            buddies = {(r, c) for r in (r0, r0 + side) for c in (c0, c0 + side)
                       if r < self.rows and c < self.cols} - {(row, col)}
            if not buddies <= self.free.get(side, set()):
                break
            self.free[side] -= buddies
            row, col, side = r0, c0, 2 * side
        self.free.setdefault(side, set()).add((row, col))


@dataclass
class _Block:
    """One crossbar block of a GEMM: the ``A`` tile it holds, the ``B``
    windows streamed against it (input vectors as rows; all columns of
    ``B`` in one batched dispatch, else one column per dispatch), the part
    of ``C`` each dispatch produces, and the charges of both residency
    verdicts.  The first block's charges begin with reading ``A`` and ``B``.
    """

    key: tuple
    a_tile: np.ndarray
    inputs: list[tuple[np.ndarray, tuple[slice, slice]]]
    k_size: int
    i_size: int
    load: Charges        # program: before the crossbar write (the tile's DMA-in)
    programmed: Charges  # program: after the write
    resident: Charges
    write_work: AcceleratorRunStats  # what programming the block adds
    program_shard: Optional[ShardWork]  # timing phases on more than one tile
    resident_shard: Optional[ShardWork]


@dataclass
class _GemmPlan:
    request: GemmRequest
    reuse: bool      # a block may find its tile resident
    a_span: tuple[int, int]  # the A window's address and size
    blocks: list[_Block]
    one_dispatch: bool  # a single dispatch produces all of C
    c_in: Optional[np.ndarray]  # the C window, when beta != 0
    post: Charges    # reading and streaming C (beta != 0), alpha/beta, the store's phase
    work: AcceleratorRunStats  # the run's work counters when every block is resident


@dataclass
class _ConvPlan:
    request: Conv2DRequest
    t_cols: int
    slab_w: int
    slab_len: int
    n_slabs: int
    weights: np.ndarray
    image: np.ndarray
    out_in: Optional[np.ndarray]  # the output window, when beta != 0
    head: Charges    # reading the filter, before the crossbar write
    body: Charges    # the write's phase, reading and streaming the image
    shards: list[ShardWork]
    post: Charges    # reading the output (beta != 0), alpha/beta, the store's phase
    work: AcceleratorRunStats  # the run's work counters


@dataclass
class RunPlan:
    """What one START of a decoded descriptor does, costed once: one GEMM
    per descriptor (several for a batched GEMM), or one convolution."""

    gemms: list[_GemmPlan] = field(default_factory=list)
    conv: Optional[_ConvPlan] = None


class MicroEngine:
    """Drives the CIM tile to execute GEMM / batched GEMM / convolution."""

    def __init__(
        self,
        tile: CIMTile,
        dma: DMAEngine,
        energy: EnergyLedger,
        counters: StatCounter,
        config: AcceleratorConfig,
        timeline: Optional[Timeline] = None,
    ):
        self.tile = tile
        self.dma = dma
        self.energy = energy
        self.counters = counters
        # Note: `timeline or Timeline()` would be wrong — an empty Timeline
        # is falsy (it has __len__), which would silently detach this engine
        # from the accelerator's timeline.
        self.timeline = timeline if timeline is not None else Timeline()
        self.config = config
        self.scheduler = TileScheduler(self.config.num_tiles, self.config.double_buffering)
        self.energy_model: CimEnergyModel = tile.energy_model
        self._clock_s = 0.0
        #: The operand tiles the crossbar holds, across calls and leases.
        self.store = _RegionStore(tile.rows, tile.cols, dma.memory)
        #: Plans by request: a descriptor decoded again with the same values
        #: (a later launch of the same kernel on the same buffers) is not
        #: costed again.  A bare START reuses the accelerator's decoded plan
        #: without looking here; this serves the launches that write their
        #: descriptor, which on a program run in a loop repeat the same
        #: values (CMA hands the same buffers back).
        self._plans: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def invalidate_residency(self) -> None:
        """Forget every programmed operand (a statistics reset starts cold)."""
        self.store.clear()

    def plan_gemm(self, request: GemmRequest) -> RunPlan:
        """Cost one GEMM/GEMV descriptor; :meth:`run_gemm` runs the plan
        as often as the descriptor is started."""
        # A GEMV keeps the programmed operand resident across separate
        # invocations (the paper's model does not re-program a matrix that
        # is already in the crossbar when streaming more vectors at it).
        return RunPlan([memoized(self._plans, self._plan_gemm, request, request.n == 1)])

    def run_gemm(self, plan: RunPlan) -> AcceleratorRunStats:
        """Execute one planned GEMM: ``C = alpha * op(A) * op(B) + beta * C``."""
        return self._run(plan)

    def run_gemm_batched(self, requests: list[GemmRequest]) -> AcceleratorRunStats:
        """Execute a batch of GEMMs, reusing the programmed operand when
        consecutive batch entries read the same ``A`` matrix (same address
        and shape) — the paper's endurance-oriented fusion payoff."""
        return self._run(RunPlan([
            memoized(self._plans, self._plan_gemm, request, True) for request in requests]))

    def run_conv2d(self, request: Conv2DRequest) -> AcceleratorRunStats:
        """Execute a 2D convolution with the filter stationary in the
        crossbar and image patches streamed through the row buffers."""
        return self._run(RunPlan(conv=memoized(self._plans, self._plan_conv2d, request)))

    def _run(self, plan: RunPlan) -> AcceleratorRunStats:
        result = AcceleratorRunStats()
        try:
            for gemm in plan.gemms:
                self._run_gemm(gemm, result)
            if plan.conv is not None:
                self._run_conv2d(plan.conv, result)
            result.latency_s = self._clock_s
        finally:
            # A run that raises keeps the charges made before the raise,
            # but never its clock: the next run starts at zero.
            self._clock_s = 0.0
        return result

    # ------------------------------------------------------------------
    # GEMM decomposition
    # ------------------------------------------------------------------
    def _plan_gemm(self, req: GemmRequest, reuse: bool) -> _GemmPlan:
        req.validate()
        model = self.energy_model
        elem = req.elem_size
        sharded = self.config.num_tiles > 1
        fetch = Charges()
        a, a_bytes = self._matrix(fetch, req.addr_a, req.m, req.k, req.lda, req.trans_a)
        b, _ = self._matrix(fetch, req.addr_b, req.k, req.n, req.ldb, req.trans_b)
        # An output outside shared memory is refused here, before the run
        # makes any charge.
        self.dma.memory.window(req.addr_c, 4 * req.m * max(req.ldc, req.n))
        # Batched dispatch streams all N columns against a programmed tile
        # in one tile operation; the per-vector reference, one by one.
        # Either way the accounting is that of N GEMVs.
        transfers = req.n if self.config.batch_gemv and req.n > 1 else 1
        dispatches = req.n // transfers
        blocks = []
        gemvs = macs = streamed = 0
        # Crossbar rows index the contraction (k), columns the output rows (i).
        for block in plan_gemm_shards(req.m, req.k, self.tile.cols, self.tile.rows):
            i0, i_size, k0, k_size = block.i0, block.i_size, block.k0, block.k_size
            # --- program the A tile (transposed: rows = k, cols = i) ---
            load = Charges()
            tile_bytes = i_size * k_size * elem
            dma_in_s = self._dma_in(load, tile_bytes, overlappable=sharded)
            program_s = k_size * model.write_latency_per_row_s
            programmed = Charges()
            if not sharded:
                programmed.phase("crossbar", "write_crossbar", program_s)
            resident = Charges()
            resident.count(self.counters, "cim.crossbar_write_reuse", 1)
            # --- stream the columns of B through the tile -------------
            stream = Charges()
            step = self._stream(stream, k_size * elem, transfers, dispatches)
            programmed.records += stream.records
            resident.records += stream.records
            compute_s = 0.0
            for _ in range(dispatches):
                compute_s += step
            gemvs += req.n
            macs += req.n * i_size * k_size
            streamed += req.n * k_size * elem
            if not blocks:
                load.records[:0] = fetch.records
                resident.records[:0] = fetch.records
            label = f"A[{i0}:{i0 + i_size},{k0}:{k0 + k_size}]"
            blocks.append(_Block(
                # The key carries the operand layout (transpose flag and
                # leading dimension): A and A^T at the same address are
                # different tiles.
                key=(req.addr_a, req.trans_a, req.lda, i0, k0, i_size, k_size),
                a_tile=a[i0 : i0 + i_size, k0 : k0 + k_size],
                inputs=[
                    (b[k0 : k0 + k_size, j : j + transfers].T,
                     (slice(i0, i0 + i_size), slice(j, j + transfers)))
                    for j in range(0, req.n, transfers)
                ],
                k_size=k_size,
                i_size=i_size,
                load=load,
                programmed=programmed,
                resident=resident,
                write_work=AcceleratorRunStats(
                    crossbar_cell_writes=i_size * k_size, crossbar_write_ops=1,
                    dma_bytes=tile_bytes),
                program_shard=(
                    ShardWork(dma_in_s, program_s, compute_s, label) if sharded else None),
                resident_shard=ShardWork(compute_s=compute_s, label=label) if sharded else None,
            ))
        # --- post-processing and write-back ------------------------------
        post = Charges()
        digital_ops = req.m * req.n  # alpha scaling
        c_in = None
        if req.beta != 0.0:
            c_in, _ = self._matrix(post, req.addr_c, req.m, req.n, req.ldc, False)
            streamed += req.m * req.n * elem
            self._dma_in(post, req.m * req.n * elem)
            digital_ops += 2 * req.m * req.n
        self.tile.record_digital_ops(post, digital_ops)
        streamed += self._store_phase(post, req.m * req.n * 4)
        one_dispatch = len(blocks) == 1 and len(blocks[0].inputs) == 1
        work = AcceleratorRunStats(gemv_count=gemvs, macs=macs, dma_bytes=streamed)
        return _GemmPlan(req, reuse, (req.addr_a, a_bytes), blocks, one_dispatch, c_in, post,
                         work)

    def _run_gemm(self, plan: _GemmPlan, result: AcceleratorRunStats) -> None:
        req = plan.request
        tile, timeline = self.tile, self.timeline
        # C accumulates the partial products from zero (one dispatch alone
        # adds its products to zero below).
        c_out = None if plan.one_dispatch else np.zeros((req.m, req.n), dtype=np.float64)
        shards = []
        for block in plan.blocks:
            held = self.store.find(block.key, block.a_tile, plan.a_span) if plan.reuse else None
            if held is not None:
                charges, shard = block.resident, block.resident_shard
            else:
                self._clock_s = block.load.replay(timeline, self._clock_s)
                held = self.store.program(tile, block.key, block.a_tile, plan.a_span)
                result.add(block.write_work)
                charges, shard = block.programmed, block.program_shard
            self._clock_s = charges.replay(timeline, self._clock_s)
            shards.append(shard)
            for x, part in block.inputs:
                partial, _ = tile.gemv_batch(np.ascontiguousarray(x, dtype=np.float64),
                                             block.k_size, block.i_size, held.row, held.col)
                if c_out is None:
                    c_out = np.add(partial.T, 0.0, order="C")
                else:
                    c_out[part] += partial.T
        if self.config.num_tiles > 1:
            self._clock_s = self.scheduler.schedule(
                shards, start_s=self._clock_s, timeline=timeline
            )
        # alpha * C_acc + beta * C, in place (the same three roundings per
        # element as the expression, without its temporaries; scaling by
        # one rounds nothing).
        if req.alpha != 1.0:
            c_out *= req.alpha
        if plan.c_in is not None:
            c_in = plan.c_in.astype(np.float64)
            c_in *= req.beta
            c_out += c_in
        self._clock_s = plan.post.replay(timeline, self._clock_s)
        self._store(req.addr_c, c_out.astype(np.float32), req.ldc)
        result.add(plan.work)

    # ------------------------------------------------------------------
    # Convolution
    # ------------------------------------------------------------------
    def _plan_conv2d(self, req: Conv2DRequest) -> _ConvPlan:
        """Weight-stationary unrolled convolution.

        The filter is replicated into ``T`` crossbar columns, column ``t``
        shifted by ``t`` input pixels, so one GEMV over an input slab of
        ``filter_h x (filter_w + T - 1)`` pixels produces ``T`` adjacent
        output pixels of one output row.  Only the rows covered by each
        column's filter footprint are programmed (the row-enable mask of the
        row buffers, Section II-B), so the one-time crossbar write costs
        ``filter_h * filter_w * T`` cells.
        """
        req.validate()
        model = self.energy_model
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
        n_slabs = -(-req.out_w // t_cols)

        head = Charges()
        weights = self._read(head, req.addr_filter, taps, take_back=False)
        body = Charges()
        body.phase("crossbar", "write_crossbar", slab_len * model.write_latency_per_row_s)
        image = self._read(body, req.addr_img, req.img_h * req.img_w, take_back=True)
        # The image is streamed slab by slab in hardware.  Batched, every
        # output row is one dispatch of its n_slabs slabs, charged out_h
        # times over; the per-vector reference dispatches slab by slab.
        transfers, per_row = (n_slabs, 1) if self.config.batch_gemv else (1, n_slabs)
        step = self._stream(body, slab_len * elem, transfers, req.out_h * per_row)
        # Multi-tile mode: the filter was broadcast-programmed into every
        # tile (charged once — tile-count-invariant accounting, see
        # docs/scheduler.md); each output row becomes one shard streamed on
        # whichever tile lane frees up first.
        shards = []
        if self.config.num_tiles > 1:
            for oi in range(req.out_h):
                compute_s = 0.0
                for _ in range(per_row):
                    compute_s += step
                shards.append(ShardWork(compute_s=compute_s, label=f"out_row[{oi}]"))

        post = Charges()
        pixels = req.out_h * req.out_w
        self.dma.memory.window(req.addr_out, 4 * pixels)  # refused before any charge
        digital_ops = pixels
        dma_bytes = taps * elem + req.out_h * n_slabs * slab_len * elem
        out_in = None
        if req.beta != 0.0:
            out_in = self._read(post, req.addr_out, pixels, take_back=False)
            dma_bytes += pixels * elem
            digital_ops += 2 * pixels
        self.tile.record_digital_ops(post, digital_ops)
        dma_bytes += self._store_phase(post, pixels * 4)
        # Only the filter-footprint cells are programmed (row-enable mask);
        # the tile's internal ledger counts the full block, so the endurance-
        # relevant count reported upward is the masked one.
        work = AcceleratorRunStats(
            gemv_count=req.out_h * n_slabs, macs=pixels * taps, crossbar_cell_writes=taps * t_cols,
            crossbar_write_ops=1, dma_bytes=dma_bytes)
        return _ConvPlan(req, t_cols, slab_w, slab_len, n_slabs, weights, image, out_in,
                         head, body, shards, post, work)

    def _run_conv2d(self, plan: _ConvPlan, result: AcceleratorRunStats) -> None:
        req = plan.request
        kh, kw = req.filter_h, req.filter_w
        t_cols, slab_w, slab_len, n_slabs = plan.t_cols, plan.slab_w, plan.slab_len, plan.n_slabs
        tile, timeline = self.tile, self.timeline
        self._clock_s = plan.head.replay(timeline, self._clock_s)
        # Column t holds the filter shifted right by t pixels: tap (p, q)
        # sits at slab pixel (p, q + t).
        toeplitz = np.zeros((kh, slab_w, t_cols), dtype=np.float64)
        shift = np.arange(t_cols)
        toeplitz[:, np.arange(kw)[:, None] + shift, shift] = (
            plan.weights.astype(np.float64).reshape(kh, kw, 1))
        row, col, side = self.store.allocate(slab_len, t_cols)  # for this run only
        self.store.release(row, col, side)
        tile.write_matrix(toeplitz.reshape(slab_len, t_cols), row, col)
        self._clock_s = plan.body.replay(timeline, self._clock_s)

        # Gather the slabs of every output row at once: slab (oi, s) is the
        # kh x slab_w window of the image at (oi, s * t_cols), zero-padded
        # past the right edge.
        padded = np.zeros(
            (req.img_h, max(req.img_w, (n_slabs - 1) * t_cols + slab_w)), dtype=np.float64
        )
        padded[:, : req.img_w] = plan.image.reshape(req.img_h, req.img_w)
        slabs = np.lib.stride_tricks.sliding_window_view(padded, (kh, slab_w))[
            : req.out_h, : n_slabs * t_cols : t_cols
        ].reshape(req.out_h * n_slabs, slab_len)
        if self.config.batch_gemv:
            # One tile product for the image; every output row's dispatch
            # charged once per row.
            values, _ = tile.crossbar.gemv_batch(slabs, slab_len, t_cols, row, col)
            tile.charge_gemv(n_slabs, slab_len, t_cols, repeat=req.out_h)
        else:
            values = np.empty((len(slabs), t_cols), dtype=np.float64)
            for index in range(len(slabs)):
                values[index : index + 1], _ = tile.gemv_batch(
                    slabs[index : index + 1], slab_len, t_cols, row, col)
        if plan.shards:
            self._clock_s = self.scheduler.schedule(
                plan.shards, start_s=self._clock_s, timeline=timeline
            )
        # Slab s of a row holds output pixels s * t_cols onwards; the last
        # slab's columns past out_w are inactive.
        out = values.reshape(req.out_h, n_slabs * t_cols)[:, : req.out_w]
        out *= req.alpha
        if plan.out_in is not None:
            orig = plan.out_in.reshape(req.out_h, req.out_w).astype(np.float64)
            orig *= req.beta
            out += orig
        self._clock_s = plan.post.replay(timeline, self._clock_s)
        self._store(req.addr_out, out.astype(np.float32), req.out_w)
        result.add(plan.work)

    # ------------------------------------------------------------------
    # Shared memory and the DMA unit
    # ------------------------------------------------------------------
    def _read(self, charges: Charges, address: int, count: int, take_back: bool) -> np.ndarray:
        """A float32 window onto *count* operand elements, and the charges
        of reading it: the memory read and the DMA engine's transfer.

        An operand that streams (``take_back``) is charged where it streams
        (:meth:`_dma_in`), so the DMA engine's charge is taken back.  The
        take-back is its own addend: ``(T + x) - x`` need not be ``T``.
        """
        memory, dma = self.dma.memory, self.dma
        window = memory.window(address, 4 * count).view(np.float32)
        size = window.nbytes
        energy = size * dma.energy_model.dma_energy_per_byte_j
        time_s = size / dma.energy_model.dma_bandwidth_bytes_per_s
        charges.add(memory, "reads", 1)
        charges.add(memory, "bytes_read", size)
        if not take_back:
            charges.add(dma, "total_bytes", size)
        charges.add(dma, "total_energy_j", energy)
        charges.add(dma, "total_time_s", time_s)
        if take_back:
            charges.add(dma, "total_energy_j", -energy)
            charges.add(dma, "total_time_s", -time_s)
        return window

    def _matrix(
        self, charges: Charges, address: int, n_rows: int, n_cols: int,
        leading_dim: int, transposed: bool,
    ) -> tuple[np.ndarray, int]:
        """A row-major (possibly transposed) float32 matrix window, and the
        bytes it spans."""
        if transposed:
            stored_rows, stored_cols = n_cols, n_rows
        else:
            stored_rows, stored_cols = n_rows, n_cols
        ld = max(leading_dim, stored_cols)
        window = self._read(charges, address, stored_rows * ld, take_back=True)
        matrix = window.reshape(stored_rows, ld)[:, :stored_cols]
        return (matrix.T if transposed else matrix), window.nbytes

    def _store(self, address: int, matrix: np.ndarray, leading_dim: int) -> None:
        n_rows, n_cols = matrix.shape
        if leading_dim <= n_cols:
            self.dma.write_array(address, matrix)
        else:
            row_bytes = leading_dim * matrix.dtype.itemsize
            for row_index in range(n_rows):
                self.dma.write_array(address + row_index * row_bytes, matrix[row_index])

    def _store_phase(self, charges: Charges, size: int) -> int:
        """Charge storing *size* result bytes (the DMA engine accounts the
        write itself); returns *size*."""
        charges.phase("dma", "store_result", size / self.energy_model.dma_bandwidth_bytes_per_s)
        return size

    def _dma_in(
        self,
        charges: Charges,
        size_bytes: int,
        overlappable: bool = False,
        transfers: int = 1,
        repeat: int = 1,
    ) -> float:
        """Charge *repeat* times a stream of *transfers* equal input DMA
        transfers; returns the duration of one transfer.

        The data itself is read through a window; this only accounts
        energy/time for the streamed traffic.  A stream is one energy
        addend (batched dispatch charges all its transfers at once); each
        of the *repeat* streams is its own addend and, unless
        *overlappable*, its own timeline event.
        """
        model = self.energy_model
        energy = transfers * size_bytes * model.dma_energy_per_byte_j
        duration = size_bytes / model.dma_bandwidth_bytes_per_s
        charges.energy(self.energy, "cim.dma_traffic", energy, repeat)
        charges.count(self.counters, "cim.dma_bytes", repeat * transfers * size_bytes)
        if not overlappable:
            charges.phase("dma", "fill_buffer", transfers * duration, repeat)
        return duration

    def _stream(self, charges: Charges, in_bytes: int, transfers: int, dispatches: int) -> float:
        """Charge *dispatches* GEMV dispatches of *transfers* input vectors
        of *in_bytes* each against a programmed tile (the tile charges
        the GEMVs themselves); returns the time step of one dispatch.

        On one tile each step is a compute phase on the serial clock; on
        more, the caller adds the steps to its shards.
        """
        model = self.energy_model
        dma_time = self._dma_in(charges, in_bytes, overlappable=True,
                                transfers=transfers, repeat=dispatches)
        gemv_time = transfers * model.compute_latency_per_gemv_s / transfers
        step = transfers * (max(gemv_time, dma_time) if self.config.double_buffering
                            else gemv_time + dma_time)
        if self.config.num_tiles == 1:
            charges.phase("crossbar", "compute", step, dispatches)
        charges.energy(self.energy, "cim.dma_microengine",
                       transfers * model.dma_microengine_energy_per_gemv_j, dispatches)
        return step
