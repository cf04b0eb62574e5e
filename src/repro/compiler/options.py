"""Compilation options (the ``-enable-loop-tactics`` family of flags)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CompileOptions:
    """Knobs of the TDO-CIM compilation flow.

    The defaults correspond to the paper's ``clang -O3 -march-native
    -enable-loop-tactics`` configuration: offloading enabled for every kernel
    kind the accelerator supports, kernel fusion enabled, and no selectivity
    (the paper offloads every detected kernel and reports a separate
    "selective" geometric mean that excludes the GEMV-like kernels).
    """

    #: Master switch; with offloading disabled the compiler only reports what
    #: it would have done (the plain ``-O3`` host baseline).
    enable_offload: bool = True
    #: Kernel kinds eligible for offloading.
    offload_kinds: tuple[str, ...] = ("gemm", "gemv", "conv2d")
    #: Fuse adjacent independent kernels into batched runtime calls.
    enable_fusion: bool = True
    #: Require fused kernels to share an input operand (endurance-oriented
    #: fusion only); by default sharing is exploited when present but not
    #: required.
    fusion_requires_shared_input: bool = False
    #: Apply the Listing 3 tiling + interchange to GEMMs whose operands do
    #: not fit the crossbar.  The micro-engine also tiles internally, so this
    #: is primarily an endurance/locality optimisation.
    enable_tiling: bool = False
    #: Crossbar geometry the compiler assumes for tiling decisions.
    crossbar_rows: int = 256
    crossbar_cols: int = 256
    #: Selective offloading: skip kernels whose estimated compute intensity
    #: (MACs per crossbar-cell write) is below this threshold.  ``None``
    #: disables the heuristic (the paper's default behaviour); the paper's
    #: "Selective Geomean" corresponds to a threshold of a few tens.
    min_macs_per_write: float | None = None
    #: Content-addressed kernel-compile cache: repeated ``compile_source()``
    #: calls with the same source, options and size hint return the cached
    #: :class:`~repro.compiler.driver.CompilationResult` instead of re-running
    #: the poly + tactics + transforms pipeline.  Cached results are shared
    #: objects — treat them as immutable (every existing consumer does).
    enable_compile_cache: bool = True
    #: Directory for on-disk cache persistence (``None`` keeps the cache
    #: in-memory only).  Entries are content-addressed pickles, so they are
    #: never stale and can be shared across processes.
    compile_cache_dir: str | None = None
    #: Execution engine for the host-side IR: ``"fast"`` (slice-folded
    #: NumPy kernels, bit-identical to the interpreter), ``"native"``
    #: (additionally compiles eligible nests to C via cffi, falling back
    #: to ``"fast"`` when no toolchain is present), ``"vectorized"``
    #: (broadcast-gather lowering), or ``"interpreter"`` (the reference
    #: tree-walker).  Honoured automatically when the
    #: :class:`CompilationResult` is passed to :meth:`OffloadExecutor.run`;
    #: it does not change the generated code or any cost-model report.
    engine: str = "fast"
    #: Pass pipeline to run: a named pipeline (``"default"``, ``"no-fusion"``,
    #: ``"detect-only"``) or an explicit sequence of pass names (see
    #: :data:`repro.compiler.passes.PASS_REGISTRY`).  Part of the compile-cache
    #: fingerprint, so results from different pipelines never alias.
    pipeline: str | tuple[str, ...] | list[str] = "default"
    #: Offload-selection policy applied by the ``select-offload`` pass:
    #: ``"threshold"`` (the paper's behaviour — kind filter plus the optional
    #: ``min_macs_per_write`` compute-intensity heuristic), ``"always"`` or
    #: ``"never"`` (ablation strategies).
    offload_policy: str = "threshold"
    #: Pass names after which the pass manager stores the printed IR into
    #: ``CompilationReport.ir_dumps`` (e.g. ``("isolate", "lower")``).
    dump_ir_after: tuple[str, ...] | list[str] = ()

    def __post_init__(self) -> None:
        from repro.compiler.passes.pipelines import PASS_REGISTRY, validate_pipeline
        from repro.compiler.passes.policy import validate_policy
        from repro.ir.engine import validate_engine

        validate_engine(self.engine)
        validate_pipeline(self.pipeline)
        validate_policy(self.offload_policy)
        for name in self.dump_ir_after:
            if name not in PASS_REGISTRY:
                raise ValueError(
                    f"unknown pass {name!r} in dump_ir_after; "
                    f"available passes: {sorted(PASS_REGISTRY)}"
                )

    def wants_kind(self, kind: str) -> bool:
        return kind in self.offload_kinds

    @staticmethod
    def host_only() -> "CompileOptions":
        """The ``-O3`` baseline: nothing is offloaded."""
        return CompileOptions(enable_offload=False)

    @staticmethod
    def selective(threshold: float = 32.0) -> "CompileOptions":
        """Offload only compute-intense kernels (GEMM-like)."""
        return CompileOptions(min_macs_per_write=threshold)
