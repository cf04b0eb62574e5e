"""Compilation options (the ``-enable-loop-tactics`` family of flags)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CompileOptions:
    """Knobs of the TDO-CIM compilation flow.

    A value: frozen, with every sequence field stored as a tuple, so the
    options (with the source and the size hint) are the whole input of a
    compile and its fingerprint names it.  Change one with
    :func:`dataclasses.replace`.

    The defaults correspond to the paper's ``clang -O3 -march-native
    -enable-loop-tactics`` configuration: offloading enabled for every kernel
    kind the accelerator supports, kernel fusion (the ``"default"``
    pipeline), and no selectivity (the paper offloads every detected kernel
    and reports a separate "selective" geometric mean that excludes the
    GEMV-like kernels).
    """

    #: Kernel kinds eligible for offloading.
    offload_kinds: tuple[str, ...] = ("gemm", "gemv", "conv2d")
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
    #: The named pipeline to run (a key of
    #: :data:`repro.compiler.passes.NAMED_PIPELINES`): ``"default"``,
    #: ``"no-fusion"`` (no kernel fusion) or ``"detect-only"``.  Part of the
    #: compile-cache fingerprint, so results from different pipelines never
    #: alias.
    pipeline: str = "default"
    #: Offload-selection policy applied by the ``select-offload`` pass:
    #: ``"threshold"`` (the paper's behaviour — kind filter plus the optional
    #: ``min_macs_per_write`` compute-intensity heuristic), ``"always"`` (an
    #: ablation) or ``"never"`` (the plain ``-O3`` host baseline: nothing is
    #: offloaded and the compiled program is the normalised input).
    offload_policy: str = "threshold"
    #: Pass names after which the pass manager stores the printed IR into
    #: ``CompilationReport.ir_dumps`` (e.g. ``("isolate", "lower")``).
    dump_ir_after: tuple[str, ...] | list[str] = ()

    def __post_init__(self) -> None:
        from repro.compiler.passes.pipelines import PASS_REGISTRY, resolve_pass_names
        from repro.compiler.passes.policy import validate_policy
        from repro.tactics.patterns import KERNEL_SPECS

        for name in ("offload_kinds", "dump_ir_after"):
            value = getattr(self, name)
            if isinstance(value, str):
                raise ValueError(f"{name} takes a sequence of names, not the string {value!r}")
            object.__setattr__(self, name, tuple(value))
        resolve_pass_names(self.pipeline)
        validate_policy(self.offload_policy)
        kinds = [spec.kind for spec in KERNEL_SPECS]
        for kind in self.offload_kinds:
            if kind not in kinds:
                raise ValueError(
                    f"unknown kernel kind {kind!r} in offload_kinds; available: {kinds}"
                )
        for name in self.dump_ir_after:
            if name not in PASS_REGISTRY:
                raise ValueError(
                    f"unknown pass {name!r} in dump_ir_after; "
                    f"available passes: {sorted(PASS_REGISTRY)}"
                )
        for name in ("crossbar_rows", "crossbar_cols"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        threshold = self.min_macs_per_write
        if threshold is not None and (
            type(threshold) is bool
            or not (isinstance(threshold, (int, float)) and threshold >= 0)
        ):
            raise ValueError(
                f"min_macs_per_write must be None or a number >= 0, got {threshold!r}"
            )

    def wants_kind(self, kind: str) -> bool:
        return kind in self.offload_kinds

    @staticmethod
    def host_only() -> "CompileOptions":
        """The ``-O3`` baseline: nothing is offloaded."""
        return CompileOptions(offload_policy="never")

    @staticmethod
    def selective(threshold: float = 32.0) -> "CompileOptions":
        """Offload only compute-intense kernels (GEMM-like)."""
        return CompileOptions(min_macs_per_write=threshold)
