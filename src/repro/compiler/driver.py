"""The end-to-end TDO-CIM compilation driver (Figure 4).

:class:`TdoCimCompiler` is a thin wrapper around the pass-manager subsystem
(:mod:`repro.compiler.passes`): it builds the named pipeline
``CompileOptions.pipeline`` into a
:class:`~repro.compiler.passes.manager.PassManager`, threads a
:class:`~repro.compiler.passes.context.CompilationContext` through it, and
memoises the result in the content-addressed compile cache.  The pipeline
itself — parse → normalize → detect SCoPs → build schedule trees → match
kernels → select offload → isolate → fuse → tile → device-map → lower —
lives entirely in the pass classes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from repro.compiler.cache import (
    KernelCompileCache,
    compile_fingerprint,
    get_default_cache,
)
from repro.compiler.options import CompileOptions
from repro.compiler.passes.context import CompilationContext
from repro.compiler.passes.pipelines import build_pipeline
from repro.compiler.report import CompilationReport
from repro.ir.program import Program
from repro.poly.schedule_tree import DomainNode
from repro.poly.scop import Scop
from repro.tactics.patterns import KernelMatch
from repro.transforms.device_map import DeviceMappingResult

#: Mini-C fingerprints one compiler keeps, per (source text, size hint).
FINGERPRINT_MEMO_CAPACITY = 64


@dataclass
class CompilationResult:
    """Everything produced by one compiler invocation."""

    source_program: Program
    program: Program
    report: CompilationReport
    scops: list[Scop] = field(default_factory=list)
    trees: list[DomainNode] = field(default_factory=list)
    matches: list[KernelMatch] = field(default_factory=list)
    mappings: list[DeviceMappingResult] = field(default_factory=list)
    #: The options this result was compiled with.
    options: Optional[CompileOptions] = None
    #: Content fingerprint this result was cached under (``None`` when
    #: compiled with caching disabled).  Lets downstream consumers (e.g.
    #: the serving layer's batch signatures) reuse the hash instead of
    #: recomputing it per request.
    cache_key: Optional[str] = None

    @property
    def offloaded(self) -> bool:
        return any(mapping.any_offloaded for mapping in self.mappings)


class TdoCimCompiler:
    """Transparent detection and offloading for computation in-memory.

    The options are fixed for the compiler's lifetime (``options`` is
    read-only and :class:`CompileOptions` is frozen), so a compile is named
    by its source, size hint and these options alone: the compile-cache
    fingerprint.
    """

    def __init__(
        self,
        options: Optional[CompileOptions] = None,
        cache: Optional[KernelCompileCache] = None,
    ):
        self._options = options or CompileOptions()
        self._fingerprints: OrderedDict[tuple, str] = OrderedDict()
        self._lock = threading.Lock()
        if cache is not None:
            self.cache: Optional[KernelCompileCache] = cache
        elif not self._options.enable_compile_cache:
            self.cache = None
        elif self._options.compile_cache_dir is not None:
            self.cache = KernelCompileCache(disk_dir=self._options.compile_cache_dir)
        else:
            self.cache = get_default_cache()

    @property
    def options(self) -> CompileOptions:
        return self._options

    # ------------------------------------------------------------------
    def compile(
        self,
        source: Union[str, Program],
        size_hint: Optional[Mapping[str, int | float]] = None,
    ) -> CompilationResult:
        """Compile mini-C source (or an IR program) for the CIM system.

        ``size_hint`` optionally provides concrete problem sizes so the
        selective-offloading heuristic can estimate compute intensity; it
        does not specialise the generated code.

        With ``options.enable_compile_cache`` (the default) the result is
        memoised by content fingerprint — see :mod:`repro.compiler.cache`.
        The fingerprint covers every options field, including the pipeline
        name, so results from different pipelines never alias.  The
        cache is asked on every call.
        """
        key: Optional[str] = None
        if self.cache is not None:
            key = self._fingerprint(source, size_hint)
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        result = self._compile_uncached(source, size_hint, cache_key=key)
        if key is not None:
            self.cache.put(key, result)
        return result

    def _fingerprint(
        self,
        source: Union[str, Program],
        size_hint: Optional[Mapping[str, int | float]] = None,
    ) -> str:
        """:func:`compile_fingerprint` of *source* under this compiler's
        options.

        A mini-C source's is kept in a bounded LRU table of
        :data:`FINGERPRINT_MEMO_CAPACITY` entries, keyed by the text and
        ``(str(name), float(value).hex())`` per size-hint item, which is
        what the fingerprint reads of a hint.  An IR program is hashed on
        every call, since it can change in place.
        """
        if not isinstance(source, str):
            return compile_fingerprint(source, self._options, size_hint)
        key = (source, tuple([
            (str(name), float(value).hex()) for name, value in (size_hint or {}).items()
        ]))
        with self._lock:
            fingerprint = self._fingerprints.get(key)
            if fingerprint is not None:
                self._fingerprints.move_to_end(key)
                return fingerprint
            fingerprint = compile_fingerprint(source, self._options, size_hint)
            self._fingerprints[key] = fingerprint
            if len(self._fingerprints) > FINGERPRINT_MEMO_CAPACITY:
                self._fingerprints.popitem(last=False)
            return fingerprint

    def _compile_uncached(
        self,
        source: Union[str, Program],
        size_hint: Optional[Mapping[str, int | float]] = None,
        cache_key: Optional[str] = None,
    ) -> CompilationResult:
        manager = build_pipeline(self._options.pipeline)
        ctx = CompilationContext(
            source=source,
            options=self._options,
            size_hint=size_hint,
            cache_key=cache_key,
        )
        manager.run(ctx)
        return _result_from_context(ctx)


def _result_from_context(ctx: CompilationContext) -> CompilationResult:
    """Fold a finished pass-pipeline context into the public result type.
    Every named pipeline starts with ``parse``, which sets both programs."""
    return CompilationResult(
        source_program=ctx.source_program,
        program=ctx.program,
        report=ctx.report,
        scops=ctx.scops,
        trees=ctx.trees,
        matches=ctx.matches,
        mappings=ctx.mappings,
        options=ctx.options,
        cache_key=ctx.cache_key,
    )


def compile_source(
    source: Union[str, Program],
    options: Optional[CompileOptions] = None,
    size_hint: Optional[Mapping[str, int | float]] = None,
    cache: Optional[KernelCompileCache] = None,
) -> CompilationResult:
    """Convenience wrapper: ``TdoCimCompiler(options).compile(source)``.

    ``cache`` overrides the compile cache instance and wins over
    ``options.enable_compile_cache`` (the process-wide default cache is
    used otherwise; pass ``options`` with ``enable_compile_cache=False``
    and no explicit ``cache`` to bypass caching entirely).

    Standard memoisation contract: a cache hit returns the *same*
    :class:`CompilationResult` object as the original compile — do not
    mutate it (or its program/report) in place; recompile with caching
    disabled if you need a private copy to modify.
    """
    return TdoCimCompiler(options, cache=cache).compile(source, size_hint=size_hint)
