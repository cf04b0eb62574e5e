"""The end-to-end TDO-CIM compilation driver (Figure 4).

:class:`TdoCimCompiler` is a thin wrapper around the pass-manager subsystem
(:mod:`repro.compiler.passes`): it resolves ``CompileOptions.pipeline``
into a :class:`~repro.compiler.passes.manager.PassManager`, threads a
:class:`~repro.compiler.passes.context.CompilationContext` through it, and
memoises the result in the content-addressed compile cache.  The pipeline
itself — parse → normalize → detect SCoPs → build schedule trees → match
kernels → select offload → isolate → fuse → tile → device-map → lower —
lives entirely in the pass classes.
"""

from __future__ import annotations

import copy
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping, Optional, Union

from repro.compiler.cache import (
    KernelCompileCache,
    compile_fingerprint,
    fingerprinted_fields,
    get_default_cache,
)
from repro.compiler.options import CompileOptions
from repro.compiler.passes.context import CompilationContext
from repro.compiler.passes.pipelines import build_pipeline
from repro.compiler.passes.policy import OffloadPolicy
from repro.compiler.report import CompilationReport
from repro.ir.program import Program
from repro.poly.schedule_tree import DomainNode
from repro.poly.scop import Scop
from repro.tactics.patterns import KernelMatch
from repro.transforms.device_map import DeviceMappingResult

#: Mini-C fingerprints one compiler keeps, per (source text, size hint).
FINGERPRINT_MEMO_CAPACITY = 64

#: Types whose values cannot change their ``repr`` in place.
_ATOMS = frozenset({bool, int, float, complex, str, bytes, type(None)})


def _repr_is_pinned(value) -> bool:
    """Whether *value*'s ``repr`` can only change by replacing the value:
    an atom, or a tuple of such values."""
    if type(value) is tuple:
        return all(map(_repr_is_pinned, value))
    return type(value) in _ATOMS


class _FingerprintMemo:
    """:func:`compile_fingerprint` of mini-C sources under one compiler's
    options, kept per (source text, size hint) in a bounded LRU table.

    A key is valid while the options' fingerprinted fields keep their
    ``repr``, the form the fingerprint hashes them in.  Every lookup reads
    the fields: one that is still the same object needs no more unless
    its ``repr`` can change in place (a list, a dict, anything but atoms
    and tuples of atoms), which is compared again.  When a ``repr`` moved
    (an in-place list edit, a value replaced by one of another type, such
    as ``256`` by ``256.0``), the table is emptied.  A size hint enters
    the key as ``(str(name), float(value).hex())`` per item, which is what
    the fingerprint reads of it.  A miss calls :func:`compile_fingerprint`,
    so a memoized key is always the string a fresh call returns.
    """

    def __init__(self, capacity: int = FINGERPRINT_MEMO_CAPACITY):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._names: tuple[str, ...] = ()
        self._options_type: Optional[type] = None
        self._values: Optional[tuple] = None  # the field objects last read
        self._reprs: list[str] = []
        self._mutable: tuple[int, ...] = ()  # fields whose repr is re-read
        self._keys: OrderedDict[tuple, str] = OrderedDict()

    def __len__(self) -> int:
        return len(self._keys)

    def fingerprint(
        self,
        source: str,
        options: CompileOptions,
        size_hint: Optional[Mapping[str, int | float]],
    ) -> str:
        hint = tuple([
            (str(name), float(value).hex()) for name, value in (size_hint or {}).items()
        ])
        with self._lock:
            self._sync(options)
            key = (source, hint)
            fingerprint = self._keys.get(key)
            if fingerprint is not None:
                self._keys.move_to_end(key)
                return fingerprint
            fingerprint = self._keys[key] = compile_fingerprint(source, options, size_hint)
            if len(self._keys) > self.capacity:
                self._keys.popitem(last=False)
            return fingerprint

    def _sync(self, options: CompileOptions) -> None:
        """Empty the table if a fingerprinted field's repr moved since the
        last lookup."""
        if type(options) is not self._options_type:
            self._options_type = type(options)
            self._names = fingerprinted_fields(type(options))
            self._values = None
        values = tuple(map(getattr, repeat(options), self._names))
        if (
            self._values is not None
            and all(map(operator.is_, values, self._values))
            and (
                not self._mutable
                or all(repr(values[i]) == self._reprs[i] for i in self._mutable)
            )
        ):
            return
        reprs = [repr(value) for value in values]
        if reprs != self._reprs:
            self._keys.clear()
        self._values, self._reprs = values, reprs
        self._mutable = tuple(
            index for index, value in enumerate(values) if not _repr_is_pinned(value)
        )


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
    #: The options this result was compiled with.  The executor reads the
    #: ``engine`` choice from here when a result is passed to ``run``.
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

    ``policy`` optionally overrides the offload-selection strategy with an
    :class:`OffloadPolicy` *instance* (for experiments with unregistered
    strategies).  An instance override is not part of the compile-cache
    fingerprint, so it disables caching for this compiler; registered
    policies selected via ``options.offload_policy`` cache normally.
    """

    def __init__(
        self,
        options: Optional[CompileOptions] = None,
        cache: Optional[KernelCompileCache] = None,
        policy: Optional[OffloadPolicy] = None,
    ):
        self.options = options or CompileOptions()
        self.policy = policy
        self._fingerprints = _FingerprintMemo()
        if policy is not None:
            self.cache: Optional[KernelCompileCache] = None
        elif cache is not None:
            self.cache = cache
        elif not self.options.enable_compile_cache:
            self.cache = None
        elif self.options.compile_cache_dir is not None:
            self.cache = KernelCompileCache(
                disk_dir=self.options.compile_cache_dir
            )
        else:
            self.cache = get_default_cache()

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
        description, so results from different pipelines never alias.  A
        mini-C source's fingerprint is memoized (:class:`_FingerprintMemo`);
        the cache itself is asked on every call.
        """
        key: Optional[str] = None
        if self.cache is not None:
            if isinstance(source, str):
                key = self._fingerprints.fingerprint(source, self.options, size_hint)
            else:
                key = compile_fingerprint(source, self.options, size_hint)
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        result = self._compile_uncached(source, size_hint, cache_key=key)
        if key is not None:
            # Snapshot the options so a caller mutating theirs after the
            # fact cannot change the cached artifact under its old key.
            # A deep copy: ``dataclasses.replace`` would share any mutable
            # field (e.g. a ``dump_ir_after`` list) with the caller.
            result.options = copy.deepcopy(self.options)
            self.cache.put(key, result)
        return result

    def _compile_uncached(
        self,
        source: Union[str, Program],
        size_hint: Optional[Mapping[str, int | float]] = None,
        cache_key: Optional[str] = None,
    ) -> CompilationResult:
        manager = build_pipeline(self.options.pipeline, policy=self.policy)
        ctx = CompilationContext(
            source=source,
            options=self.options,
            size_hint=size_hint,
            cache_key=cache_key,
        )
        manager.run(ctx)
        return _result_from_context(ctx)


def _result_from_context(ctx: CompilationContext) -> CompilationResult:
    """Fold a finished pass-pipeline context into the public result type."""
    program = ctx.program
    if program is None:
        raise ValueError(
            "pipeline produced no program — it must include the 'parse' pass"
        )
    source_program = ctx.source_program if ctx.source_program is not None else program
    return CompilationResult(
        source_program=source_program,
        program=program,
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
