"""Content-addressed kernel-compile cache.

Workload sweeps and serving loops compile the same mini-C kernels over and
over; the poly + tactics + transforms pipeline is pure (same source, same
options, same size hint → same result), so its output can be memoised.
:func:`compile_fingerprint` hashes the source (or the printed IR program),
the :class:`~repro.compiler.options.CompileOptions` and the size hint into
a stable content address; :class:`KernelCompileCache` maps those addresses
to :class:`~repro.compiler.driver.CompilationResult` objects with an
in-memory LRU, optionally persisted to disk so separate processes (e.g.
benchmark sweeps) share warm compiles.  A persisted entry carries the
:func:`pipeline_salt` of the process that wrote it — the package version and
a digest of the compiler pipeline's own sources — and is served only to a
process with the same salt, so an entry from another compiler pipeline is
never served.

Cache-control fields of ``CompileOptions`` (``enable_compile_cache``,
``compile_cache_dir``) are excluded from the fingerprint because they do
not affect the compiled artifact.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import fields
from pathlib import Path
from typing import Mapping, Optional, Union

from repro.disk_store import DiskStore

#: CompileOptions fields that steer caching itself, not the compiled output.
_CACHE_CONTROL_FIELDS = frozenset({"enable_compile_cache", "compile_cache_dir"})

#: The packages whose sources make the compiled output.
PIPELINE_PACKAGES = ("frontend", "poly", "tactics", "transforms", "compiler", "ir", "codegen")

def source_digest(root: Path) -> str:
    """sha256 over the ``*.py`` files of :data:`PIPELINE_PACKAGES` under
    *root*: each file's path relative to *root*, its size and its bytes, in
    path order."""
    digest = hashlib.sha256()
    for package in PIPELINE_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            data = path.read_bytes()
            digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def pipeline_salt() -> str:
    """The package version and the digest of the compiler pipeline's
    sources, computed once per process (on its first disk-cache access)."""
    from repro import __version__

    return f"{__version__}:{source_digest(Path(__file__).resolve().parent.parent)}"


@functools.lru_cache(maxsize=None)
def fingerprinted_fields(options_type: type) -> tuple[str, ...]:
    """The option fields a fingerprint covers: every field of the options
    dataclass but the cache-control ones, in declaration order."""
    return tuple(
        f.name for f in fields(options_type) if f.name not in _CACHE_CONTROL_FIELDS
    )


def compile_fingerprint(
    source,
    options,
    size_hint: Optional[Mapping[str, Union[int, float]]] = None,
) -> str:
    """Stable content address of one compiler invocation.

    ``source`` may be mini-C text or an IR :class:`~repro.ir.program.Program`
    (hashed via its printed form, so later mutation of a program object
    yields a different key).  The options enter as the ``repr`` of each
    :func:`fingerprinted_fields` value.
    """
    if not isinstance(source, str):
        from repro.ir.printer import to_source

        source = to_source(source)
    option_items = tuple(
        (name, repr(getattr(options, name))) for name in fingerprinted_fields(type(options))
    )
    hint_items = tuple(
        sorted((str(k), float(v)) for k, v in (size_hint or {}).items())
    )
    payload = repr((source, option_items, hint_items)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _unpickle(path: str):
    return pickle.loads(Path(path).read_bytes())


class KernelCompileCache:
    """LRU cache of compilation results, keyed by content fingerprint.

    ``capacity`` bounds the in-memory entries (least-recently-used entries
    are evicted first).  With ``disk_dir`` set, every stored result is also
    pickled to ``<disk_dir>/<key>.pkl`` through a
    :class:`~repro.disk_store.DiskStore`, and in-memory misses fall back to
    disk.  Disk I/O failures (unpicklable results, read-only filesystems)
    and entries written under another :func:`pipeline_salt` degrade to a
    miss, never an error; the next store of the key replaces them.  A
    corrupt entry is a miss too, quarantined as ``<key>.pkl.corrupt`` and
    counted in :attr:`disk_corruptions`.  Disk reads and writes take the
    store's cross-process lock; one not taken within ``lock_timeout_s`` (a
    wedged holder) degrades to a miss or a skipped store, counted in
    :attr:`lock_timeouts`, rather than blocking a compile.

    One re-entrant lock makes the cache safe to share between threads (the
    serving layer does): it serialises the LRU and the hit/miss counts.
    Disk I/O runs outside it, as it can be slow; entries are
    content-addressed, so two threads racing to ``put`` a key store
    equivalent results and either may win.
    """

    def __init__(self, capacity: int = 128, disk_dir: Optional[Union[str, Path]] = None,
                 lock_timeout_s: float = 2.0):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if lock_timeout_s < 0:
            raise ValueError(f"lock_timeout_s must be >= 0, got {lock_timeout_s}")
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.lock_timeout_s = lock_timeout_s
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.RLock()
        self._store = DiskStore(disk_dir, lock_timeout_s) if disk_dir is not None else None
        self.hits = 0
        self.misses = 0

    @property
    def disk_corruptions(self) -> int:
        """Corrupt/truncated disk entries found (and quarantined) so far."""
        return self._store.corruptions if self._store is not None else 0

    @property
    def lock_timeouts(self) -> int:
        """Disk operations skipped: the cross-process lock was not taken."""
        return self._store.lock_timeouts if self._store is not None else 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str):
        """Return the cached result for *key*, or ``None`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
        # Disk I/O happens outside the lock (it can be slow); the insert
        # below re-acquires it.  A concurrent put of the same key is
        # harmless: content addressing makes both values equivalent.
        result = self._disk_load(key)
        with self._lock:
            if result is not None:
                self._insert(key, result)
                self.hits += 1
                return result
            self.misses += 1
            return None

    def put(self, key: str, result) -> None:
        """Store *result* under *key* (in memory, and on disk if enabled)."""
        with self._lock:
            self._insert(key, result)
        self._disk_store(key, result)

    def clear(self) -> None:
        """Drop the in-memory entries and hit/miss statistics (disk files,
        if any, are kept — they are content-addressed and never stale)."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    # ------------------------------------------------------------------
    def _insert(self, key: str, result) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def _disk_store(self, key: str, result) -> None:
        if self._store is None:
            return
        try:
            with self._store.locked() as held:
                if held:  # else skipped: a store never waits on a wedged holder
                    with self._store.installing(f"{key}.pkl") as tmp, open(tmp, "wb") as handle:
                        pickle.dump((pipeline_salt(), result), handle,
                                    protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # Persistence is best-effort: an unpicklable result or an
            # unwritable directory must not fail the compile.
            return

    def _disk_load(self, key: str):
        name = f"{key}.pkl"
        if self._store is None or not os.path.exists(self._store.path(name)):
            return None
        with self._store.locked() as held:
            # A lock not taken in time degrades to a miss, never blocks a compile.
            entry = self._store.load(name, _unpickle) if held else None
        try:
            salt = pipeline_salt()
        except OSError:
            return None  # the pipeline's sources are unreadable: a miss
        if isinstance(entry, tuple) and len(entry) == 2 and entry[0] == salt:
            return entry[1]
        return None  # written by another compiler pipeline

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"KernelCompileCache(entries={len(self._entries)}/{self.capacity}, "
                f"hits={self.hits}, misses={self.misses}, disk={self.disk_dir})"
            )


#: Process-wide default cache used by :class:`TdoCimCompiler` when caching
#: is enabled and no explicit cache instance is given.
_default_cache = KernelCompileCache()


def get_default_cache() -> KernelCompileCache:
    return _default_cache
