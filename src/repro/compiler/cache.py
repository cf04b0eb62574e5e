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
import tempfile
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Mapping, Optional, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: CompileOptions fields that steer caching itself, not the compiled output.
_CACHE_CONTROL_FIELDS = frozenset({"enable_compile_cache", "compile_cache_dir"})

#: The packages whose sources make the compiled output.
PIPELINE_PACKAGES = ("frontend", "poly", "tactics", "transforms", "compiler", "ir", "codegen")

#: The first element of a fingerprint's payload (the package version until
#: the version moved into :func:`pipeline_salt`), and the option pair the
#: payload keeps, just before ``pipeline``, for the host engine that is no
#: longer a compile option.  Both are frozen so a request's fingerprint — and
#: the batch signature and lease label derived from it, pinned in
#: ``tests/golden/serve/fused_leases.json`` — do not move.
_FINGERPRINT_TAG = "1.14.0"
_ENGINE_ITEM = ("engine", "'fast'")


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
def fingerprinted_fields(options_type: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The option fields a fingerprint covers: every field of the options
    dataclass but the cache-control ones, in declaration order, split
    where :data:`_ENGINE_ITEM` goes (before ``pipeline``)."""
    names = tuple(
        f.name for f in fields(options_type) if f.name not in _CACHE_CONTROL_FIELDS
    )
    split = names.index("pipeline")
    return names[:split], names[split:]


def compile_fingerprint(
    source,
    options,
    size_hint: Optional[Mapping[str, Union[int, float]]] = None,
) -> str:
    """Stable content address of one compiler invocation.

    ``source`` may be mini-C text or an IR :class:`~repro.ir.program.Program`
    (hashed via its printed form, so later mutation of a program object
    yields a different key).  The options enter as the ``repr`` of each
    :func:`fingerprinted_fields` value, with :data:`_ENGINE_ITEM` among them.
    """
    if not isinstance(source, str):
        from repro.ir.printer import to_source

        source = to_source(source)
    head, tail = fingerprinted_fields(type(options))
    option_items = (
        *[(name, repr(getattr(options, name))) for name in head],
        _ENGINE_ITEM,
        *[(name, repr(getattr(options, name))) for name in tail],
    )
    hint_items = tuple(
        sorted((str(k), float(v)) for k, v in (size_hint or {}).items())
    )
    payload = repr((_FINGERPRINT_TAG, source, option_items, hint_items)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@contextmanager
def _flock(lock_path: Path, timeout_s: float):
    """Advisory cross-process lock around the cache directory.

    Yields ``True`` while the lock is held, ``False`` when it could not
    be acquired within *timeout_s* (or the platform has no ``fcntl``) —
    callers then degrade gracefully (a load becomes a miss, a store is
    skipped) instead of blocking a compile behind a stuck process.
    """
    if fcntl is None:
        # No advisory locking available; the atomic temp-file + rename
        # protocol still keeps individual entries consistent.
        yield True
        return
    try:
        handle = open(lock_path, "a+b")
    except OSError:
        yield False
        return
    held = False
    deadline = time.monotonic() + timeout_s
    try:
        while True:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                held = True
                break
            except OSError:
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.01)
        yield held
    finally:
        if held:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
        handle.close()


class KernelCompileCache:
    """LRU cache of compilation results, keyed by content fingerprint.

    ``capacity`` bounds the in-memory entries (least-recently-used entries
    are evicted first).  With ``disk_dir`` set, every stored result is also
    pickled to ``<disk_dir>/<key>.pkl`` and in-memory misses fall back to
    disk; disk I/O failures (unpicklable results, read-only filesystems)
    silently degrade to a miss, never an error.  So does an entry written
    under another :func:`pipeline_salt`, which the next store of its key
    replaces.  A corrupt or truncated disk entry — a torn write from a
    crashed process, disk rot — also degrades to a miss, and is
    additionally *quarantined* (renamed to ``<key>.pkl.corrupt``, or
    unlinked if the rename fails) and counted in :attr:`disk_corruptions`,
    so the poisoned entry is read at most once and its slot becomes
    storable again.

    The cache is safe for concurrent use from multiple threads: one
    re-entrant lock serialises the LRU mutation and the hit/miss
    statistics (the serving layer shares a single cache between its
    submission path and any caller threads).  Disk I/O deliberately runs
    *outside* the lock — it can be slow — and relies on the atomic
    temp-file + rename protocol of :meth:`_disk_store` instead.  Entries
    are content-addressed, so two threads racing to ``put`` the same key
    store equivalent results and either may win.

    Across *processes*, disk reads and writes additionally take an
    advisory ``flock`` on ``<disk_dir>/.lock`` (POSIX only; a no-op
    elsewhere) so a store and the quarantine rename of a concurrent
    corrupt-entry read never interleave.  The lock is acquired with a
    bounded retry loop — if it cannot be taken within
    ``lock_timeout_s`` (a crashed or wedged holder), the operation
    degrades to a cache miss / skipped store, counted in
    :attr:`lock_timeouts`, and compilation proceeds uncached rather than
    blocking.
    """

    def __init__(
        self,
        capacity: int = 128,
        disk_dir: Optional[Union[str, Path]] = None,
        lock_timeout_s: float = 2.0,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if lock_timeout_s < 0:
            raise ValueError(
                f"lock_timeout_s must be >= 0, got {lock_timeout_s}"
            )
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.lock_timeout_s = lock_timeout_s
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        #: Corrupt/truncated disk entries found (and quarantined) so far.
        self.disk_corruptions = 0
        #: Disk operations skipped because the cross-process lock could
        #: not be acquired within ``lock_timeout_s``.
        self.lock_timeouts = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._entries:
                return True
        path = self._disk_path(key)
        return path is not None and path.exists()

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

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{key}.pkl"

    def _note_lock_timeout(self) -> None:
        with self._lock:
            self.lock_timeouts += 1

    def _disk_store(self, key: str, result) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with _flock(path.parent / ".lock", self.lock_timeout_s) as held:
                if not held:
                    self._note_lock_timeout()
                    return
                # A unique temp file per writer: concurrent processes
                # storing the same key must each install a complete pickle
                # atomically, never interleave into one shared temp file.
                fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump((pipeline_salt(), result), handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_name, path)
                tmp_name = None
        except Exception:
            # Persistence is best-effort: an unpicklable result or an
            # unwritable directory must not fail the compile.
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            return

    def _disk_load(self, key: str):
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        with _flock(path.parent / ".lock", self.lock_timeout_s) as held:
            if not held:
                self._note_lock_timeout()
                return None  # degrade to a miss, never block a compile
            try:
                with open(path, "rb") as handle:
                    entry = pickle.load(handle)
            except FileNotFoundError:
                return None  # raced with another process; plain miss
            except Exception:
                # Corrupt or truncated entry (torn write by a crashed
                # process, disk rot, an incompatible pickle).  Quarantine
                # it so the poison is never re-read on every future miss
                # of this key — the entry degrades to one miss and the
                # slot becomes storable again.
                self._quarantine_corrupt(path)
                return None
        try:
            salt = pipeline_salt()
        except OSError:
            return None  # the pipeline's sources are unreadable: a miss
        if isinstance(entry, tuple) and len(entry) == 2 and entry[0] == salt:
            return entry[1]
        return None  # written by another compiler pipeline

    def _quarantine_corrupt(self, path: Path) -> None:
        with self._lock:
            self.disk_corruptions += 1
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            # Quarantine is best-effort (read-only dir, concurrent
            # unlink...); fall back to removing the bad entry outright.
            try:
                os.unlink(path)
            except OSError:
                pass

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
