"""A directory of cache entries that several processes share safely.

The compile cache's ``<key>.pkl`` pickles
(:class:`~repro.compiler.cache.KernelCompileCache`) and the host engine's
``<digest>.so`` C objects (:mod:`repro.ir.engine.native`) both live in one:

* an advisory ``flock`` on ``<dir>/.lock`` (POSIX only) is taken with a
  bounded retry, so a crashed or wedged holder costs at most
  ``lock_timeout_s``; a lock not taken in time is counted and the caller
  decides how to degrade;
* an entry is installed as a private temp file ``os.replace``-d over it,
  so a reader sees the old file or the whole new one, and a file another
  process has open or mapped is never written;
* an entry that exists but does not read is renamed ``<name>.corrupt``
  (unlinked if that fails) and counted, so it is read at most once and
  its slot can be installed again; an install removes the store's own
  stale temp files.
"""

from __future__ import annotations

import glob
import os
import tempfile
import threading
import time
from contextlib import contextmanager, suppress
from typing import Callable, Iterator, Optional, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: Age in seconds past which one of the store's temp files is a writer's
#: that was killed mid-way: well above the 120 s a C compile may take.
STALE_TMP_S = 3600.0

#: The name prefix of the store's temp files; an install removes only
#: these, never other files in a directory the user may share.
TMP_PREFIX = ".diskstore-"


class DiskStore:
    """The entries of one directory, under its ``.lock``."""

    def __init__(self, directory: Union[str, os.PathLike], lock_timeout_s: float = 2.0):
        self.directory = os.fspath(directory)
        self.lock_timeout_s = lock_timeout_s
        #: Entries found unreadable, and quarantined, so far.
        self.corruptions = 0
        #: Times :meth:`locked` did not take the lock.
        self.lock_timeouts = 0
        self._counts = threading.Lock()

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    @contextmanager
    def locked(self) -> Iterator[bool]:
        """Hold ``<dir>/.lock`` for the block, creating the directory.
        Yields ``False`` instead (counted) when the lock is not taken within
        ``lock_timeout_s`` or its file cannot be opened."""
        if fcntl is None:  # no advisory locks; the atomic installs still hold
            yield True
            return
        handle, held = None, False
        try:
            os.makedirs(self.directory, exist_ok=True)
            handle = open(self.path(".lock"), "a+b")
            deadline = time.monotonic() + self.lock_timeout_s
            while not held:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                    held = True
                except BlockingIOError:
                    if time.monotonic() >= deadline:
                        break
                    time.sleep(0.01)
        except OSError:
            pass  # no directory or lock file: not taken
        if not held:
            with self._counts:
                self.lock_timeouts += 1
        try:
            yield held
        finally:
            if held:  # explicitly: a forked child may share the descriptor
                with suppress(OSError):
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            if handle is not None:
                handle.close()

    def load(self, name: str, read: Callable[[str], object]) -> Optional[object]:
        """``read(path)`` of entry *name*, or ``None`` when there is no such
        entry or *read* raises; the entry is then quarantined."""
        path = self.path(name)
        if not os.path.exists(path):
            return None
        try:
            return read(path)
        except FileNotFoundError:
            return None  # quarantined by another process meanwhile
        except Exception:
            with self._counts:
                self.corruptions += 1
            try:
                os.replace(path, path + ".corrupt")
            except OSError:
                with suppress(OSError):
                    os.unlink(path)
            return None

    @contextmanager
    def installing(self, name: str) -> Iterator[str]:
        """Yield a private temp path in the directory; what the block
        writes there becomes entry *name* when it returns, and is removed
        when it raises.  The store's stale temp files are removed first."""
        pattern = os.path.join(glob.escape(self.directory), f"{TMP_PREFIX}*.tmp")
        for path in glob.glob(pattern):
            with suppress(OSError):
                if os.path.getmtime(path) < time.time() - STALE_TMP_S:
                    os.unlink(path)
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=TMP_PREFIX, suffix=".tmp")
        os.close(fd)
        try:
            yield tmp
            os.replace(tmp, self.path(name))
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise

