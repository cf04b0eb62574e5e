"""Threaded stress tests for :class:`KernelCompileCache` (PR 4 satellite).

The serving layer shares one compile cache between its submission path and
arbitrary caller threads, so the LRU bookkeeping, the statistics and the
on-disk persistence must tolerate concurrent use without corruption.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.compiler import CompileOptions, KernelCompileCache, compile_fingerprint
from repro.compiler.driver import TdoCimCompiler
from repro.ir.engine import native, native_available
from repro.workloads import get_kernel


def _hammer(cache: KernelCompileCache, keys: list[str], rounds: int, errors: list):
    try:
        for _ in range(rounds):
            for key in keys:
                value = cache.get(key)
                if value is None:
                    cache.put(key, ("payload", key))
                else:
                    # A cached entry must always be the one stored under
                    # its own key — any cross-talk is corruption.
                    assert value == ("payload", key)
            len(cache)
            repr(cache)
    except Exception as exc:  # pragma: no cover - only on corruption
        errors.append(exc)


@pytest.mark.parametrize("capacity", [4, 64])
def test_threaded_stress_in_memory(capacity):
    cache = KernelCompileCache(capacity=capacity)
    keys = [f"key-{i:02d}" for i in range(16)]
    errors: list = []
    threads = [
        threading.Thread(target=_hammer, args=(cache, keys, 50, errors))
        for _ in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(cache) <= capacity
    # Every lookup was either a hit or a miss; the counters never tear.
    total_gets = 8 * 50 * len(keys)
    assert cache.hits + cache.misses == total_gets
    for key in keys:
        value = cache.get(key)
        if value is not None:
            assert value == ("payload", key)


def test_threaded_stress_with_disk_persistence(tmp_path):
    cache = KernelCompileCache(capacity=8, disk_dir=tmp_path)
    keys = [f"disk-key-{i:02d}" for i in range(12)]
    errors: list = []
    threads = [
        threading.Thread(target=_hammer, args=(cache, keys, 25, errors))
        for _ in range(6)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    # Everything ever stored is recoverable from disk through a fresh
    # cache (atomic tmp-file + rename: no torn pickles).
    fresh = KernelCompileCache(capacity=32, disk_dir=tmp_path)
    for key in keys:
        value = fresh.get(key)
        assert value == ("payload", key)


def test_concurrent_compiles_share_one_cache():
    """Racing real compiles of the same kernel through one shared cache is
    safe and yields the canonical cached result for every thread."""
    kernel = get_kernel("mvt")
    params = kernel.params("MINI")
    cache = KernelCompileCache()
    options = CompileOptions()
    results: list = [None] * 6
    errors: list = []

    def compile_one(slot: int):
        try:
            compiler = TdoCimCompiler(options, cache=cache)
            results[slot] = compiler.compile(kernel.source, size_hint=params)
        except Exception as exc:  # pragma: no cover - only on corruption
            errors.append(exc)

    threads = [threading.Thread(target=compile_one, args=(i,)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert all(result is not None for result in results)
    key = compile_fingerprint(kernel.source, options, params)
    canonical = cache.get(key)
    assert canonical is not None
    # After the race settles, the cache serves one canonical object and
    # every compiled program is equivalent to it.
    from repro.ir.printer import to_source

    reference = to_source(canonical.program)
    for result in results:
        assert to_source(result.program) == reference
    assert len(cache) == 1


# ----------------------------------------------------------------------
# Cross-process file locking (PR 8 satellite)
# ----------------------------------------------------------------------
def test_disk_operations_take_the_cross_process_lock(tmp_path):
    fcntl = pytest.importorskip("fcntl")  # noqa: F841 - POSIX-only tests
    cache = KernelCompileCache(disk_dir=tmp_path)
    cache.put("locked-key", ("payload", "locked-key"))
    assert (tmp_path / ".lock").exists()
    fresh = KernelCompileCache(disk_dir=tmp_path)
    assert fresh.get("locked-key") == ("payload", "locked-key")
    assert fresh.lock_timeouts == 0


def test_held_lock_degrades_to_miss_within_timeout(tmp_path):
    """A wedged holder must cost at most ``lock_timeout_s`` and then the
    operation degrades — a load becomes a miss, a store is skipped —
    instead of blocking a compile forever."""
    fcntl = pytest.importorskip("fcntl")
    cache = KernelCompileCache(disk_dir=tmp_path, lock_timeout_s=0.05)
    cache.put("key", ("payload", "key"))  # creates dir, .lock and entry

    with open(tmp_path / ".lock", "a+b") as holder:
        fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
        try:
            fresh = KernelCompileCache(disk_dir=tmp_path, lock_timeout_s=0.05)
            start = time.monotonic()
            assert fresh.get("key") is None  # on disk, but unreachable
            elapsed = time.monotonic() - start
            assert elapsed < 2.0  # bounded, not a deadlock
            assert fresh.lock_timeouts == 1
            assert fresh.misses == 1

            fresh.put("other", ("payload", "other"))  # store is skipped
            assert fresh.lock_timeouts == 2
            assert not (tmp_path / "other.pkl").exists()
            # ...but the in-memory copy still serves this process.
            assert fresh.get("other") == ("payload", "other")
        finally:
            fcntl.flock(holder.fileno(), fcntl.LOCK_UN)

    # Lock released: the same cache reaches the disk again.
    assert fresh.get("key") == ("payload", "key")


def test_lock_timeout_validation():
    with pytest.raises(ValueError, match="lock_timeout_s"):
        KernelCompileCache(lock_timeout_s=-1.0)


def test_lock_contention_across_real_processes(tmp_path):
    """Two processes hammering the same disk directory stay consistent:
    every stored entry is recoverable and uncorrupted."""
    import subprocess
    import sys

    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "from repro.compiler import KernelCompileCache\n"
        "cache = KernelCompileCache(disk_dir=sys.argv[1])\n"
        "for round_no in range(30):\n"
        "    for i in range(8):\n"
        "        key = f'proc-key-{i}'\n"
        "        value = cache.get(key)\n"
        "        if value is None:\n"
        "            cache.put(key, ('payload', key))\n"
        "        else:\n"
        "            assert value == ('payload', key), value\n"
    )
    import pathlib

    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path), src],
            stderr=subprocess.PIPE,
        )
        for _ in range(3)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    fresh = KernelCompileCache(disk_dir=tmp_path)
    for i in range(8):
        assert fresh.get(f"proc-key-{i}") == ("payload", f"proc-key-{i}")


# ----------------------------------------------------------------------
# C objects share the store's lock
# ----------------------------------------------------------------------
def _cloned_body(value: int) -> tuple[str, str]:
    """A C body with the engine's prelude (an AVX2 and a baseline clone
    where the toolchain has them), so one compile takes a while."""
    prototype = "void kernel(double *restrict a0, int64_t n0)"
    source = (f"{native._PRELUDE}\nVECTOR_CLONES {prototype} {{\n"
              f"    for (int64_t i = 0; i < n0; i += 1) a0[i] = a0[i] * 2.0 + {value}.0;\n}}\n")
    return source, prototype


def _compile_after_barrier(cache_dir: str, barrier, queue) -> None:
    """Worker: compile one body at the same moment as its twin; report how
    many times it ran the compiler and what the body computed."""
    os.environ["REPRO_NATIVE_CACHE"] = cache_dir
    runs, run = [], native.subprocess.run
    native.subprocess.run = lambda *a, **k: runs.append(a) or run(*a, **k)
    barrier.wait(timeout=60)
    ffi, lib = native.compile_and_load(*_cloned_body(3))
    out = np.ones(4)
    lib.kernel(ffi.from_buffer("double[]", out), 4)
    queue.put((len(runs), out.tolist()))


def test_processes_that_miss_together_run_the_compiler_once(tmp_path):
    """Two cold processes loading the same body once both ran gcc for it;
    the second now waits on the lock and loads the first one's object."""
    if not native_available():
        pytest.skip("no C toolchain")
    ctx = multiprocessing.get_context("spawn")
    barrier, queue = ctx.Barrier(2), ctx.Queue()
    workers = [
        ctx.Process(target=_compile_after_barrier, args=(str(tmp_path), barrier, queue))
        for _ in range(2)
    ]
    for proc in workers:
        proc.start()
    outcomes = [queue.get(timeout=120) for _ in workers]
    for proc in workers:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    assert sorted(runs for runs, _ in outcomes) == [0, 1]
    assert all(out == [5.0] * 4 for _, out in outcomes)
    assert len(list(tmp_path.glob("*.so"))) == 1
    assert native.native_store().lock_timeouts == 0


def test_a_held_lock_still_yields_a_working_c_body(monkeypatch, tmp_path):
    """A wedged holder of the C objects' lock costs the lock timeout, then
    the body is built unlocked: counted, never the fold body, and not
    remembered as a failure."""
    fcntl = pytest.importorskip("fcntl")
    if not native_available():
        pytest.skip("no C toolchain")
    monkeypatch.setattr(native, "_loaded", {})
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    store = native.native_store()
    monkeypatch.setattr(store, "lock_timeout_s", 0.2)
    source, prototype = _cloned_body(1)
    with open(tmp_path / ".lock", "a+b") as holder:
        fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
        start = time.monotonic()
        loaded = native.compile_and_load(source, prototype)
        elapsed = time.monotonic() - start
    assert loaded is not None
    assert 0.2 <= elapsed < 30.0
    assert (store.lock_timeouts, store.corruptions) == (1, 0)
    assert len(list(tmp_path.glob("*.so"))) == 1
    ffi, lib = loaded
    out = np.ones(2)
    lib.kernel(ffi.from_buffer("double[]", out), 2)
    assert out.tolist() == [3.0, 3.0]
    assert native.compile_and_load(source, prototype) is loaded
