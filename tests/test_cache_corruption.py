"""Corrupt-disk-entry hardening of :class:`KernelCompileCache`.

A crashed writer, disk rot or a hostile tenant can leave a truncated or
garbage pickle under a cache key.  Reading one must degrade to a plain
cache miss — never an exception — and the poisoned file must be
quarantined (renamed to ``*.pkl.corrupt``) so it is read at most once and
the slot becomes storable again.  The cross-process stress test hammers
one disk directory from several processes while a saboteur keeps
corrupting entries mid-flight.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.compiler import KernelCompileCache
from repro.compiler import cache as cache_module
from repro.disk_store import STALE_TMP_S, TMP_PREFIX, DiskStore
from repro.ir.engine import native, native_available


def _store(tmp_path, key: str, payload) -> None:
    cache = KernelCompileCache(capacity=4, disk_dir=tmp_path)
    cache.put(key, payload)


@pytest.mark.parametrize(
    "corruption",
    [b"", b"\x80", b"not a pickle at all", b"\x80\x05\x95\xff\xff"],
    ids=["empty", "one-byte", "garbage", "truncated"],
)
def test_corrupt_disk_entry_degrades_to_miss_and_is_quarantined(
    tmp_path, corruption
):
    _store(tmp_path, "kernel-a", ("payload", "kernel-a"))
    path = tmp_path / "kernel-a.pkl"
    path.write_bytes(corruption)

    fresh = KernelCompileCache(capacity=4, disk_dir=tmp_path)
    assert fresh.get("kernel-a") is None  # miss, not an exception
    assert fresh.misses == 1
    assert fresh.disk_corruptions == 1
    # The poison is quarantined: never re-read, slot reusable.
    assert not path.exists()
    assert (tmp_path / "kernel-a.pkl.corrupt").exists()

    # The slot is immediately storable and servable again.
    fresh.put("kernel-a", ("payload", "kernel-a"))
    rebuilt = KernelCompileCache(capacity=4, disk_dir=tmp_path)
    assert rebuilt.get("kernel-a") == ("payload", "kernel-a")
    assert rebuilt.disk_corruptions == 0


def test_truncated_real_pickle_degrades_to_miss(tmp_path):
    """A torn write of a genuine entry (prefix of a valid pickle)."""
    _store(tmp_path, "kernel-b", {"program": list(range(100))})
    path = tmp_path / "kernel-b.pkl"
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])

    fresh = KernelCompileCache(capacity=4, disk_dir=tmp_path)
    assert fresh.get("kernel-b") is None
    assert fresh.disk_corruptions == 1
    assert not path.exists()


def test_corruption_counter_only_counts_corrupt_files(tmp_path):
    cache = KernelCompileCache(capacity=4, disk_dir=tmp_path)
    assert cache.get("never-stored") is None  # plain miss: no file at all
    cache.put("good", 123)
    assert cache.get("good") == 123
    assert cache.disk_corruptions == 0


def test_a_changed_pipeline_source_byte_changes_the_salt(tmp_path):
    """The salt digests every source of the compiler pipeline: a copy of
    the sources digests the same, and one changed byte does not."""
    root = Path(cache_module.__file__).resolve().parent.parent
    for package in cache_module.PIPELINE_PACKAGES:
        shutil.copytree(root / package, tmp_path / package,
                        ignore=shutil.ignore_patterns("__pycache__"))
    live = cache_module.source_digest(root)
    assert cache_module.source_digest(tmp_path) == live
    assert cache_module.pipeline_salt() == f"{repro.__version__}:{live}"
    victim = tmp_path / "compiler" / "cache.py"
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 1
    victim.write_bytes(bytes(data))
    assert cache_module.source_digest(tmp_path) != live


def test_an_entry_from_another_pipeline_is_a_miss_never_an_error(tmp_path, monkeypatch):
    """An entry written under another salt — another version or other
    pipeline sources — or in the unsalted format of older trees is a plain
    miss (not a corruption), and the next store of the key replaces it."""
    monkeypatch.setattr(cache_module, "pipeline_salt", lambda: "1.14.0:older-sources")
    _store(tmp_path, "kernel-c", ("payload", "old"))
    with open(tmp_path / "kernel-d.pkl", "wb") as handle:
        pickle.dump(("payload", "unsalted"), handle)
    monkeypatch.undo()

    fresh = KernelCompileCache(capacity=4, disk_dir=tmp_path)
    assert fresh.get("kernel-c") is None and fresh.get("kernel-d") is None
    assert (fresh.misses, fresh.disk_corruptions) == (2, 0)
    fresh.put("kernel-c", ("payload", "new"))
    assert KernelCompileCache(capacity=4, disk_dir=tmp_path).get("kernel-c") == ("payload", "new")


def test_unreadable_pipeline_sources_degrade_to_a_miss(tmp_path, monkeypatch):
    """When the salt cannot be computed (a pipeline source is unreadable),
    a disk entry is a miss and a store is skipped, never an error."""
    _store(tmp_path, "kernel-e", ("payload", "kernel-e"))

    def unreadable(root):
        raise PermissionError("pipeline source unreadable")

    cache_module.pipeline_salt.cache_clear()
    monkeypatch.setattr(cache_module, "source_digest", unreadable)
    try:
        fresh = KernelCompileCache(capacity=4, disk_dir=tmp_path)
        assert fresh.get("kernel-e") is None
        assert (fresh.misses, fresh.disk_corruptions) == (1, 0)
        fresh.put("kernel-f", ("payload", "kernel-f"))
        assert not (tmp_path / "kernel-f.pkl").exists()
    finally:
        monkeypatch.undo()
        cache_module.pipeline_salt.cache_clear()
    assert KernelCompileCache(capacity=4, disk_dir=tmp_path).get("kernel-e") == (
        "payload", "kernel-e")


def test_in_memory_hit_ignores_corrupt_disk_entry(tmp_path):
    cache = KernelCompileCache(capacity=4, disk_dir=tmp_path)
    cache.put("hot", ("payload", "hot"))
    (tmp_path / "hot.pkl").write_bytes(b"garbage")
    # The in-memory LRU still holds the value; disk is never touched.
    assert cache.get("hot") == ("payload", "hot")
    assert cache.disk_corruptions == 0


def _hammer_process(disk_dir: str, worker: int, rounds: int, queue) -> None:
    """Worker: get/put a shared key set against one disk directory while
    entries keep getting corrupted underneath it."""
    try:
        cache = KernelCompileCache(capacity=4, disk_dir=disk_dir)
        keys = [f"shared-{i}" for i in range(6)]
        for round_no in range(rounds):
            for key in keys:
                value = cache.get(key)
                if value is None:
                    cache.put(key, ("payload", key))
                elif value != ("payload", key):
                    queue.put(f"worker {worker}: cross-talk on {key}: {value!r}")
                    return
            if worker == 0:
                # Saboteur: overwrite one entry with garbage mid-flight.
                victim = keys[round_no % len(keys)]
                try:
                    with open(os.path.join(disk_dir, f"{victim}.pkl"), "wb") as fh:
                        fh.write(b"\x80corrupt")
                except OSError:
                    pass
                cache.clear()  # force disk reads next round
        queue.put(None)
    except Exception as exc:  # pragma: no cover - only on regression
        queue.put(f"worker {worker}: {type(exc).__name__}: {exc}")


def test_cross_process_corruption_stress(tmp_path):
    """Several processes share one cache directory; a saboteur corrupts
    entries continuously.  No process may ever crash or observe a value
    that was not stored under the key it asked for."""
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    workers = [
        ctx.Process(target=_hammer_process, args=(str(tmp_path), i, 15, queue))
        for i in range(3)
    ]
    for proc in workers:
        proc.start()
    outcomes = [queue.get(timeout=120) for _ in workers]
    for proc in workers:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    errors = [outcome for outcome in outcomes if outcome is not None]
    assert not errors, errors

    # After the dust settles, a fresh cache reading every key sees either
    # the correct payload or a clean miss (the saboteur's last round may
    # leave a corrupt entry nobody re-read yet; loading it here must
    # quarantine it, never crash or serve a wrong value).
    sweep = KernelCompileCache(capacity=8, disk_dir=tmp_path)
    for i in range(6):
        value = sweep.get(f"shared-{i}")
        assert value in (None, ("payload", f"shared-{i}"))

    # The sweep quarantined any leftover poison, so every surviving .pkl
    # is now a valid pickle of its own key's payload, under this
    # pipeline's salt (atomic writes: no torn state).
    for path in tmp_path.glob("*.pkl"):
        with open(path, "rb") as fh:
            salt, payload = pickle.load(fh)
        assert (salt, payload) == (cache_module.pipeline_salt(), ("payload", path.stem))


def _constant_body(value: int) -> tuple[str, str]:
    prototype = "void kernel(double *restrict a0)"
    return f"#include <stdint.h>\n{prototype} {{ a0[0] = {value}.0; }}\n", prototype


def _hammer_c_objects(cache_dir: str, worker: int, rounds: int, queue) -> None:
    """Worker: load three new C bodies a round, the same three as its
    peers, from one object directory; worker 0 also garbles an object
    after each round, as a foreign or torn file would."""
    try:
        os.environ["REPRO_NATIVE_CACHE"] = cache_dir
        fallbacks = 0
        for round_no in range(rounds):
            for value in range(3 * round_no, 3 * round_no + 3):
                loaded = native.compile_and_load(*_constant_body(value))
                if loaded is None:  # the fold body would run: slow, not wrong
                    fallbacks += 1
                    continue
                ffi, lib = loaded
                out = np.zeros(1)
                lib.kernel(ffi.from_buffer("double[]", out))
                if out[0] != value:
                    queue.put(f"worker {worker}: body {value} computed {out[0]}")
                    return
            if worker == 0:
                # Replace, never write in place: a process that has the
                # object mapped would fault on a truncated page.
                objects = sorted(Path(cache_dir).glob("*.so"))
                if objects:
                    garbage = Path(cache_dir) / "saboteur.part"
                    garbage.write_bytes(b"\x7fELF garbage")
                    os.replace(garbage, objects[round_no % len(objects)])
        queue.put((fallbacks, native.native_store().corruptions))
    except Exception as exc:  # pragma: no cover - only on regression
        queue.put(f"worker {worker}: {type(exc).__name__}: {exc}")


def test_cross_process_corruption_stress_of_c_objects(tmp_path, monkeypatch):
    """The same storm on the host engine's C objects: three processes share
    one ``REPRO_NATIVE_CACHE`` while one of them garbles objects.  No
    process may crash or run a body other than the one it asked for, and
    afterwards every body loads from the directory."""
    if not native_available():
        pytest.skip("no C toolchain")
    rounds = 8
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    workers = [
        ctx.Process(target=_hammer_c_objects, args=(str(tmp_path), i, rounds, queue))
        for i in range(3)
    ]
    for proc in workers:
        proc.start()
    outcomes = [queue.get(timeout=300) for _ in workers]
    for proc in workers:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    errors = [outcome for outcome in outcomes if isinstance(outcome, str)]
    assert not errors, errors

    # A sweep from this process, which has loaded none of them, quarantines
    # what the saboteur left and rebuilds it.
    monkeypatch.setattr(native, "_loaded", {})
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    for value in range(3 * rounds):
        ffi, lib = native.compile_and_load(*_constant_body(value))
        out = np.zeros(1)
        lib.kernel(ffi.from_buffer("double[]", out))
        assert out[0] == value
    # Every garbled object was quarantined once, by a worker or the sweep.
    quarantined = sum(count for _, count in outcomes) + native.native_store().corruptions
    assert 1 <= quarantined <= rounds
    assert not list(tmp_path.glob("*.tmp")) and not list(tmp_path.glob("*.part"))


def test_an_install_removes_stale_temp_files_and_keeps_fresh_ones(tmp_path):
    """A writer killed mid-way (a gcc run, a pickle dump) leaves its temp
    file; the next install removes it once it is older than any live
    writer's, and leaves a younger one, which may still be written.  An
    old ``*.tmp`` file the store did not make is not its to remove: the
    directory may be one the user shares with other programs."""
    stale, fresh = tmp_path / f"{TMP_PREFIX}dead.tmp", tmp_path / f"{TMP_PREFIX}live.tmp"
    foreign = tmp_path / "tmpforeign.tmp"
    for path in (stale, fresh, foreign):
        path.write_bytes(b"half an object")
    old = os.path.getmtime(stale) - STALE_TMP_S - 60
    for path in (stale, foreign):
        os.utime(path, (old, old))
    with DiskStore(tmp_path).installing("entry") as tmp:
        assert os.path.basename(tmp).startswith(TMP_PREFIX)
        Path(tmp).write_bytes(b"whole")
    assert not stale.exists() and fresh.exists() and foreign.exists()
    assert (tmp_path / "entry").read_bytes() == b"whole"


def test_a_build_removes_objects_no_process_loaded_for_a_day(tmp_path, monkeypatch):
    """A build (a miss, which pays the compiler anyway) removes the store's
    objects, quarantined ones included, that no process has loaded for
    ``STALE_OBJECT_S``.  An object loaded since is kept, as is a fresh one
    and every file the store did not name; a body this process loaded
    before its file went keeps running."""
    if not native_available():
        pytest.skip("no C toolchain")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.setattr(native, "_loaded", {})

    def build(value):
        before = set(tmp_path.glob("*.so"))
        loaded = native.compile_and_load(*_constant_body(value))
        (path,) = set(tmp_path.glob("*.so")) - before
        return loaded, path

    running, removed = build(1)
    _, reloaded = build(2)
    _, fresh = build(3)
    quarantined = tmp_path / f"{'a' * 64}.so.corrupt"
    foreign = [tmp_path / "libforeign.so", tmp_path / f"{'b' * 64}.pkl"]
    for path in (quarantined, *foreign):
        path.write_bytes(b"old")
    old = os.path.getmtime(fresh) - native.STALE_OBJECT_S - 60
    for path in (removed, reloaded, quarantined, *foreign):
        os.utime(path, (old, old))

    monkeypatch.setattr(native, "_loaded", {})  # a new process
    assert native.compile_and_load(*_constant_body(2)) is not None  # a load
    build(4)  # a miss: the build prunes
    assert not removed.exists() and not quarantined.exists()
    assert reloaded.exists() and fresh.exists()
    assert all(path.exists() for path in foreign) and (tmp_path / ".lock").exists()
    ffi, lib = running
    out = np.zeros(1)
    lib.kernel(ffi.from_buffer("double[]", out))
    assert out[0] == 1
