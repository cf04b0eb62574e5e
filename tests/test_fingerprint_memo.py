"""The compiler's memoized compile fingerprint.

``CompileOptions`` is frozen and ``TdoCimCompiler.options`` is read-only,
so the options of one compiler never change and its memo is a plain
bounded table from (source text, size hint) to fingerprint.  The contract:
a memoized key is always the string a fresh ``compile_fingerprint`` call
returns, the table stays bounded, and the compile cache is still asked on
every compile.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.cache import KernelCompileCache, compile_fingerprint
from repro.compiler.driver import TdoCimCompiler
from repro.compiler.options import CompileOptions
from repro.compiler.passes.pipelines import NAMED_PIPELINES, PASS_REGISTRY
from repro.gateway.loadgen import GEMV_SOURCE

PASSES = sorted(PASS_REGISTRY)
SEQUENCE_FIELDS = ("offload_kinds", "dump_ir_after")


def _listish(items: st.SearchStrategy) -> st.SearchStrategy:
    """A sequence option as a tuple or as a list."""
    return st.one_of(items.map(tuple), items.map(list))


#: Valid values of every option field.
OPTIONS = st.builds(
    CompileOptions,
    offload_kinds=_listish(st.lists(st.sampled_from(["gemm", "gemv", "conv2d"]), unique=True)),
    fusion_requires_shared_input=st.booleans(),
    enable_tiling=st.booleans(),
    crossbar_rows=st.integers(1, 512),
    crossbar_cols=st.integers(1, 512),
    min_macs_per_write=st.one_of(
        st.none(), st.floats(0.0, allow_nan=False), st.integers(0, 64)
    ),
    enable_compile_cache=st.booleans(),
    pipeline=st.sampled_from(sorted(NAMED_PIPELINES)),
    offload_policy=st.sampled_from(["threshold", "always", "never"]),
    dump_ir_after=_listish(st.lists(st.sampled_from(PASSES), max_size=3)),
)

SOURCES = st.sampled_from([GEMV_SOURCE, "void f() {}", "int x;", GEMV_SOURCE + " "])
HINTS = st.dictionaries(
    st.sampled_from(["M", "N", "K"]),
    st.one_of(st.integers(-4, 4), st.floats(allow_nan=True, allow_infinity=True)),
    max_size=3,
)


@settings(max_examples=80, deadline=None)
@given(options=OPTIONS, lookups=st.lists(st.tuples(SOURCES, HINTS), min_size=1, max_size=6))
def test_the_memoized_key_is_always_a_fresh_fingerprint(options, lookups):
    """Every lookup — the second one a hit — returns what a fresh
    ``compile_fingerprint`` call returns, and the table never holds more
    than its capacity."""
    import repro.compiler.driver as driver

    compiler = TdoCimCompiler(options, cache=KernelCompileCache())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "FINGERPRINT_MEMO_CAPACITY", 3)
        for source, hint in lookups:
            for _ in range(2):
                key = compiler._fingerprint(source, hint)
                assert key == compile_fingerprint(source, options, hint)
            assert len(compiler._fingerprints) <= 3


def test_no_option_can_be_set():
    options = CompileOptions()
    for field in dataclasses.fields(CompileOptions):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(options, field.name, getattr(options, field.name))


def test_a_compilers_options_cannot_be_reassigned():
    compiler = TdoCimCompiler(CompileOptions(), cache=KernelCompileCache())
    with pytest.raises(AttributeError):
        compiler.options = CompileOptions(pipeline="no-fusion")


@pytest.mark.parametrize("name", SEQUENCE_FIELDS)
def test_a_list_is_stored_as_a_tuple_with_the_tuples_fingerprint(name):
    values = {"offload_kinds": ["gemm"], "dump_ir_after": ["parse"]}
    from_list = CompileOptions(**{name: values[name]})
    from_tuple = CompileOptions(**{name: tuple(values[name])})
    assert getattr(from_list, name) == tuple(values[name])
    assert type(getattr(from_list, name)) is tuple
    assert from_list == from_tuple
    hint = {"M": 16, "N": 16}
    assert compile_fingerprint(GEMV_SOURCE, from_list, hint) == compile_fingerprint(
        GEMV_SOURCE, from_tuple, hint
    )


def test_a_hint_enters_the_key_as_the_fingerprint_reads_it():
    """``float(value)``: 16 and 16.0 share a key; 0.0 and -0.0 do not."""
    compiler = TdoCimCompiler(CompileOptions(), cache=KernelCompileCache())
    fingerprint = compiler._fingerprint
    options = compiler.options
    assert fingerprint("s", {"M": 16}) == fingerprint("s", {"M": 16.0})
    zero = fingerprint("s", {"M": 0.0})
    assert zero != fingerprint("s", {"M": -0.0})
    assert zero == compile_fingerprint("s", options, {"M": 0.0})
    nan = fingerprint("s", {"M": math.nan})
    assert nan == compile_fingerprint("s", options, {"M": float("nan")})


def test_a_hit_hashes_nothing(monkeypatch):
    import repro.compiler.driver as driver

    calls = []
    real = driver.compile_fingerprint
    monkeypatch.setattr(driver, "compile_fingerprint", lambda *a: calls.append(a) or real(*a))
    compiler = TdoCimCompiler(CompileOptions(), cache=KernelCompileCache())
    for _ in range(5):
        compiler._fingerprint(GEMV_SOURCE, {"M": 8, "N": 8})
    assert len(calls) == 1


def test_the_table_is_bounded_and_least_recent_goes_first(monkeypatch):
    import repro.compiler.driver as driver

    monkeypatch.setattr(driver, "FINGERPRINT_MEMO_CAPACITY", 2)
    compiler = TdoCimCompiler(CompileOptions(), cache=KernelCompileCache())
    for source in ("a", "b", "a", "c"):
        compiler._fingerprint(source, None)
    assert len(compiler._fingerprints) == 2
    assert [key[0] for key in compiler._fingerprints] == ["a", "c"]


class _CountingCache(KernelCompileCache):
    def __init__(self):
        super().__init__()
        self.gets = 0

    def get(self, key):
        self.gets += 1
        return super().get(key)


def test_the_cache_is_asked_on_every_compile():
    cache = _CountingCache()
    compiler = TdoCimCompiler(cache=cache)
    hint = {"M": 8, "N": 8}
    first = compiler.compile(GEMV_SOURCE, size_hint=hint)
    assert compiler.compile(GEMV_SOURCE, size_hint=hint) is first
    assert compiler.compile(GEMV_SOURCE, size_hint=hint) is first
    assert (cache.gets, cache.hits, cache.misses) == (3, 2, 1)
    # An emptied cache is a miss again: the memo keeps keys, never results.
    cache.clear()
    again = compiler.compile(GEMV_SOURCE, size_hint=hint)
    assert again is not first and again.cache_key == first.cache_key
    assert (cache.gets, cache.hits, cache.misses) == (4, 0, 1)


def test_program_sources_are_hashed_every_time(monkeypatch):
    import repro.compiler.driver as driver

    program = TdoCimCompiler(cache=KernelCompileCache()).compile(GEMV_SOURCE).program
    calls = []
    real = driver.compile_fingerprint
    monkeypatch.setattr(driver, "compile_fingerprint", lambda *a: calls.append(a) or real(*a))
    compiler = TdoCimCompiler(cache=KernelCompileCache())
    compiler.compile(program)
    compiler.compile(program)
    assert len(calls) == 2
