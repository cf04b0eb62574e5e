"""The compiler's memoized compile fingerprint.

``TdoCimCompiler`` memoizes :func:`compile_fingerprint` of mini-C sources
per (source text, size hint) under the current state of its options.  The
contract: a memoized key is always the string a fresh call returns — after
any option mutation, including an in-place edit of a list field and a
value replaced by an equal one of another type — the table stays bounded,
and the compile cache is still asked on every compile.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.cache import KernelCompileCache, compile_fingerprint
from repro.compiler.driver import TdoCimCompiler, _FingerprintMemo
from repro.compiler.options import CompileOptions
from repro.compiler.passes.pipelines import NAMED_PIPELINES, PASS_REGISTRY
from repro.gateway.loadgen import GEMV_SOURCE
from repro.ir.engine import ENGINE_MODES

PASSES = sorted(PASS_REGISTRY)
SIZES = st.one_of(st.integers(1, 512), st.floats(1.0, 512.0))


def _listish(items: st.SearchStrategy) -> st.SearchStrategy:
    """A sequence option as a tuple or as a (mutable) list."""
    return st.one_of(items.map(tuple), items.map(list))


#: Values every option field may be set to (unvalidated: the fingerprint
#: reads whatever the field holds).
FIELD_VALUES = {
    "enable_offload": st.booleans(),
    "offload_kinds": _listish(st.lists(st.sampled_from(["gemm", "gemv", "conv2d"]), unique=True)),
    "enable_fusion": st.booleans(),
    "fusion_requires_shared_input": st.booleans(),
    "enable_tiling": st.booleans(),
    "crossbar_rows": SIZES,
    "crossbar_cols": SIZES,
    "min_macs_per_write": st.one_of(st.none(), st.floats(allow_nan=True), st.integers(0, 64)),
    "enable_compile_cache": st.booleans(),
    "engine": st.sampled_from(ENGINE_MODES),
    "pipeline": st.one_of(
        st.sampled_from(sorted(NAMED_PIPELINES)), _listish(st.lists(st.sampled_from(PASSES)))
    ),
    "offload_policy": st.sampled_from(["threshold", "always", "never"]),
    "dump_ir_after": _listish(st.lists(st.sampled_from(PASSES), max_size=3)),
}
LIST_FIELDS = ("offload_kinds", "pipeline", "dump_ir_after")

SOURCES = st.sampled_from([GEMV_SOURCE, "void f() {}", "int x;", GEMV_SOURCE + " "])
HINTS = st.dictionaries(
    st.sampled_from(["M", "N", "K"]),
    st.one_of(st.integers(-4, 4), st.floats(allow_nan=True, allow_infinity=True)),
    max_size=3,
)

MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(sorted(FIELD_VALUES))).flatmap(
        lambda pair: st.tuples(st.just(pair[0]), st.just(pair[1]), FIELD_VALUES[pair[1]])
    ),
    st.tuples(st.just("retype"), st.sampled_from(["crossbar_rows", "crossbar_cols", *LIST_FIELDS])),
    st.tuples(st.just("append"), st.sampled_from(LIST_FIELDS), st.sampled_from(PASSES)),
    st.tuples(st.just("pop"), st.sampled_from(LIST_FIELDS)),
    st.tuples(st.just("replace")),
)


def _mutate(compiler: TdoCimCompiler, mutation: tuple) -> None:
    options = compiler.options
    kind = mutation[0]
    if kind == "set":
        setattr(options, mutation[1], mutation[2])
    elif kind == "retype":
        # An equal value of another type: 256 <-> 256.0, tuple <-> list.
        value = getattr(options, mutation[1])
        if isinstance(value, bool):
            return
        if isinstance(value, float) and value.is_integer():
            setattr(options, mutation[1], int(value))
        elif isinstance(value, int):
            setattr(options, mutation[1], float(value))
        elif isinstance(value, tuple):
            setattr(options, mutation[1], list(value))
        elif isinstance(value, list):
            setattr(options, mutation[1], tuple(value))
    elif kind == "append":
        value = getattr(options, mutation[1])
        if isinstance(value, list):
            value.append(mutation[2])  # in place: the field keeps its object
    elif kind == "pop":
        value = getattr(options, mutation[1])
        if isinstance(value, list) and value:
            value.pop()
    elif kind == "replace":
        compiler.options = CompileOptions()


def _options_with_lists() -> CompileOptions:
    options = CompileOptions()
    options.dump_ir_after = ["parse"]
    return options


@settings(max_examples=80, deadline=None)
@given(
    lookups=st.lists(st.tuples(SOURCES, HINTS), min_size=1, max_size=4),
    mutations=st.lists(MUTATIONS, min_size=1, max_size=10),
)
def test_the_memoized_key_is_always_a_fresh_fingerprint(lookups, mutations):
    """After every mutation, every lookup — a hit where nothing relevant
    moved — returns what a fresh ``compile_fingerprint`` call returns, and
    the table never holds more than its capacity."""
    compiler = TdoCimCompiler(_options_with_lists(), cache=KernelCompileCache())
    memo = compiler._fingerprints = _FingerprintMemo(capacity=3)

    def check() -> None:
        for source, hint in lookups:
            for _ in range(2):  # the second lookup is a hit
                key = memo.fingerprint(source, compiler.options, hint)
                assert key == compile_fingerprint(source, compiler.options, hint)
            assert len(memo) <= 3

    check()
    for mutation in mutations:
        _mutate(compiler, mutation)
        check()


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda o: setattr(o, "crossbar_rows", 256.0), id="int-to-equal-float"),
        pytest.param(lambda o: setattr(o, "offload_kinds", list(o.offload_kinds)),
                     id="tuple-to-equal-list"),
        pytest.param(lambda o: o.dump_ir_after.append("lower"), id="in-place-list-append"),
        pytest.param(lambda o: o.dump_ir_after.__setitem__(0, "lower"), id="in-place-list-set"),
        pytest.param(lambda o: setattr(o, "min_macs_per_write", -0.0), id="none-to-zero"),
    ],
)
def test_every_option_mutation_moves_the_key(mutate):
    compiler = TdoCimCompiler(_options_with_lists(), cache=KernelCompileCache())
    memo = compiler._fingerprints
    hint = {"M": 16, "N": 16}
    before = memo.fingerprint(GEMV_SOURCE, compiler.options, hint)
    mutate(compiler.options)
    after = memo.fingerprint(GEMV_SOURCE, compiler.options, hint)
    assert after != before
    assert after == compile_fingerprint(GEMV_SOURCE, compiler.options, hint)


def test_a_hint_enters_the_key_as_the_fingerprint_reads_it():
    """``float(value)``: 16 and 16.0 share a key; 0.0 and -0.0 do not."""
    memo = _FingerprintMemo()
    options = CompileOptions()
    assert memo.fingerprint("s", options, {"M": 16}) == memo.fingerprint("s", options, {"M": 16.0})
    zero = memo.fingerprint("s", options, {"M": 0.0})
    assert zero != memo.fingerprint("s", options, {"M": -0.0})
    assert zero == compile_fingerprint("s", options, {"M": 0.0})
    nan = memo.fingerprint("s", options, {"M": math.nan})
    assert nan == compile_fingerprint("s", options, {"M": float("nan")})


def test_a_hit_hashes_nothing(monkeypatch):
    import repro.compiler.driver as driver

    calls = []
    real = driver.compile_fingerprint
    monkeypatch.setattr(driver, "compile_fingerprint", lambda *a: calls.append(a) or real(*a))
    memo = _FingerprintMemo()
    options = CompileOptions()
    for _ in range(5):
        memo.fingerprint(GEMV_SOURCE, options, {"M": 8, "N": 8})
    assert len(calls) == 1


def test_the_table_is_bounded_and_least_recent_goes_first():
    memo = _FingerprintMemo(capacity=2)
    options = CompileOptions()
    for source in ("a", "b", "a", "c"):
        memo.fingerprint(source, options, None)
    assert len(memo) == 2
    assert [key[0] for key in memo._keys] == ["a", "c"]


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
