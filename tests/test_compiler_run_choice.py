"""How a compiled program runs is chosen in one place.

The host engine is picked by ``OffloadExecutor(engine=...)`` and nowhere
else: not by :class:`~repro.compiler.options.CompileOptions`, not per
``run()`` call and not per serving request.  These tests pin that the
engine left the compile options without moving a byte: compile
fingerprints (and so batch signatures and lease labels) and the
``compile_options`` text of a trace header are the ones recorded while
the field existed.  They also pin that ``run()``, ``submit()`` and
``serve_alone()`` take a program, not a compilation result.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from repro.codegen.executor import OffloadExecutor
from repro.compiler import CompileOptions, compile_fingerprint, compile_source
from repro.gateway.loadgen import GEMV_SOURCE
from repro.serve.server import CimServer, ServerConfig
from repro.trace.schema import (
    TraceFormatError,
    decode_compile_options,
    encode_compile_options,
)

HEADER = Path(__file__).parent / "traces" / "serve_multitenant.jsonl"
PARAMS = {"M": 16, "N": 16}

#: Digests recorded while ``CompileOptions`` still had its ``engine`` field.
FINGERPRINTS = [
    (CompileOptions(), "ec7671bde701e714027c4dbf57da4bedf2c606b27f268b529f532a5c6be8da41"),
    (CompileOptions.host_only(),
     "1fce94d5c363f8c63d3f733194b0be95e8634506d0bc5cf590d180b137c87e2c"),
    (CompileOptions(enable_tiling=True),
     "527b63732edad7475a52d6124fc49992739566ade648b738785b217c6c49feb9"),
    (CompileOptions(pipeline="no-fusion"),
     "358ad8df81839155866eafade099dde0a852a6b58d250369817f728d780c3aef"),
    (CompileOptions(min_macs_per_write=32),
     "f8ae9fcd9b9b4a450ebe308faad7c7001656b55445832aa76eed2904f6548e0f"),
]


@pytest.mark.parametrize("options, digest", FINGERPRINTS)
def test_fingerprints_did_not_move(options, digest):
    assert compile_fingerprint(GEMV_SOURCE, options, PARAMS) == digest


def test_encoded_options_equal_the_recorded_header_text():
    line = HEADER.read_text().splitlines(keepends=True)[0]
    tail = line[line.index('"compile_options":'):]
    encoded = json.dumps(encode_compile_options(CompileOptions()), separators=(",", ":"))
    assert tail == f'"compile_options":{encoded}}}}}\n'


def test_decoder_refuses_another_engine_and_accepts_none():
    encoded = encode_compile_options(CompileOptions())
    with pytest.raises(TraceFormatError, match="bad compile options .*'interpreter'"):
        decode_compile_options({**encoded, "engine": "interpreter"})
    del encoded["engine"]
    assert decode_compile_options(encoded) == CompileOptions()


def test_the_executor_is_the_one_place_that_picks_the_engine():
    assert list(inspect.signature(OffloadExecutor).parameters) == ["system", "engine"]
    assert list(inspect.signature(OffloadExecutor.run).parameters) == [
        "self", "program", "params", "arrays", "reset_stats",
    ]
    assert OffloadExecutor().engine == "fast"
    assert OffloadExecutor(engine="interpreter").engine == "interpreter"


def test_a_compilation_result_is_refused():
    result = compile_source(GEMV_SOURCE, size_hint=PARAMS)
    arrays = {
        "A": np.ones((16, 16), dtype=np.float32),
        "x": np.ones(16, dtype=np.float32),
        "y": np.zeros(16, dtype=np.float32),
    }
    executor = OffloadExecutor()
    with pytest.raises(TypeError, match=r"\.program"):
        executor.run(result, PARAMS, arrays)
    with CimServer(ServerConfig(batch_window_s=0.0)) as server:
        with pytest.raises(TypeError, match=r"\.program"):
            server.submit("alice", result, PARAMS, arrays)
        with pytest.raises(TypeError, match=r"\.program"):
            server.serve_alone("alice", result, PARAMS, arrays)
        # The program itself is served.
        handle = server.serve_alone("alice", result.program, PARAMS, arrays)
    np.testing.assert_array_equal(handle.result()["y"], np.full(16, 16.0, dtype=np.float32))
