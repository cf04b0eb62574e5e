"""How a compiled program runs is chosen in one place.

The host engine is picked by ``OffloadExecutor(engine=...)`` and nowhere
else: not by :class:`~repro.compiler.options.CompileOptions`, not per
``run()`` call and not per serving request.  These tests pin the compile
fingerprints (and so batch signatures and lease labels) and the
``compile_options`` text of a trace header, which no longer carries an
engine (a recorded header that does still reads).  They also pin that
``run()``, ``submit()`` and ``serve_alone()`` take a program, not a
compilation result.
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

#: Compile fingerprints, pinned: a change that moves one moves every batch
#: signature and lease label derived from it.
FINGERPRINTS = [
    (CompileOptions(), "cccf6ebba5605d619518fa9c1e09726e7b8a2478dec5d1eba94fa4dca5c03024"),
    (CompileOptions.host_only(),
     "05c2e21c090a5669e990597223991acb662e34bf18fb85c539c382fdb4875d02"),
    (CompileOptions(enable_tiling=True),
     "b86ac18f19cfd5175c267cc15f406803370972fb8f2526c65c2919222caf78c9"),
    (CompileOptions(pipeline="no-fusion"),
     "911cd7ad95bb58aa6631f01101d4835989b400551c3e5088bc112086a49390ee"),
    (CompileOptions(min_macs_per_write=32),
     "611a7dc7e86b77e6d7e8efaf6526d1970487f3b98bfa7954a966393c3acc0eab"),
]


@pytest.mark.parametrize(
    "options, digest", FINGERPRINTS,
    ids=["default", "host-only", "tiling", "no-fusion", "min-macs-32"],
)
def test_fingerprints_did_not_move(options, digest):
    assert compile_fingerprint(GEMV_SOURCE, options, PARAMS) == digest


def test_encoded_options_equal_the_recorded_header_text():
    line = HEADER.read_text().splitlines(keepends=True)[0]
    tail = line[line.index('"compile_options":'):]
    encoded = json.dumps(encode_compile_options(CompileOptions()), separators=(",", ":"))
    assert tail == f'"compile_options":{encoded}}}}}\n'


def test_decoder_refuses_another_engine_and_accepts_none():
    encoded = encode_compile_options(CompileOptions())
    assert "engine" not in encoded
    with pytest.raises(TraceFormatError, match="bad compile options .*'interpreter'"):
        decode_compile_options({**encoded, "engine": "interpreter"})
    assert decode_compile_options({**encoded, "engine": "fast"}) == CompileOptions()
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
