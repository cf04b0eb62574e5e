"""How a compiled program runs is chosen in one place.

The host engine is picked by ``OffloadExecutor(engine=...)`` and nowhere
else: not by :class:`~repro.compiler.options.CompileOptions`, not per
``run()`` call and not per serving request.  These tests pin the compile
fingerprints (and so batch signatures and lease labels) and the
``compile_options`` text of a trace header, which no longer carries an
engine, ``enable_offload`` or ``enable_fusion`` (a recorded header that
does still reads).  They also pin that
``run()``, ``submit()`` and ``serve_alone()`` take a program, not a
compilation result.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import re
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
    decode_server_config,
    encode_compile_options,
    encode_server_config,
    load_trace,
    loads_trace,
)

TRACES = Path(__file__).parent / "traces"
HEADER = TRACES / "serve_multitenant.jsonl"
PARAMS = {"M": 16, "N": 16}

#: Compile fingerprints, pinned: a change that moves one moves every batch
#: signature and lease label derived from it.
FINGERPRINTS = [
    (CompileOptions(), "c755f444fca0d34d82d7a3faf0b2e214f933468026f3fd505d8840878f8b9ec3"),
    (CompileOptions.host_only(),
     "623d9213b4d238e7d31d4f6840c5600f6f52ec58850a76fb00b1633171febfb3"),
    (CompileOptions(enable_tiling=True),
     "00a80f070e6e6e7f2c6c1b94eaec0e66419fa5288f7c2e6a42aa3d846bc54938"),
    (CompileOptions(pipeline="no-fusion"),
     "0d7b0dae6e03d4007f01bba3003037c74056a1d5d3d6e3fab8a0dfb10049cebc"),
    (CompileOptions(min_macs_per_write=32),
     "e87843d841afa5d6c89d5272c02a65aa8d26d2f12965d11d34513bb4ce2edf5b"),
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


#: sha256 of each trace fixture's header line as it was recorded while
#: ``enable_offload`` and ``enable_fusion`` were compile options.
RETIRED_OPTION_HEADERS = {
    "serve_multitenant": "354aa213d31690539013952051404471200aed17375b4b449fc6ee179ce5759d",
    "fleet_faultstorm": "41af1b147e3f350becae61987bfa1a498d4e98c7a6adee84de6ecbe167b77355",
}


@pytest.mark.parametrize("name", sorted(RETIRED_OPTION_HEADERS))
def test_a_header_with_the_retired_options_still_loads(name):
    path = TRACES / f"{name}.jsonl"
    header, body = path.read_text().split("\n", 1)
    old = header.replace(
        '"compile_options":{', '"compile_options":{"enable_offload":true,', 1
    ).replace('"conv2d"],', '"conv2d"],"enable_fusion":true,', 1)
    assert hashlib.sha256(f"{old}\n".encode()).hexdigest() == RETIRED_OPTION_HEADERS[name]
    recorded, current = loads_trace(f"{old}\n{body}"), load_trace(path)
    decoded = decode_server_config(recorded.header["kind"], recorded.config)
    assert encode_server_config(decoded) == current.config


@pytest.mark.parametrize(
    "key, value, replacement",
    [
        ("enable_offload", False, 'offload_policy="never"'),
        ("enable_offload", 1, 'offload_policy="never"'),
        ("enable_fusion", False, 'pipeline="no-fusion"'),
    ],
)
def test_a_retired_option_off_its_default_names_its_replacement(key, value, replacement):
    encoded = encode_compile_options(CompileOptions())
    assert key not in encoded
    assert decode_compile_options({**encoded, key: True}) == CompileOptions()
    with pytest.raises(TraceFormatError, match=f"{key} {value!r} is retired; use "
                       + re.escape(replacement)):
        decode_compile_options({**encoded, key: value})
