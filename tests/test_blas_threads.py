"""One BLAS thread in the processes the package starts: the ``repro``
command pins it at import, before NumPy loads, and every gateway pool
worker is started with it in its environment.  A value the user set is
kept, and a plain library import changes nothing."""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.gateway.server as gateway_server
from repro.blas_threads import (
    BLAS_THREAD_VARIABLES,
    pin_blas_threads,
    pinned_blas_threads,
    started_as_cli,
)
from repro.gateway import AsyncGateway, GatewayConfig

SRC = Path(__file__).resolve().parent.parent / "src"

#: Where the stand-in worker writes what it saw.
PROBE = "REPRO_TEST_BLAS_PROBE"


def _report_blas_env(worker_id, config, pipe) -> None:
    """Stands in for ``worker_main``: records the worker's environment."""
    with open(os.environ[PROBE], "w") as handle:
        handle.write(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))


def _launch_one_worker(method: str) -> int:
    async def launch() -> int:
        gateway = AsyncGateway(GatewayConfig(num_workers=1, start_method=method))
        process, pipe = gateway.launch(0)
        process.join(60)
        pipe.close()
        return process.exitcode

    return asyncio.run(launch())


@pytest.mark.parametrize(
    "method, preset", [("fork", None), ("fork", "3"), ("spawn", None)]
)
def test_a_spawned_worker_sees_one_blas_thread(monkeypatch, tmp_path, method, preset):
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    probe = tmp_path / "blas"
    monkeypatch.setenv(PROBE, str(probe))
    monkeypatch.setattr(gateway_server, "worker_main", _report_blas_env)
    assert _launch_one_worker(method) == 0
    assert probe.read_text() == (preset or "1")
    # The gateway's own environment is left as it was.
    assert os.environ.get("OPENBLAS_NUM_THREADS") == preset


def test_pinning_keeps_what_the_user_set():
    environ = {"OMP_NUM_THREADS": "4"}
    assert pin_blas_threads(environ) == ["OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"]
    assert environ == {"OMP_NUM_THREADS": "4", "OPENBLAS_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"}
    assert pin_blas_threads(environ) == []


def test_the_pinned_environment_is_restored(monkeypatch):
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    with pinned_blas_threads():
        assert [os.environ[name] for name in BLAS_THREAD_VARIABLES] == ["1", "1", "2"]
    assert [os.environ.get(name) for name in BLAS_THREAD_VARIABLES] == [None, None, "2"]


@pytest.mark.parametrize(
    "argv, orig_argv, expected",
    [
        (["/usr/local/bin/repro", "replay"], ["python3", "/usr/local/bin/repro", "replay"], True),
        (["-m", "replay"], ["python3", "-m", "repro.cli", "replay"], True),
        (["-m", "-q"], ["python3", "-m", "pytest", "-q"], False),
        (["run.py"], ["python3", "run.py"], False),
        (["-c"], ["python3", "-c", "import repro"], False),
    ],
)
def test_started_as_cli(argv, orig_argv, expected):
    assert started_as_cli(argv, orig_argv) is expected


@pytest.mark.parametrize("argv0, expected", [("/usr/local/bin/repro", "1"), ("app.py", "unset")])
def test_importing_the_package_pins_only_the_command(argv0, expected):
    """The package pins at import, before NumPy loads, only when the
    process is the ``repro`` command."""
    code = (
        "import sys; sys.argv = [%r]; import repro, os; "
        "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))" % argv0
    )
    environ = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    environ["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=environ, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == expected
