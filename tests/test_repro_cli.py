"""Tests for the ``repro`` CLI (PR 7 tentpole surface).

Drives :func:`repro.cli.main` in-process with explicit argv — the same
code path as the installed ``repro`` console script and the
``python -m repro.cli`` form CI uses.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

import repro.cli
from repro.cli import main, repo_root
from repro.trace import load_trace


# ----------------------------------------------------------------------
# repro serve / replay / diff — the record/replay loop end to end
# ----------------------------------------------------------------------
def test_serve_records_a_loadable_trace(tmp_path, capsys):
    path = tmp_path / "serve.jsonl"
    assert main(["serve", "--scenario", "serve_multitenant", "--record", str(path)]) == 0
    out = capsys.readouterr().out
    assert "tenant bills:" in out
    assert "device bills:" in out
    trace = load_trace(path)
    assert trace.kind == "serve"
    assert trace.submissions()


def test_replay_of_recorded_trace_passes(tmp_path, capsys):
    path = tmp_path / "fleet.jsonl"
    assert main(["serve", "--scenario", "fleet_faultstorm", "--record", str(path)]) == 0
    capsys.readouterr()
    assert main(["replay", str(path)]) == 0
    assert "matches the recording" in capsys.readouterr().out
    assert main(["replay", str(path), "--diff"]) == 0
    assert "identical" in capsys.readouterr().out


def test_replay_save_roundtrips(tmp_path, capsys):
    recorded = tmp_path / "a.jsonl"
    replayed = tmp_path / "b.jsonl"
    assert main(["serve", "--record", str(recorded)]) == 0
    assert main(["replay", str(recorded), "--save", str(replayed)]) == 0
    capsys.readouterr()
    assert main(["diff", str(recorded), str(replayed)]) == 0
    assert "identical" in capsys.readouterr().out


def test_diff_detects_a_mismatch(tmp_path, capsys):
    left = tmp_path / "left.jsonl"
    right = tmp_path / "right.jsonl"
    assert main(["serve", "--record", str(left)]) == 0
    # Different seed -> different payloads and bills.
    assert main(["serve", "--seed", "7", "--record", str(right)]) == 0
    capsys.readouterr()
    assert main(["diff", str(left), str(right)]) == 1
    assert "traces differ" in capsys.readouterr().out


def test_replay_rejects_bad_trace_with_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"event":"header","schema_version":99,"kind":"serve","config":{}}\n')
    assert main(["replay", str(path)]) == 2
    assert "unsupported schema_version" in capsys.readouterr().err


def test_replay_rejects_truncated_trace_with_exit_2(tmp_path, capsys):
    source = tmp_path / "full.jsonl"
    assert main(["serve", "--record", str(source)]) == 0
    text = source.read_text()
    truncated = tmp_path / "cut.jsonl"
    truncated.write_text(text[: len(text) // 2])
    capsys.readouterr()
    assert main(["replay", str(truncated)]) == 2
    assert "bad trace" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro run
# ----------------------------------------------------------------------
def test_run_lists_kernels(capsys):
    assert main(["run", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "gemm" in names and "atax" in names


def test_run_evaluates_a_kernel(capsys):
    assert main(["run", "gemm", "--dataset", "MINI", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "energy improvement" in out
    assert "results match the NumPy reference" in out


def test_run_unknown_kernel_is_usage_error(capsys):
    assert main(["run", "warpcore", "--dataset", "MINI"]) == 2
    assert "warpcore" in capsys.readouterr().err


def test_run_without_kernel_is_usage_error(capsys):
    assert main(["run"]) == 2


# ----------------------------------------------------------------------
# repro bench — a front for benchmarks/suite/run.py, nothing of its own
# ----------------------------------------------------------------------
def test_bench_forwards_its_arguments_to_the_suite(monkeypatch):
    """Everything after `bench` reaches benchmarks/suite/run.py verbatim
    and its exit code comes back (subprocess.run is patched: tier-1 must
    not run the suite; CI runs `--selftest`).  Other subcommands keep
    strict argument rejection."""
    calls = []

    def fake_run(command, **kwargs):
        calls.append((command, kwargs))
        return subprocess.CompletedProcess(command, 7)

    monkeypatch.setattr(repro.cli.subprocess, "run", fake_run)
    suite_args = ["--compare", "a.json", "b.json", "--seed", "3"]
    assert main(["bench", *suite_args]) == 7
    script = repo_root() / "benchmarks" / "suite" / "run.py"
    assert calls == [([sys.executable, str(script), *suite_args], {"cwd": repo_root()})]

    with pytest.raises(SystemExit) as exc:
        main(["diff", "a.jsonl", "b.jsonl", "--warp-drive"])
    assert exc.value.code == 2


def test_bench_without_a_checkout_exits_2(monkeypatch, tmp_path, capsys):
    """An installed package has no benchmarks/ beside it."""
    monkeypatch.setattr(repro.cli, "repo_root", lambda: tmp_path)
    assert main(["bench", "--selftest"]) == 2
    assert "benchmarks/suite/run.py not found" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def test_console_script_is_declared_in_setup():
    setup_py = (repo_root() / "setup.py").read_text()
    assert "repro=repro.cli:main" in setup_py


def test_module_is_runnable_as_dash_m():
    assert callable(repro.cli.main)
    with pytest.raises(SystemExit):
        main(["--help"])  # argparse exits 0 on --help
