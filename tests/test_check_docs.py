"""``tools/check_docs.py``: the tree passes, and each seeded defect fails."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_on(check_docs, monkeypatch, tmp_path, text: str) -> int:
    doc = tmp_path / "seeded.md"
    doc.write_text(text)
    monkeypatch.setattr(check_docs, "iter_doc_files", lambda: [doc])
    return check_docs.main()


def test_the_tree_passes(check_docs):
    assert check_docs.main() == 0


def test_an_engine_marked_default_must_be_the_default_engine(
    check_docs, monkeypatch, tmp_path, capsys
):
    modes, default = check_docs.engine_names()
    other = next(name for name in modes if name != default)
    assert run_on(check_docs, monkeypatch, tmp_path, f"* **`{default}`** (default)\n") == 0
    assert run_on(check_docs, monkeypatch, tmp_path, f"* **`{other}`** (default)\n") == 1
    assert f"seeded.md:1: engine `{other}` marked (default)" in capsys.readouterr().err


def test_a_repo_path_in_code_must_exist(check_docs, monkeypatch, tmp_path, capsys):
    good = (
        "See `tools/check_docs.py`, `tests/test_eval.py::test_edp`, "
        "`tests/traces/*.jsonl`, `BENCHMARK.json` and `--output report.json`.\n"
        "```bash\npython3 benchmarks/suite/run.py --selftest\n```\n"
    )
    assert run_on(check_docs, monkeypatch, tmp_path, good) == 0
    bad = (
        "Gated by `python tools/no_such_tool.py --check` on `NO_SUCH_*.json`.\n"
        "```bash\npython benchmarks/no_such_bench.py\n```\n"
    )
    assert run_on(check_docs, monkeypatch, tmp_path, bad) == 1
    err = capsys.readouterr().err
    assert "seeded.md:1: path does not exist -> tools/no_such_tool.py" in err
    assert "seeded.md:1: path does not exist -> NO_SUCH_*.json" in err
    assert "seeded.md:3: path does not exist -> benchmarks/no_such_bench.py" in err


def test_a_repo_path_in_a_docstring_must_exist(check_docs, monkeypatch, tmp_path, capsys):
    source = tmp_path / "seeded.py"
    monkeypatch.setattr(check_docs, "iter_source_files", lambda: [source])
    source.write_text('"""Pinned by ``tests/test_eval.py::test_edp``."""\n')
    assert check_docs.main() == 0
    source.write_text(
        '"""Module docstring.\n\nMeasured by ``benchmarks/no_such_bench.py``.\n"""\n'
        "def f():\n    # see ``tools/no_such_tool.py``\n    return 1\n"
    )
    assert check_docs.main() == 1
    err = capsys.readouterr().err
    assert "seeded.py:3: path does not exist -> benchmarks/no_such_bench.py" in err
    assert "seeded.py:6: path does not exist -> tools/no_such_tool.py" in err


def test_a_docstring_may_not_cite_a_roadmap_item_number(
    check_docs, monkeypatch, tmp_path, capsys
):
    source = tmp_path / "seeded.py"
    monkeypatch.setattr(check_docs, "iter_source_files", lambda: [source])
    source.write_text('"""Replay-driven load; see ROADMAP.md and items like it."""\n')
    assert check_docs.main() == 0
    source.write_text(
        '"""Record/replay trace layer (ROADMAP item 5).\n\nThe workload of ROADMAP\n'
        '    item 11."""\ndef f():\n    # ROADMAP item 2(b)\n    return 1\n'
    )
    assert check_docs.main() == 1
    err = capsys.readouterr().err
    assert "seeded.py:1: cites 'ROADMAP item 5'" in err
    assert "seeded.py:3: cites 'ROADMAP item 11'" in err
    assert "seeded.py:6: cites 'ROADMAP item 2'" in err


def test_the_flight_states_table_lists_every_edge_and_no_other_state(
    check_docs, monkeypatch, tmp_path, capsys
):
    table = check_docs.FLIGHT_DOC.read_text()
    doc = tmp_path / "gateway.md"
    monkeypatch.setattr(check_docs, "FLIGHT_DOC", doc)
    doc.write_text(table)
    assert check_docs.main() == 0
    seeded = []
    for line in table.splitlines():
        if "| `shed` |" in line:
            continue  # the queued -> shed row goes missing
        seeded.append(line)
        if line.startswith("| (new) | submit |"):
            seeded.append("| `sent` | the worker asks for more time | `paused` | nothing |")
            seeded.append("| `expired` | the late response frame | `answered` | billed |")
    doc.write_text("\n".join(seeded) + "\n")
    assert check_docs.main() == 1
    err = capsys.readouterr().err
    assert "gateway.md: the Flight states table lacks the edge queued -> shed" in err
    assert "state `paused` is not in _EDGES" in err
    assert "_EDGES has no move expired -> answered" in err
