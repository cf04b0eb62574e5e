#!/usr/bin/env python3
"""Documentation checker run by the CI docs job.

Seven checks, no dependencies beyond the standard library (the docs job
installs nothing, so the engine names, the flight edges, the compile
options and the named pipelines are read from source, not imported):

1. **Link resolution** — every intra-repo markdown link in ``docs/*.md``
   and ``README.md`` (relative targets; external ``http(s)``/``mailto``
   links and pure ``#anchor`` links are skipped) must point at an existing
   file or directory.
2. **Architecture coverage** — every package under ``src/repro/`` (a
   directory with an ``__init__.py``) must be mentioned in
   ``docs/architecture.md``, so the walkthrough cannot silently go stale
   when a new package lands.
3. **Engine default** — a line that marks an execution engine
   "`name` (default)" must name ``DEFAULT_ENGINE``.
4. **Repo paths** — a path in a code span or fenced block that starts
   with ``tools/``, ``benchmarks/`` or ``tests/``, and a code span that
   is just a root-level ``*.json`` name, must exist (``*`` globs must
   match something), so docs cannot keep pointing at deleted files.
5. **Docstrings** — check 4 applied to the double-backtick code spans
   of the docstrings (and comments) in ``src/repro/**/*.py``, which also
   may not cite a roadmap item by number (the numbers are not stable).
6. **Flight states** — every edge of the gateway core's ``_EDGES`` is a
   row of the "Flight states" table in ``docs/gateway.md`` (a row's
   "Next" may chain two moves), the table shows no move ``_EDGES`` lacks
   (a row may keep its state), and it names no state ``_EDGES`` lacks.
7. **Compile options** — the "Compile options" table in
   ``docs/compiler.md`` lists exactly the fields of ``CompileOptions``,
   and its "Named pipelines" table exactly the keys of
   ``NAMED_PIPELINES``.

Exits non-zero with one line per problem.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — deliberately simple; code spans with parentheses
#: are not a link pattern this repo's docs use.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

CODE_SPAN_RE = re.compile(r"`([^`]+)`")
RST_SPAN_RE = re.compile(r"``([^`]+)``")
#: "`fast` (default)", "**`fast`** (default)"
DEFAULT_MARK_RE = re.compile(r"`([\w-]+)`\**\s*\(default\)")
ROOT_JSON_RE = re.compile(r"[\w*.-]+\.json")
REPO_PATH_PREFIXES = ("tools/", "benchmarks/", "tests/")
ROADMAP_ITEM_RE = re.compile(r"ROADMAP\s+item\s+\d+")
#: The flight state machine, and the docs whose table lists its edges.
FLIGHT_CORE = REPO_ROOT / "src" / "repro" / "gateway" / "core.py"
FLIGHT_DOC = REPO_ROOT / "docs" / "gateway.md"
#: A state in a table cell: "`queued`", or "(new)" before a flight is one.
STATE_RE = re.compile(r"`(\w+)`|\((new)\)")
#: The compiler doc, and the sources its options and pipelines tables list.
COMPILER_DOC = REPO_ROOT / "docs" / "compiler.md"
OPTIONS_SOURCE = REPO_ROOT / "src" / "repro" / "compiler" / "options.py"
PIPELINES_SOURCE = REPO_ROOT / "src" / "repro" / "compiler" / "passes" / "pipelines.py"


def iter_doc_files() -> list[Path]:
    files = sorted((REPO_ROOT / "docs").glob("*.md"))
    readme = REPO_ROOT / "README.md"
    if readme.exists():
        files.append(readme)
    return files


def iter_source_files() -> list[Path]:
    return sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))


def check_links(files: list[Path]) -> list[str]:
    problems = []
    for doc in files:
        for line_no, line in enumerate(doc.read_text().splitlines(), 1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path_part = target.split("#", 1)[0]
                if not path_part:  # pure anchor into the same file
                    continue
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{doc.relative_to(REPO_ROOT)}:{line_no}: "
                        f"broken link -> {target}"
                    )
    return problems


def check_architecture_coverage() -> list[str]:
    architecture = REPO_ROOT / "docs" / "architecture.md"
    if not architecture.exists():
        return ["docs/architecture.md is missing"]
    text = architecture.read_text()
    problems = []
    src_root = REPO_ROOT / "src" / "repro"
    for init in sorted(src_root.rglob("__init__.py")):
        package = init.parent.relative_to(REPO_ROOT / "src").as_posix()
        if f"src/{package}" not in text and f"`{package}`" not in text:
            problems.append(
                f"docs/architecture.md: package {package} is not mentioned"
            )
    return problems


def engine_names() -> tuple[tuple[str, ...], str]:
    """``(ENGINE_MODES, DEFAULT_ENGINE)`` parsed from the engine package."""
    text = (REPO_ROOT / "src/repro/ir/engine/__init__.py").read_text()
    modes = re.search(r"^ENGINE_MODES = (\(.*\))$", text, re.M)
    default = re.search(r'^DEFAULT_ENGINE = "([^"]+)"$', text, re.M)
    if modes is None or default is None:
        raise RuntimeError("cannot find ENGINE_MODES / DEFAULT_ENGINE")
    return ast.literal_eval(modes.group(1)), default.group(1)


def wrong_engine_defaults(line: str, modes: tuple[str, ...], default: str) -> list[str]:
    return [
        f"engine `{name}` marked (default), but DEFAULT_ENGINE is {default!r}"
        for name in DEFAULT_MARK_RE.findall(line)
        if name in modes and name != default
    ]


def missing_repo_paths(spans: list[str]) -> list[str]:
    problems = []
    for span in spans:
        words = span.split()
        for word in words:
            # `tests/test_x.py::test_name`, `tests/test_x.py:253`, "(tools/x.py),"
            word = word.strip("()[]\"',;").split("::")[0]
            word = re.sub(r":\d+$", "", word).rstrip(".:")
            is_root_json = len(words) == 1 and ROOT_JSON_RE.fullmatch(word)
            if not (word.startswith(REPO_PATH_PREFIXES) or is_root_json):
                continue
            found = any(REPO_ROOT.glob(word)) if "*" in word else (REPO_ROOT / word).exists()
            if not found:
                problems.append(f"path does not exist -> {word}")
    return problems


def check_lines(files: list[Path]) -> list[str]:
    modes, default = engine_names()
    problems = []
    for doc in files:
        in_fence = False
        for line_no, line in enumerate(doc.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            spans = [line] if in_fence else CODE_SPAN_RE.findall(line)
            for problem in (
                wrong_engine_defaults(line, modes, default) + missing_repo_paths(spans)
            ):
                problems.append(
                    f"{os.path.relpath(doc, REPO_ROOT)}:{line_no}: {problem}"
                )
    return problems


def check_docstrings(sources: list[Path]) -> list[str]:
    problems = []
    for source in sources:
        text = source.read_text()
        where = os.path.relpath(source, REPO_ROOT)
        for line_no, line in enumerate(text.splitlines(), 1):
            for problem in missing_repo_paths(RST_SPAN_RE.findall(line)):
                problems.append(f"{where}:{line_no}: {problem}")
        # Matched on the whole text: a docstring may wrap the citation.
        for match in ROADMAP_ITEM_RE.finditer(text):
            line_no = text.count("\n", 0, match.start()) + 1
            citation = " ".join(match.group().split())
            problems.append(
                f"{where}:{line_no}: cites {citation!r}; roadmap item numbers "
                "change when the roadmap is re-anchored"
            )
    return problems


def flight_edges() -> dict[str, tuple[str, ...]]:
    """``_EDGES`` of the gateway's flight core, read from its source."""
    for node in ast.parse(FLIGHT_CORE.read_text()).body:
        if isinstance(node, ast.Assign) and [
            getattr(target, "id", None) for target in node.targets
        ] == ["_EDGES"]:
            return ast.literal_eval(node.value)
    raise RuntimeError("cannot find _EDGES")


def check_flight_states() -> list[str]:
    edges = flight_edges()
    legal = {(old, new) for old, targets in edges.items() for new in targets}
    states = set(edges) | {new for _, new in legal}
    where = os.path.relpath(FLIGHT_DOC, REPO_ROOT)
    lines = FLIGHT_DOC.read_text().splitlines()
    if "### Flight states" not in lines:
        return [f"{where}: no '### Flight states' section"]
    problems, shown = [], set()
    line_no = lines.index("### Flight states") + 1
    while line_no < len(lines) and not lines[line_no].startswith("|"):
        line_no += 1
    line_no += 2  # the header row and its rule
    while line_no < len(lines) and lines[line_no].startswith("|"):
        cells = lines[line_no].strip().strip("|").split("|")
        line_no += 1
        chain = [a or b for cell in (cells[0], cells[2]) for a, b in STATE_RE.findall(cell)]
        for name in sorted(set(chain) - states):
            problems.append(f"{where}:{line_no}: state `{name}` is not in _EDGES")
        for old, new in zip(chain, chain[1:]):
            if old != new:
                shown.add((old, new))
                if (old, new) not in legal and {old, new} <= states:
                    problems.append(f"{where}:{line_no}: _EDGES has no move {old} -> {new}")
    for old, new in sorted(legal - shown):
        problems.append(f"{where}: the Flight states table lacks the edge {old} -> {new}")
    return problems


def option_fields() -> list[str]:
    """The fields of ``CompileOptions``, read from its source."""
    for node in ast.parse(OPTIONS_SOURCE.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name == "CompileOptions":
            return [
                item.target.id for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    raise RuntimeError("cannot find CompileOptions")


def pipeline_names() -> list[str]:
    """The keys of ``NAMED_PIPELINES``, read from its source."""
    for node in ast.parse(PIPELINES_SOURCE.read_text()).body:
        if (
            isinstance(node, ast.AnnAssign)
            and getattr(node.target, "id", None) == "NAMED_PIPELINES"
            and isinstance(node.value, ast.Dict)
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise RuntimeError("cannot find NAMED_PIPELINES")


def table_names(lines: list[str], heading: str) -> Optional[list[str]]:
    """The code span of each row's first cell in the first table after
    *heading*; ``None`` without that heading."""
    if heading not in lines:
        return None
    line_no = lines.index(heading) + 1
    while line_no < len(lines) and not lines[line_no].startswith("|"):
        line_no += 1
    names = []
    for line in lines[line_no + 2:]:  # past the header row and its rule
        if not line.startswith("|"):
            break
        names.extend(CODE_SPAN_RE.findall(line.split("|")[1])[:1])
    return names


def check_compile_options() -> list[str]:
    where = os.path.relpath(COMPILER_DOC, REPO_ROOT)
    lines = COMPILER_DOC.read_text().splitlines()
    problems = []
    for heading, kind, names in (
        ("## Compile options", "CompileOptions field", option_fields()),
        ("## Named pipelines", "named pipeline", pipeline_names()),
    ):
        shown = table_names(lines, heading)
        if shown is None:
            problems.append(f"{where}: no {heading!r} section")
            continue
        for name in names:
            if name not in shown:
                problems.append(f"{where}: the {heading[3:]!r} table lacks the {kind} `{name}`")
        for name in shown:
            if name not in names:
                problems.append(f"{where}: the {heading[3:]!r} table lists `{name}`, "
                                f"which is no {kind}")
    return problems


def main() -> int:
    files = iter_doc_files()
    if not files:
        print("no documentation files found", file=sys.stderr)
        return 1
    problems = (
        check_links(files)
        + check_architecture_coverage()
        + check_lines(files)
        + check_docstrings(iter_source_files())
        + check_flight_states()
        + check_compile_options()
    )
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    packages = len(list((REPO_ROOT / "src" / "repro").rglob("__init__.py")))
    print(
        f"docs OK: {len(files)} files checked, all links and repo paths "
        f"resolve, {packages} packages covered in architecture.md"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
