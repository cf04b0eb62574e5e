#!/usr/bin/env python3
"""Documentation checker run by the CI docs job.

Five checks, no dependencies beyond the standard library (the docs job
installs nothing, so the engine names are read from source, not imported):

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

Exits non-zero with one line per problem.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from pathlib import Path

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
