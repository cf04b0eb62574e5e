"""Every module-level import in ``src/repro`` is read.

The lint job's rule selection (``ruff.toml``) has no ``F401``, so nothing
else notices an import that a change left behind.  A package's
``__init__.py`` imports to re-export and is exempt; elsewhere a deliberate
re-export is listed in ``__all__`` or marked ``# noqa: F401`` on its line.
A name counts as read when the module loads it anywhere, string
annotations (``"CompileOptions"`` under ``TYPE_CHECKING``) included.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _names_read(tree: ast.AST) -> set[str]:
    read, annotations = set(), []
    for node in ast.walk(tree):
        kind = type(node)
        if kind is ast.Name:
            read.add(node.id)
        elif kind is ast.arg or kind is ast.AnnAssign:
            annotations.append(node.annotation)
        elif kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for leaf in ast.walk(annotation):
            if type(leaf) is ast.Constant and type(leaf.value) is str:
                read |= _names_read(ast.parse(leaf.value, mode="eval"))
    return read


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _module_imports(tree: ast.Module):
    """(bound name, line) of every import at module level, including
    those under a module-level ``if`` or ``try``."""
    for statement in tree.body:
        for node in ast.walk(statement) if isinstance(statement, (ast.If, ast.Try)) else [statement]:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    yield alias.asname or alias.name.split(".")[0], alias.lineno


def test_every_module_level_import_is_read():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        tree, lines = ast.parse(text), text.splitlines()
        allowed = _names_read(tree) | _exported(tree)
        for name, line in _module_imports(tree):
            if name not in allowed and "# noqa: F401" not in lines[line - 1]:
                unused.append(f"{path.relative_to(SRC.parent)}:{line}: {name}")
    assert not unused, "imported but never read:\n" + "\n".join(unused)
