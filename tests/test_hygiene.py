"""Static checks over the library's source text."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "minicypher"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _top_level_imports(tree):
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_read(path):
    # __init__.py is left out: its imports are re-exports
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = [name for name in _top_level_imports(tree) if name not in read]
    assert not unread, f"{path.name} imports {unread} and never reads them"


def test_oracle_is_independent_of_matcher_and_engine():
    # The oracle restates the semantics instead of borrowing them, so that
    # it can check the engine.  Its one tie to the engine is the engine
    # under test: the differential harness imports engine.output as
    # engine_output and reads it in differential_case alone.
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    ties = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            ties += [(a.name, a.asname) for a in node.names
                     if {"matcher", "engine"} & set(a.name.split("."))]
        elif isinstance(node, ast.ImportFrom):
            parts = set((node.module or "").split("."))
            ties += [(f"{node.module}.{a.name}", a.asname) for a in node.names
                     if {"matcher", "engine"} & (parts | {a.name})]
    assert ties == [("engine.output", "engine_output")]

    def reads(node):
        return sum(isinstance(n, ast.Name) and n.id == "engine_output" for n in ast.walk(node))

    harness = next(fn for fn in tree.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "differential_case")
    assert reads(tree) == reads(harness) > 0
