"""The library holds only what the pipeline runs: every module-level
function and class of ``src/hierlabel`` is used elsewhere in the library
or in ``pipebench/``.  Scalar forms that only tests use belong in
``tests/oracles.py``.  Uses are read from the syntax trees, so docstrings,
comments and imports do not count.  No library module imports scipy."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the CLI entry point and the fixture writers that tests build inputs with
ALLOWED = {"main", "save_matrix", "save_vocabulary", "save_hierarchy"}


def test_every_library_definition_has_a_caller():
    src = sorted((ROOT / "src" / "hierlabel").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in src + sorted((ROOT / "pipebench").glob("*.py"))}
    # the names each top-level statement uses, so that a definition's own
    # body is not its caller
    used = [(stmt, {n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(stmt)
                    if isinstance(n, (ast.Name, ast.Attribute))})
            for tree in trees.values() for stmt in tree.body]
    unused = [f"{p.name}:{d.lineno} {d.name}" for p in src
              for d in trees[p].body
              if isinstance(d, (ast.FunctionDef, ast.ClassDef))
              and d.name not in ALLOWED
              and not any(d.name in names
                          for stmt, names in used if stmt is not d)]
    assert unused == [], unused


def test_no_library_module_imports_scipy():
    """scipy is a test dependency only: no import of it anywhere in
    ``src/hierlabel``, at module level or inside a function."""
    found = []
    for p in sorted((ROOT / "src" / "hierlabel").glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [f"{p.name}:{node.lineno} {n}" for n in names
                      if n.split(".")[0] == "scipy"]
    assert found == [], found
