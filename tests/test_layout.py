"""The library holds only what the pipeline runs: every module-level
function, class and name of ``src/hierlabel``, and every method and
property of its classes, is used elsewhere in the library or in
``pipebench/``.  Scalar forms that only tests use belong in
``tests/oracles.py``.  Uses are read from the syntax trees, so
docstrings, comments and imports do not count.  No library module
imports scipy."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the CLI entry point, the fixture writers that tests build inputs with,
# and the flag that pipebench/harness.py reads inside a probe string, which
# the syntax trees do not see
ALLOWED = {"main", "save_matrix", "save_vocabulary", "save_hierarchy",
           "USING_NUMBA"}

SRC = sorted((ROOT / "src" / "hierlabel").glob("*.py"))
TREES = {p: ast.parse(p.read_text(encoding="utf-8"))
         for p in SRC + sorted((ROOT / "pipebench").glob("*.py"))}


def _uses(units) -> list:
    """(unit, the names it uses) for each syntax tree in ``units``."""
    return [(unit, {n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(unit)
                    if isinstance(n, (ast.Name, ast.Attribute))})
            for unit in units]


def _unused(definitions, used) -> list:
    """``file:line name`` of each (path, statement, name) in
    ``definitions`` whose name no unit but the statement itself uses."""
    return [f"{p.name}:{d.lineno} {name}" for p, d, name in definitions
            if not any(name in names for unit, names in used
                       if unit is not d)]


def _dunder(name) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined(stmt) -> list:
    """The names a top-level statement defines: a function's or a class's,
    or those an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return [n.id for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


def test_every_library_definition_has_a_caller():
    """Each function, class and name a library module defines at its top
    level, dunders aside, is named by another top-level statement, so that
    a constant whose last reader is gone fails too."""
    # the names each top-level statement uses, so that a definition's own
    # body is not its caller
    used = _uses(stmt for tree in TREES.values() for stmt in tree.body)
    unused = _unused(((p, d, name) for p in SRC for d in TREES[p].body
                      for name in _defined(d)
                      if name not in ALLOWED and not _dunder(name)), used)
    assert unused == [], unused


def test_every_library_method_has_a_caller():
    """Each method and property of a library class, dunders aside, is
    named outside its own body: a class's other members count, split
    into one unit each.  A use is any name or attribute of the same
    spelling, so a method named like a builtin or a common method (say
    ``get``, which every ``dict.get`` call matches) can escape this
    check."""
    used = _uses(member for tree in TREES.values() for stmt in tree.body
                 for member in (stmt.body if isinstance(stmt, ast.ClassDef)
                                else [stmt]))
    unused = _unused(((p, d, d.name) for p in SRC for cls in TREES[p].body
                      if isinstance(cls, ast.ClassDef)
                      for d in cls.body
                      if isinstance(d, ast.FunctionDef)
                      and not _dunder(d.name)), used)
    assert unused == [], unused


def test_no_library_module_imports_scipy():
    """scipy is a test dependency only: no import of it anywhere in
    ``src/hierlabel``, at module level or inside a function."""
    found = []
    for p in SRC:
        for node in ast.walk(TREES[p]):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [f"{p.name}:{node.lineno} {n}" for n in names
                      if n.split(".")[0] == "scipy"]
    assert found == [], found
