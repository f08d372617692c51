"""One public surface: every public name the library defines has a reader.

A top-level name of ``src/heckezeros/*.py`` without a leading underscore is
public.  Each must be read by library code other than its definition (a
name or attribute load, found with ``ast``, so a docstring that names it
does not count), or appear in ``README.md``, a ``perfbench`` module or the
acceptance gate.  A name that only tests read is not part of the surface:
delete it, or make it private.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "heckezeros").glob("*.py"))
OUTSIDE_READERS = [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py")),
                   ROOT / "tests" / "test_acceptance.py"]


def _defined(tree):
    """The public names a module's top level defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from (n for n in names if not n.startswith("_"))


def _read(tree):
    """Every name and attribute the module's code loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_is_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    defined = {(module, name) for module, tree in trees.items() for name in _defined(tree)}
    # a function, a class and an assignment: the rule sees each kind of definition
    assert {("dh", "solve_poly"), ("dh", "SolverCase"), ("dh", "CASES")} <= defined
    read = {name for tree in trees.values() for name in _read(tree)}
    outside = "\n".join(path.read_text(encoding="utf-8") for path in OUTSIDE_READERS)
    unread = sorted(f"{module}.{name}" for module, name in defined
                    if name not in read and not re.search(rf"\b{re.escape(name)}\b", outside))
    assert not unread, f"public names that only tests read: {unread}"
