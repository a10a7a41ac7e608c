"""API-surface guard: no public function or class of the package exists only for tests.

Every public top-level function and class in ``src/ndgan/*.py`` must be
referenced from the package itself, from ``scripts/`` or from the
benchmark's modules (``bench/*.py``; its tests do not count), outside the
definition's own body. A reference is an ``Attribute`` (``dio.write_table``),
an import alias (``from .gan import forward``), or a bare ``Name`` in the
defining module; elsewhere a bare name without the import is some other
object of the same name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ndgan"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _public_definitions():
    """(module, name, first line, last line) of each public top-level def and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node.name, node.lineno, node.end_lineno


def _references():
    """name -> [(path, line)] of every reference in the callers."""
    refs: dict[str, list] = {}
    defined_in = {path: set() for path in CALLERS}
    for path, name, _, _ in _public_definitions():
        defined_in[path].add(name)
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id in defined_in[path]:
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_public_definition_has_a_caller_outside_the_tests():
    refs = _references()
    unused = [
        f"{path.stem}.{name}"
        for path, name, first, last in _public_definitions()
        if not any(not (where == path and first <= line <= last) for where, line in refs.get(name, []))
    ]
    assert not unused, f"public definitions that only tests use: {unused}"


def test_the_guard_sees_references_of_every_kind():
    refs = _references()
    assert any(p.name == "cli.py" for p, _ in refs["write_table"])  # attribute: dio.write_table
    assert any(p.name == "scores.py" for p, _ in refs["forward"])  # from-import alias
    assert any(p.name == "cli.py" for p, _ in refs["cmd_score"])  # bare name in its own module
    assert any(p.parent.name == "bench" for p, _ in refs["score_knn"])  # bench module, attribute
