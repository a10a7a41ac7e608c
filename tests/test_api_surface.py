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


def _imports_autodiff(tree) -> int:
    """How many import statements in ``tree`` name the ``autodiff`` module."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{a.name}" for a in node.names]
        else:
            continue
        count += any("autodiff" in name.split(".") for name in names)
    return count


def test_no_module_but_autodiff_imports_autodiff():
    """The tape serves only the benchmark, so deleting it touches no other module."""
    probe = "from . import autodiff as ad\nfrom .autodiff import Tape\nimport ndgan.autodiff\nfrom . import layers"
    assert _imports_autodiff(ast.parse(probe)) == 3
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "autodiff.py" and _imports_autodiff(ast.parse(path.read_text(encoding="utf-8")))]
    assert not importers, f"modules that import autodiff: {importers}"


def test_no_module_but_blas_imports_threading_or_queue():
    """Every helper thread is a blas.Lane's, so one module decides when a thread runs."""
    def importers(tree):
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
        return names & {"threading", "queue"}

    probe = "import threading\nfrom queue import SimpleQueue\nfrom . import rng\nimport numpy as np"
    assert importers(ast.parse(probe)) == {"threading", "queue"}
    found = {path.name: sorted(names) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "blas.py" and (names := importers(ast.parse(path.read_text(encoding="utf-8"))))}
    assert not found, f"modules that import threading or queue: {found}"


def _private_reads(tree) -> list[str]:
    """``module._name`` for each read of another package module's private name in
    ``tree``, whether through an attribute of an imported module or a from-import."""
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    def in_package(node):
        return node.level > 0 or (node.module or "").split(".")[0] == "ndgan"

    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and in_package(node):
            for alias in node.names:
                if private(alias.name):
                    reads.append(f"{node.module or '.'}.{alias.name}")
                modules.add(alias.asname or alias.name)  # perhaps a module: `from . import layers as nn`
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name.split(".")[0] == "ndgan")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr) and ast.unparse(node.value) in modules:
            reads.append(f"{ast.unparse(node.value)}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    """A private name is its module's own business: a format or a helper that another
    module needs is public, or it moves to the module that uses it."""
    probe = ("from . import layers as nn\nfrom .scores import _knn_k\nfrom .rng import RngStreams\n"
             "import numpy as np\nnn._KIND_GAN\nnn.flat_stack\nnp._core\nself._k\nfrom . import __version__")
    assert _private_reads(ast.parse(probe)) == ["scores._knn_k", "nn._KIND_GAN"]
    reads = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
             if (found := _private_reads(ast.parse(path.read_text(encoding="utf-8"))))}
    assert not reads, f"modules that read another module's private names: {reads}"
