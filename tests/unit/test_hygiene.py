"""No module under ``src/repro``, ``tests``, ``benchmarks`` or ``examples``
imports a name it never reads.

An unread import is dead code that still runs: it costs import time in
every process, including each forked worker, and it hides which layer
really depends on which.  The scan parses every module and reports each
imported name that no expression (or string annotation) in the module
reads.  Exempt are ``__init__.py`` files, whose imports are the package's
re-exports, names listed in ``__all__``, and imports marked
``# noqa: F401``, which are made for their side effect (the daemon
imports the compiler before it forks workers).  ``perfbench`` is left
out: it is the benchmark harness, whose files change only together with
the benchmark's definition.

Stdlib only, so it also runs without the package's dependencies:

    python3 tests/unit/test_hygiene.py
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: The trees the scan covers, relative to the repository root.
SCANNED = ("src/repro", "tests", "benchmarks", "examples")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree):
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        if (isinstance(annotation, ast.Constant)
                and isinstance(annotation.value, str)):
            read |= _names_read(ast.parse(annotation.value, mode="eval"))
    return read


def unused_imports(path):
    """``(line, name)`` for each name *path* imports and never reads."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    exempt = _names_read(tree)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            exempt |= {elt.value for elt in node.value.elts}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in exempt:
                yield node.lineno, name


def findings():
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for tree in SCANNED
            for path in sorted((ROOT / tree).rglob("*.py"))
            if path.name != "__init__.py"
            for line, name in unused_imports(path)]


def test_no_unused_imports():
    found = findings()
    assert not found, "imported but never read:\n" + "\n".join(found)


if __name__ == "__main__":
    found = findings()
    for finding in found:
        print(f"unused import: {finding}")
    sys.exit(1 if found else 0)
