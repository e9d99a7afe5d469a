"""Every module of src/difftts uses each name it imports, and every function
or class it defines is used outside the tests: a private one by src/difftts
code, a public one by src/difftts, perfbench/, scripts/ or the acceptance
suite, whose calls fix the package's API.

The ``__init__.py`` files are skipped by the import check: their imports are
the package's exports.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "difftts"
MODULES = sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")
                 if p.name != "__init__.py")
TREES = {p.relative_to(SRC).as_posix(): ast.parse(p.read_text(encoding="utf-8"))
         for p in SRC.rglob("*.py")}


def imported_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def names_used(node: ast.AST) -> Counter:
    return Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name))


def private_definitions(tree: ast.Module) -> list:
    """The module-level ``def _name`` and ``class _Name`` nodes, dunders aside."""
    return [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and n.name.startswith("_") and not n.name.startswith("__")]


SOURCE_USES = sum((names_used(tree) for tree in TREES.values()), Counter())


def names_named(node: ast.AST) -> Counter:
    """Each identifier ``node`` names as a name, an attribute, an import or
    a string: perfbench wraps functions by their names."""
    named = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            named[n.id] += 1
        elif isinstance(n, ast.Attribute):
            named[n.attr] += 1
        elif isinstance(n, ast.alias):
            named[n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            named[n.value] += 1
    return named


def public_definitions(tree: ast.Module) -> list:
    """The module-level ``def name`` and ``class Name`` nodes."""
    return [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and not n.name.startswith("_")]


ROOT = SRC.parents[1]
CALLERS = [*sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
NAMED = sum((names_named(tree) for tree in TREES.values()), Counter()) + sum(
    (names_named(ast.parse(p.read_text(encoding="utf-8"))) for p in CALLERS), Counter())


def test_the_scan_sees_every_module():
    assert {"pipeline.py", "numcore.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = TREES[module]
    assert sorted(imported_names(tree) - set(names_used(tree))) == []


def test_the_private_scan_sees_definitions():
    assert "_res_block" in {d.name for d in private_definitions(TREES["diffusion.py"])}


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_private_definition_only_tests_reach(module):
    # a use inside the definition itself, such as a recursive call, does not count
    unused = [d.name for d in private_definitions(TREES[module])
              if SOURCE_USES[d.name] == names_used(d)[d.name]]
    assert unused == []


def test_the_public_scan_sees_definitions_and_callers():
    assert "score_net" in {d.name for d in public_definitions(TREES["diffusion.py"])}
    assert {"run.py", "run_toy_experiment.py", "test_acceptance.py"} <= {p.name for p in CALLERS}


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_public_definition_only_tests_reach(module):
    # a use inside the definition itself, such as a recursive call, does not count
    unused = [d.name for d in public_definitions(TREES[module])
              if NAMED[d.name] == names_named(d)[d.name]]
    assert unused == []
