"""Every public function, class and method of the package is named
somewhere else: in the package itself, the benchmark, the demos or the
acceptance criteria. A public name that no pipeline uses is deleted, not
maintained. The re-exports of the package's __init__ do not count as uses."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "fiberloc").glob("*.py")
                 if p.name != "__init__.py")
USERS = (MODULES + sorted((ROOT / "bench").glob("*.py"))
         + sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"])
# a dotted name in a string, such as "linalg.stacked_sqrt_pair": the
# benchmark's tracer names the functions it wraps that way
DOTTED = re.compile(r"\w+(\.\w+)+")


def public_definitions(source: str) -> dict:
    """The public functions and classes at the top of a module, and the
    public methods of its classes (as Class.method), with their lines."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{node.name}.{item.name}"] = item.lineno
    return found


def names_in(source: str) -> set:
    """Every name a module reads, takes as an attribute, imports or spells
    out in a dotted string."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.asname or node.name).split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            names.update(node.value.split("."))
    return names


def unused_public_names(source: str, users) -> list:
    """The public definitions of a module that none of the user sources
    names (the definition itself is not a use)."""
    named = set().union(*(names_in(u) for u in users))
    return sorted(f"{name} (line {line})" for name, line in public_definitions(source).items()
                  if name.split(".")[-1] not in named)


def test_the_guard_sees_an_unused_public_name():
    source = ("class A:\n    def used(self): pass\n    def unused(self): pass\n"
              "    def _private(self): pass\ndef f(): pass\ndef g(): pass\n")
    users = [source, "A().used()\n", "TRACED = {'mod.f': 1, 'g': 2}\n"]
    assert unused_public_names(source, users) == ["A.unused (line 3)", "g (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_public_name_has_a_user(path):
    users = [p.read_text() for p in USERS]
    assert unused_public_names(path.read_text(), users) == []
