"""Every public top-level function and class in ``src/segens``, and every
public method and property of a public class, has a reader.

A name counts as read when it appears, outside its own definition, in
package code, in a benchmark script (``perfbench/*.py``) or in the
acceptance checks (``tests/test_acceptance.py``). A name that only its
own unit tests call is library surface no workflow reaches.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "segens"

# (module, name): why it stays with no reader
KEEP = {
    ("stats", "dice_difference_test"):
        "the paper's test of a Dice difference between two methods",
}


def _public(nodes):
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_definitions():
    """(path, qualified name, node) of each public definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(ast.parse(path.read_text()).body):
            yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    yield path, f"{node.name}.{method.name}", method


def _references(path):
    """(name, line) of every name, attribute and import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _unread():
    readers = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"])
    refs = {path: list(_references(path)) for path in readers}
    for path, qualname, node in _public_definitions():
        own = range(node.lineno, node.end_lineno + 1)
        if not any(name == node.name and not (reader == path and line in own)
                   for reader, found in refs.items() for name, line in found):
            yield path.stem, qualname


def test_every_public_definition_has_a_reader():
    dead = sorted(set(_unread()) - set(KEEP))
    assert not dead, f"public definitions nothing reads: {dead}"


def test_keep_list_names_only_unread_definitions():
    defined = {(path.stem, qualname) for path, qualname, _ in _public_definitions()}
    assert set(KEEP) <= defined, f"kept but not defined: {set(KEEP) - defined}"
    assert set(KEEP) <= set(_unread()), "a kept name has a reader; drop it from KEEP"
