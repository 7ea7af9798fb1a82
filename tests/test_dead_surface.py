"""Every public top-level function and class in ``src/segens``, and every
public method and property of a public class, has a reader; and every
settable value has a reader that sets it.

A name counts as read when it appears, outside its own definition, in
package code, in a benchmark script (``perfbench/*.py``) or in the
acceptance checks (``tests/test_acceptance.py``). A name that only its
own unit tests call is library surface no workflow reaches.

A settable value is a defaulted parameter of a public function or
method, or a defaulted field of a public dataclass. One of the same
readers sets it when, outside the definition, it passes the value to a
call of that name, by keyword or by position, or to ``replace(..., f=)``,
or, for a field, assigns ``obj.f = ...``. A value that only unit tests
set is a setting no workflow uses.
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

_HEADER = ("written into the model header and the run JSON; deleting it "
           "changes the bytes of both")
_HISTORY = "the training history that train_metalearner appends to"
# (module, owner, value): why it stays though no reader sets it
KEEP_SETTINGS = {
    ("ensemble", "HyperParams", "plateau_patience"): _HEADER,
    ("ensemble", "HyperParams", "plateau_factor"): _HEADER,
    ("metrics", "MetricReport", "map11_rule"):
        "names the 11-point mAP rule in every report JSON",
    ("ensemble", "TrainRun", "train_loss"): _HISTORY,
    ("ensemble", "TrainRun", "val_loss"): _HISTORY,
    ("ensemble", "TrainRun", "train_dice"): _HISTORY,
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


def _readers():
    return (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
            + [ROOT / "tests" / "test_acceptance.py"])


def _unread():
    refs = {path: list(_references(path)) for path in _readers()}
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


def _is_dataclass(node):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def _settable_values():
    """(path, owner, value, callee, position, is a field, owner's node)
    of each settable value; ``position`` is its index among a call's
    positional arguments, or None for a keyword-only one."""
    for path, qualname, node in _public_definitions():
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            # a method's call passes no self or cls
            skip = "." in qualname and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in node.decorator_list)
            for i, arg in enumerate(positional):
                if i >= len(positional) - len(args.defaults):
                    yield (path, qualname, arg.arg, node.name, i - skip,
                           False, node)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield path, qualname, arg.arg, node.name, None, False, node
        elif _is_dataclass(node):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            for i, f in enumerate(fields):
                if f.value is not None and not f.target.id.startswith("_"):
                    yield path, qualname, f.target.id, node.name, i, True, node


def _passes(path):
    """(line, callee, positional arguments, keywords) of every call in
    ``path``, keywords as {name: value}, and (line, None, [], {f: value})
    of every ``obj.f = value``. A starred argument stands for all later
    positions."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            callee = getattr(func, "id", None) or getattr(func, "attr", None)
            yield (node.lineno, callee, node.args,
                   {k.arg: k.value for k in node.keywords})
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in getattr(node, "targets", None) or [node.target]:
                if isinstance(target, ast.Attribute):
                    yield node.lineno, None, [], {target.attr: node.value}


def _passed(args, position):
    """The argument at ``position``, the starred one covering it, or None."""
    for i, arg in enumerate(args):
        if isinstance(arg, ast.Starred) or i == position:
            return arg
    return None


def _unset():
    """Settable values that no reader sets. A value passed on as the
    same-named parameter of an enclosing settable function is set only
    if that parameter is."""
    values = list(_settable_values())
    passes = {path: list(_passes(path)) for path in _readers()}
    direct, forwards = set(), []
    for path, owner, value, callee, position, field, node in values:
        key = (path.stem, owner, value)
        own = range(node.lineno, node.end_lineno + 1)
        for reader, found in passes.items():
            for line, name, args, keywords in found:
                if reader == path and line in own:
                    continue
                if name == callee:
                    arg = keywords.get(value)
                    if arg is None and position is not None:
                        arg = _passed(args, position)
                elif field and name in ("replace", None):
                    arg = keywords.get(value)
                else:
                    continue
                if arg is None:
                    continue
                via = [(p.stem, o, v) for p, o, v, _, _, f, n in values
                       if p == reader and not f and v == getattr(arg, "id", None)
                       and n.lineno <= line <= n.end_lineno]
                if via:
                    forwards.append((via[0], key))
                else:
                    direct.add(key)
    done = set()
    while direct - done:
        done |= direct
        direct |= {key for via, key in forwards if via in done}
    for path, owner, value, *_ in values:
        if (path.stem, owner, value) not in done:
            yield path.stem, owner, value


def test_every_settable_value_is_set_by_a_reader():
    dead = sorted(set(_unset()) - set(KEEP_SETTINGS))
    assert not dead, f"settable values no reader sets: {dead}"


def test_keep_settings_names_only_unset_values():
    defined = {(path.stem, owner, value)
               for path, owner, value, *_ in _settable_values()}
    assert set(KEEP_SETTINGS) <= defined, set(KEEP_SETTINGS) - defined
    assert set(KEEP_SETTINGS) <= set(_unset()), \
        "a kept value has a reader that sets it; drop it from KEEP_SETTINGS"
