"""Static checks on the library source."""

import ast
import builtins
from pathlib import Path

import glefield


def _library_trees():
    for path in sorted(Path(glefield.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_library_has_no_assert_statements():
    # assert vanishes under python -O, so library control flow must raise
    found = []
    for path, tree in _library_trees():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_every_library_exception_class_is_raised():
    # an exception class nothing raises is dead API: callers catch it for
    # nothing and the docs promise a failure mode that cannot happen
    classes = {}
    raised = set()
    for path, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (f"{path.name}:{node.lineno}",
                                      {_name(base) for base in node.bases})
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(_name(node.exc))

    def is_exception(name, seen=()):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return True
        return name in classes and name not in seen and any(
            is_exception(base, seen + (name,)) for base in classes[name][1] if base)

    exceptions = {name for name in classes if is_exception(name)}
    assert exceptions
    assert sorted(classes[name][0] for name in exceptions - raised) == []
