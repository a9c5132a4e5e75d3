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


def test_scipy_is_imported_only_where_it_is_used():
    # an import that runs when its module loads (outside any function) loads
    # scipy in every process that imports glefield, sampling included;
    # scipy.signal is not used at all
    found = []
    for path, tree in _library_trees():
        in_functions = {inner for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            else:
                continue
            scipy = [name for name in names if name.split(".")[0] == "scipy"]
            loads = isinstance(node, (ast.Import, ast.ImportFrom)) and node not in in_functions
            if scipy and (loads or any(name.startswith("scipy.signal") for name in scipy)):
                found.append(f"{path.name}:{node.lineno}: {scipy[0]}")
    assert found == []
