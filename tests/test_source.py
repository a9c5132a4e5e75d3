"""Static checks on the library source."""

import ast
from pathlib import Path

import glefield


def test_library_has_no_assert_statements():
    # assert vanishes under python -O, so library control flow must raise
    found = []
    for path in sorted(Path(glefield.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
