"""Internal checks must survive ``python -O``, which strips assert statements."""

import ast
from pathlib import Path

import twistgab

SRC = Path(twistgab.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raise ConsistencyError instead of assert at {found}"
