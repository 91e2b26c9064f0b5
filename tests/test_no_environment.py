"""Budgets reach the package only as arguments: no module reads the environment."""

import ast
from pathlib import Path

import twistgab

SRC = Path(twistgab.__file__).parent


def test_package_reads_no_environment():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # os.environ, os.getenv, and the same names bound by a from-import
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in ("environ", "environb", "getenv", "getenvb"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"pass a Budgets argument instead of reading the environment at {found}"
