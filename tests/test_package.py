import ast
from pathlib import Path

import liftforge

PACKAGE = Path(liftforge.__file__).resolve().parent


def test_package_has_no_assert_statement():
    # `python -O` strips asserts: an internal check there must raise
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert len(list(PACKAGE.rglob("*.py"))) >= 10
    assert found == []
