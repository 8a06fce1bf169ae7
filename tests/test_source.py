import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "catalan_ode").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    """`python -O` strips assert statements, so a runtime check must raise."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def test_all_names_resolve():
    """Every name in `catalan_ode.__all__` exists, so a stale export fails."""
    import catalan_ode

    missing = [name for name in catalan_ode.__all__ if not hasattr(catalan_ode, name)]
    assert missing == []
