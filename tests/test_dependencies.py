"""The package keeps zero runtime dependencies: its modules import only itself and the stdlib."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "refmodel").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"refmodel"}


def imported_modules(path: Path) -> list[str]:
    """Absolute module names a source file imports; relative imports stay inside the package."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_sources_found():
    assert "cli.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_refmodel(path):
    foreign = [name for name in imported_modules(path) if name.split(".")[0] not in ALLOWED]
    assert foreign == []
