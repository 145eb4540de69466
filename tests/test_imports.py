"""Every module of the package and of the suite reads each name it imports."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "fedstruct").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unused_imports(source: str) -> list[str]:
    """The names that the imports of `source` bind and no expression of it
    reads, as "line k: name"; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_names_each_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from a import b as c, d\n\ndef f():\n    return d(np.pi)\n")
    assert _unused_imports(source) == ["line 2: os", "line 4: c"]
