"""Every module of the package and of the suite reads each name it imports,
and the package names each function and class it defines."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "fedstruct").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


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


def _unread_definitions(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes of the modules `sources` (name ->
    source) that no module names as a name, an attribute or an imported
    name, as "module.name"."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named]


def test_every_src_definition_is_read_in_src():
    # code that only the tests call is not part of the package
    assert _unread_definitions({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}) == []


def test_the_guard_names_each_unread_definition():
    sources = {"a": "def f():\n    return g()\n\ndef g():\n    pass\n\nclass C:\n    pass\n",
               "b": "import a\nfrom a import C\n\ndef h():\n    return a.k\n\ndef k():\n    pass\n"}
    assert _unread_definitions(sources) == ["a.f", "b.h"]
