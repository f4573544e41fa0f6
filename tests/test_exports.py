"""Every exported name must exist, so a deletion that misses an export
fails here rather than at a user's import."""

import ast
import importlib
import pathlib
import pkgutil

import detq


def test_module_all_names_resolve():
    for info in pkgutil.iter_modules(detq.__path__):
        module = importlib.import_module(f"detq.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"detq.{info.name}.__all__: {name}"


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(detq.__file__).read_text())
    names = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    for name in names:
        assert hasattr(detq, name), name
