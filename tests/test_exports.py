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


def test_package_imports_are_in_module_all():
    # the package re-exports a module's public names only
    tree = ast.parse(pathlib.Path(detq.__file__).read_text())
    missing = [
        f"detq.{node.module}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name not in importlib.import_module(f"detq.{node.module}").__all__
    ]
    assert not missing, missing


def test_no_imports_inside_functions():
    # module-level imports only, so every dependency shows at the top of its file
    src = pathlib.Path(detq.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not found, found
