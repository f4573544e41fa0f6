"""tools/code_lines.py on fixed source strings."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


def f(x):
    """Function docstring."""
    # a comment line
    s = """a string literal
that is not a docstring"""
    return (x,
            s)
'''


@pytest.fixture(scope="module")
def cl():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_not_docstrings_comments_or_blank_lines(cl):
    # import, def, both lines of the string literal, both lines of the return
    assert cl.code_lines(SOURCE) == 6


def test_a_class_docstring_and_an_empty_module_count_nothing(cl):
    assert cl.code_lines('class A:\n    """Doc."""\n') == 1
    assert cl.code_lines("") == 0


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout
    assert out.split("\n") == ["     6  a.py", "     1  b.py", "     7  total", ""]
