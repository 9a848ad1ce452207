"""scripts/src_lines.py counts raw and code lines of a package.

The script is loaded as a module and `count` is run on a small package
written here, whose lines are counted by hand.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "src_lines.py"

# 19 lines; code lines are marked "code"
MODULE = '''"""Module docstring
over two lines."""

import os  # code


# a comment line
def f(x):  # code
    """Function docstring."""
    s = """a string, not a docstring: code
    # inside the string, so code"""
    return x  # code


class C:  # code
    \'\'\'Class docstring.\'\'\'

    async def g(self):  # code
        "Method docstring."
'''

# 3 lines, 2 of them code: a docstring is only a body's first statement
SUBMODULE = '''x = 1
"""not first, so code"""
    # an indented comment
'''


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_skips_blank_comment_and_docstring_lines(src_lines, tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "mod.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "pkg" / "sub" / "more.py").write_text(SUBMODULE, encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert src_lines.count(tmp_path / "pkg" / "sub") == (3, 2)
    assert src_lines.count(tmp_path / "pkg") == (19 + 3, 7 + 2)


def test_main_prints_one_line_per_directory(src_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n", encoding="utf-8")
    src_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == f"{tmp_path}: raw 2, code 1\n"
