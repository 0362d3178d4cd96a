"""The code-line counter quoted for the package's size, on a known source."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts


class Table:
    """Class docstring."""

    # a comment-only line does not count
    size = (1 +
            2)


def area(r):
    """Function docstring."""
    text = """a string that is
    not a docstring"""
    return math.pi * r * r, text
'''


def test_counts_code_lines_only():
    # import, class, size (two lines), def, text (two lines), return
    assert _load_tool().code_lines(SOURCE) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    assert _load_tool().main([str(path), str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "8", "16"]
    assert lines[-1].split()[1] == "total"
