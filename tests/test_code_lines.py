"""The code-line counter quoted for the package's size, on a known source."""

from conftest import load_file


def _load_tool():
    return load_file("code_lines", "tools/code_lines.py")


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


def test_no_path_or_a_directory_prints_usage(tmp_path, capsys):
    tool = _load_tool()
    for paths in ([], [str(tmp_path)]):
        assert tool.main(paths) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("usage: ")
