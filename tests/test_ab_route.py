"""The in-process A/B timing tool, ``tools/ab_route.py``, on a few circuits.

With the checkout on both sides it must route every loop, find the
output equal and print one median ratio per loop; the tests run one
repetition, not the tool's ``REPS``.  Against a copy whose
tie order is reversed it must report the difference and exit 1.
"""

import shutil

from conftest import ROOT, load_file

LOOPS = ["dense256", "sparse16", "general-cold"]


def _tool():
    tool = load_file("ab_route", "tools/ab_route.py")
    tool.REPS = 1
    return tool


def test_the_checkout_against_itself_routes_equal_output(capsys):
    src = str(ROOT / "src")
    assert _tool().main([src, src, "--circuits", "3"]) == 0
    medians = [line.split() for line in capsys.readouterr().out.splitlines()
               if "median ratio" in line]
    assert [m[0] for m in medians] == LOOPS
    assert all(m[-2:] == ["output", "equal"] and float(m[3]) > 0 for m in medians)


def test_a_tree_that_routes_differently_fails(tmp_path, capsys):
    shutil.copytree(ROOT / "src" / "cnotroute", tmp_path / "cnotroute")
    heuristic = tmp_path / "cnotroute" / "heuristic.py"
    text = heuristic.read_text()
    assert text.count("    found.sort()\n") == 1
    heuristic.write_text(text.replace("    found.sort()\n", "    found.sort(reverse=True)\n"))
    code = _tool().main([str(ROOT / "src"), str(tmp_path),
                         "--circuits", "4", "--workload", "dense256"])
    assert code == 1
    assert "routed output differs" in capsys.readouterr().out


def test_bad_arguments_exit_2(capsys):
    tool = _tool()
    src = str(ROOT / "src")
    assert tool.main([src]) == 2
    assert tool.main([src, src, "--circuits", "0"]) == 2
    capsys.readouterr()
