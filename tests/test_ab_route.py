"""The in-process A/B timing tool, ``tools/ab_route.py``, on a few circuits.

With the checkout on both sides it must route every loop, find the
output equal and print one median ratio per loop; the tests run one
repetition, not the tool's ``REPS``.  Each repetition must start on
graphs with empty Steiner caches, and the two warm loops must run the
benchmark's whole CNOT pipeline.  Against a copy whose tie order is
reversed, or whose post-processing or baseline emits a SWAP the other
way round, it must report the difference and exit 1.  The grid loop
must route 256-gate circuits on an 8x8 grid, and run only when named.
"""

import shutil

import pytest

from conftest import ROOT, grid_graph, load_file

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


def test_every_repetition_starts_on_graphs_with_empty_tree_caches():
    tool = _tool()
    tool.REPS = 2
    src = str(ROOT / "src")
    sides = [tool.Side(tool.load_tree(src, "cnotroute_ab_base")),
             tool.Side(tool.load_tree(src, "cnotroute_ab_change"))]
    jobs = tool.workloads({d: g.n for d, (g, _) in sides[0].warm.items()}, 5)["sparse16"]
    cached = []  # trees cached on the side's graphs as each circuit is prepared
    for side in sides:
        def prepare(workload, device, text, side=side, original=side.prepare):
            cached.append(sum(len(g._steiner) for g, _ in side.warm.values()))
            return original(workload, device, text)
        side.prepare = prepare
    assert len(tool.run_workload(sides, "sparse16", jobs)) == 2
    per_rep = 2 * len(jobs)
    assert len(cached) == 2 * per_rep
    assert cached[:2] == cached[per_rep:per_rep + 2] == [0, 0]
    assert cached[per_rep - 1] > 0


def test_the_warm_loops_run_the_whole_cnot_pipeline():
    tool = _tool()
    src = str(ROOT / "src")
    sides = [tool.Side(tool.load_tree(src, "cnotroute_ab_base")),
             tool.Side(tool.load_tree(src, "cnotroute_ab_change"))]
    calls = {}
    for side in sides:
        for stage in ("route_cnot_block", "postprocess", "verify_equivalence",
                      "swap_insertion_baseline"):
            def counted(*args, stage=stage, call=getattr(side.cr, stage)):
                calls[stage] = calls.get(stage, 0) + 1
                return call(*args)
            setattr(side.cr, stage, counted)
    for workload in ("dense256", "sparse16"):
        calls.clear()
        jobs = tool.workloads({d: g.n for d, (g, _) in sides[0].warm.items()}, 2)[workload]
        tool.run_workload(sides, workload, jobs)
        per_side = {stage: count // 2 for stage, count in calls.items()}
        assert per_side == {"route_cnot_block": len(jobs), "postprocess": len(jobs),
                            "verify_equivalence": 2 * len(jobs),
                            "swap_insertion_baseline": len(jobs)}, (workload, calls)


def test_the_grid_loop_runs_256_gates_on_a_64_node_grid_and_only_when_named(capsys):
    tool = _tool()
    src = str(ROOT / "src")
    side = tool.Side(tool.load_tree(src, "cnotroute_ab_base"))
    graph, m0 = side.warm["grid8x8"]
    assert graph.edges == grid_graph(8, 8).edges and m0 == tuple(range(64))
    jobs = tool.workloads({d: g.n for d, (g, _) in side.warm.items()}, 3)["grid8x8"]
    assert len(jobs) == 3
    for device, text in jobs:
        circuit = side.cr.parse_circuit(text)
        assert device == "grid8x8" and circuit.n_wires == 64 and len(circuit.gates) == 256
    run = []  # the loops main runs, each timed as one equal repetition
    tool.run_workload = lambda sides, workload, jobs: run.append(workload) or [(1.0, 1.0)]
    assert tool.main([src, src, "--circuits", "1"]) == 0
    assert run == LOOPS
    run.clear()
    assert tool.main([src, src, "--circuits", "1", "--workload", "grid8x8"]) == 0
    assert run == ["grid8x8"]
    capsys.readouterr()


def _a_changed_copy_fails(tmp_path, capsys, module, old, new):
    """The tool against a copy of the package with ``old`` made ``new`` in ``module``."""
    shutil.copytree(ROOT / "src" / "cnotroute", tmp_path / "cnotroute")
    path = tmp_path / "cnotroute" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    code = _tool().main([str(ROOT / "src"), str(tmp_path),
                         "--circuits", "4", "--workload", "dense256"])
    assert code == 1
    assert "routed output differs" in capsys.readouterr().out


def test_a_tree_that_routes_differently_fails(tmp_path, capsys):
    # ties broken the other way: the routed gate lists differ
    _a_changed_copy_fails(tmp_path, capsys, "heuristic.py",
                          "    found.sort()\n", "    found.sort(reverse=True)\n")


@pytest.mark.parametrize("module, old, new", [
    ("synthesis.py", "            c = a\n", "            c = b\n"),
    ("bench.py", "[ab := Gate(CNOT, a, b), Gate(CNOT, b, a), ab]",
     "[ba := Gate(CNOT, b, a), Gate(CNOT, a, b), ba]"),
])
def test_a_tree_whose_postprocessing_or_baseline_differs_fails(tmp_path, capsys, module,
                                                                old, new):
    # a SWAP's three CNOTs the other way round: only these gate lists differ
    _a_changed_copy_fails(tmp_path, capsys, module, old, new)


def test_bad_arguments_exit_2(capsys):
    tool = _tool()
    src = str(ROOT / "src")
    assert tool.main([src]) == 2
    assert tool.main([src, src, "--circuits", "0"]) == 2
    capsys.readouterr()
