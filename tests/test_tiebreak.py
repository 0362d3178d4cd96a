"""``tools/tiebreak.py`` at a tiny size, against the routers it compares.

The tool routes under each tie-break rule by setting
``heuristic._PRICED_TRIALS``.  Its rule 3 row must be the package's own
routing, its ``all`` row the paper's rule as the ``conftest`` reference
routes it, and its paper table the acceptance suite's.
"""

from cnotroute import heuristic, synthesis
from cnotroute.arch import get_architecture
from cnotroute.bench import random_cnot_circuit, trial_seed
from cnotroute.circuit import Mapping
from cnotroute.synthesis import cnot_weight, postprocess, route_cnot_block

from conftest import load_file, reference_reduction
from test_acceptance import PAPER_MEANS_256

tiebreak = load_file("tiebreak", "tools/tiebreak.py")

DEVICE, GATES, TRIALS, SEED = "16-square", 64, 3, 3


def _mean_after_cleanup() -> float:
    graph, stock = get_architecture(DEVICE)
    total = 0
    for t in range(TRIALS):
        c = random_cnot_circuit(graph.n, GATES, trial_seed(SEED, GATES, t))
        total += cnot_weight(postprocess(route_cnot_block(c, graph, Mapping(stock))).circuit.gates)
    return total / TRIALS


def _row(out: str, rule: str) -> str:
    """The printed mean at the one seed, for ``rule`` on the device."""
    return next(line.split()[2] for line in out.splitlines()
                if line.split()[:2] == [DEVICE, rule])


def test_the_rows_are_the_package_and_the_papers_rule(capsys, monkeypatch):
    assert tiebreak.main(["--devices", DEVICE, "--gates", str(GATES), "--trials", str(TRIALS),
                          "--seeds", str(SEED), "--grid-circuits", "0",
                          "--rules", "3", "all"]) == 0
    out = capsys.readouterr().out
    assert heuristic._PRICED_TRIALS == 3  # the tool puts the rule back
    assert _row(out, "3") == f"{_mean_after_cleanup():.2f}"
    monkeypatch.setattr(synthesis, "_token_reduction",
                        lambda graph, rows, sups: reference_reduction(graph, rows, priced=None))
    assert _row(out, "all") == f"{_mean_after_cleanup():.2f}"
    # the two rules differ on this set, so the rows tell them apart
    assert _row(out, "3") != _row(out, "all")


def test_the_paper_table_is_the_acceptance_suites():
    assert tiebreak.PAPER_MEANS_256 == PAPER_MEANS_256
