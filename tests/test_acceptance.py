"""Acceptance suite: one test per exit criterion, printed pass lines.

Criterion 1 runs the full comparison protocol (5 architectures x 7 gate
counts x 100 trials, all verified); the sweep is session-scoped so the
gate-count bound, regression, and dominance criteria reuse its data.
Run with ``pytest tests/test_acceptance.py -s`` to watch the lines.
"""

import os
import random
import time
from itertools import permutations, product

import pytest

from cnotroute.arch import get_architecture, list_architectures
from cnotroute.bench import (BenchConfig, random_cnot_circuit, report_to_json,
                             run_benchmark)
from cnotroute.circuit import Circuit, Mapping, cnot
from cnotroute.gf2 import BitMatrix, SingularMatrixError, invert, mat_mul, transpose
from cnotroute.heuristic import build_cost_table, hungarian_assign
from cnotroute.synthesis import (complies, linear_matrix, postprocess,
                                 route_cnot_block, verify_equivalence)

from conftest import (ball_distances, bfs_distances, bits_of, brute_force_unit_combinations,
                      matrix, ops_to_matrix, random_connected_graph,
                      random_invertible_matrix, random_reversible_rows,
                      unit_combinations)

SWEEP_SEED = 2020
PAPER_MEANS_256 = {
    "9-square": 43.16,
    "16-square": 163.48,
    "ibm-qx5": 201.48,
    "rigetti-16q-aspen": 228.57,
    "ibm-q20-tokyo": 235.83,
}


@pytest.fixture(scope="session")
def sweep():
    # pooled trials equal sequential ones (test_worker_pool_matches_sequential)
    jobs = os.cpu_count() or 1
    reports = {}
    started = time.perf_counter()
    for arch in list_architectures():
        reports[arch] = run_benchmark(BenchConfig(arch=arch, seed=SWEEP_SEED,
                                                  jobs=jobs))
    reports["__elapsed__"] = time.perf_counter() - started
    return reports


def test_criterion_1_correctness(sweep):
    total = 0
    for arch in list_architectures():
        report = sweep[arch]
        assert report.verified_all
        for row in report.rows:
            assert row.verify_rate == 1.0
        total += len(report.trials)
        assert all(t.verified for t in report.trials)
    assert total >= 3500
    elapsed = sweep["__elapsed__"]
    print(f"\nACCEPTANCE 1 PASS: {total} routings, 100% verified pre- and "
          f"post-cleanup (incl. baseline), {elapsed / 60:.1f} min")
    assert elapsed < 3600


def test_criterion_1_independent_compliance_sample(sweep):
    # spot-check edge compliance without going through the verifier
    for arch in list_architectures():
        graph, mapping = get_architecture(arch)
        m0 = Mapping(mapping)
        picks = sweep[arch].trials[:3] + sweep[arch].trials[-3:]
        for t in picks:
            circ = random_cnot_circuit(graph.n, t.gate_count, t.seed)
            routed = route_cnot_block(circ, graph, m0)
            assert complies(routed.circuit, graph)
            assert complies(postprocess(routed).circuit, graph)
    print("ACCEPTANCE 1b PASS: independent edge-compliance spot checks")


def test_criterion_2_gate_count_bound(sweep):
    for arch in list_architectures():
        report = sweep[arch]
        n = report.n_nodes
        bound = n * (6 * (n - 2) + 1)
        worst = max(t.tr_routed for t in report.trials)
        assert worst <= bound, f"{arch}: {worst} > {bound}"
    print("ACCEPTANCE 2 PASS: every routed block within n(6(n-2)+1) CNOTs")


def test_criterion_3_table_regression(sweep):
    lines = []
    for arch, target in PAPER_MEANS_256.items():
        row = next(r for r in sweep[arch].rows if r.gate_count == 256)
        deviation = (row.tr_mean - target) / target
        flag = "ok" if abs(deviation) <= 0.20 else "FLAG(>20%)"
        lines.append(f"{arch}: mean={row.tr_mean:.2f} target={target} "
                     f"dev={100 * deviation:+.1f}% {flag}")
        assert abs(deviation) <= 0.40, lines[-1]
        # the router stays within 1% of the published quality: a loss
        # beyond it fails here, whatever pinned output is updated with it
        assert deviation <= 0.01, lines[-1]
    print("ACCEPTANCE 3 PASS (256-gate means vs published):")
    for line in lines:
        print(f"  {line}")


def test_criterion_4_baseline_dominance(sweep):
    for arch in list_architectures():
        for row in sweep[arch].rows:
            if row.gate_count >= 32:
                assert row.positive >= 0.90, \
                    f"{arch}@{row.gate_count}: positive={row.positive}"
    print("ACCEPTANCE 4 PASS: token reduction beats the SWAP baseline in "
          ">=90% of trials at gate counts >=32")


def test_saturation_trend(sweep):
    for arch in list_architectures():
        rows = {r.gate_count: r.tr_mean for r in sweep[arch].rows}
        assert rows[256] <= 1.3 * rows[64], \
            f"{arch}: mean(256)={rows[256]:.2f} vs mean(64)={rows[64]:.2f}"
    print("ACCEPTANCE 3b PASS: output size saturates with input length")


def test_criterion_5_oracle_suites():
    # unit combinations vs exhaustive subset enumeration
    for n in (1, 2, 3):
        for rows in product(range(1, 1 << n), repeat=n):
            m = BitMatrix(n, list(rows))
            try:
                invert(m)
            except SingularMatrixError:
                continue
            for u in range(n):
                assert unit_combinations(m, u) == \
                    brute_force_unit_combinations(m, u)
    rng = random.Random(101)
    for n in (4, 5, 6, 8, 10):
        for _ in range(60):
            m = random_invertible_matrix(rng, n)
            u = rng.randrange(n)
            assert unit_combinations(m, u) == \
                brute_force_unit_combinations(m, u)

    # assignment vs factorial brute force
    from cnotroute.heuristic import CostTable
    for _ in range(60):
        n = rng.randrange(1, 7)
        entries = [[rng.randrange(40) for _ in range(n)] for _ in range(n)]
        table = CostTable(tuple(tuple(r) for r in entries), (0,) * n,
                          tuple(range(n)), tuple(range(n)))
        best = min(sum(entries[u][p[u]] for u in range(n))
                   for p in permutations(range(n)))
        assert hungarian_assign(table).total == best

    # shortest paths vs breadth-first search on 200 random graphs
    for _ in range(200):
        n = rng.randrange(2, 31)
        g = random_connected_graph(rng, n, extra=rng.randrange(4))
        assert ball_distances(g) == bfs_distances(n, g.edges)

    # pricing the full cost table restores the state bit-for-bit
    for _ in range(15):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        rows = random_reversible_rows(rng, g, 3 * g.n)
        snapshot = list(rows)
        build_cost_table(g, rows)
        assert rows == snapshot
    print("ACCEPTANCE 5 PASS: solver/assignment/shortest-path/cost oracles "
          "agree 100%")


def test_criterion_6_worked_example_goldens(path4):
    # golden matrices
    gate_matrices = [
        matrix([[1, 0, 0, 0], [0, 1, 0, 0],
                [1, 0, 1, 0], [0, 0, 0, 1]]),
        matrix([[1, 0, 0, 0], [0, 1, 0, 0],
                [0, 0, 1, 0], [0, 0, 1, 1]]),
    ]
    p = mat_mul(gate_matrices[1], gate_matrices[0])
    assert bits_of(p) == [[1, 0, 0, 0], [0, 1, 0, 0],
                          [1, 0, 1, 0], [1, 0, 1, 1]]
    circuit = Circuit(4, [cnot(0, 2), cnot(2, 3)])
    assert linear_matrix(circuit.gates, 4) == p
    pt = transpose(p)
    assert bits_of(pt) == [[1, 0, 1, 1], [0, 1, 0, 0],
                           [0, 0, 1, 1], [0, 0, 0, 1]]

    # golden six-factor decomposition recomposes P^T
    factors = [
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    ]
    acc = BitMatrix.identity(4)
    for bits in reversed(factors):
        acc = mat_mul(matrix(bits), acc)
    assert acc == pt

    # golden op replay: swap the first two nodes, add down the line;
    # ends at a transposed permutation exchanging the first two labels
    ops = [("SWAP", 0, 1), ("ADD", 1, 2), ("ADD", 2, 3)]
    assert all(path4.is_edge(a, b) for _, a, b in ops)
    replayed = mat_mul(ops_to_matrix(ops, 4), pt)
    assert bits_of(replayed) == [[0, 1, 0, 0], [1, 0, 0, 0],
                                    [0, 0, 1, 0], [0, 0, 0, 1]]
    holder = [0] * 4
    for u, row in enumerate(replayed.rows):
        holder[row.bit_length() - 1] = u
    replay_mapping = Mapping([holder[w] for w in range(4)])
    assert replay_mapping == Mapping([1, 0, 2, 3])

    # the published routed pair verifies against that very mapping
    from cnotroute.synthesis import RoutedResult, RouteStats
    published = RoutedResult(
        Circuit(4, [cnot(0, 1), cnot(1, 0), cnot(0, 1), cnot(1, 2), cnot(2, 3)]),
        Mapping.identity(4), Mapping([1, 0, 2, 3]), RouteStats(2, 5))
    assert verify_equivalence(circuit, published, path4)

    # our synthesizer's output: exactly equivalent, within the example's
    # op budget after cleanup
    routed = route_cnot_block(circuit, path4, Mapping.identity(4))
    assert verify_equivalence(circuit, routed, path4)
    final = postprocess(routed)
    assert verify_equivalence(circuit, final, path4)
    assert final.stats.cnots_final <= 7
    print(f"ACCEPTANCE 6 PASS: goldens reproduced; routed example verified "
          f"({final.stats.cnots_final} CNOTs, output mapping "
          f"{list(routed.output_mapping.nodes)})")


def test_criterion_7_determinism():
    cfg = BenchConfig(arch="16-square", gate_counts=(4, 8, 16), trials=10,
                      seed=SWEEP_SEED)
    first = report_to_json(run_benchmark(cfg))
    second = report_to_json(run_benchmark(cfg))
    assert first == second
    print("ACCEPTANCE 7 PASS: identical seeds give byte-identical reports")
