"""Random circuit generator, SWAP-insertion baseline, and the harness."""

import math
import random
from dataclasses import replace

import pytest

from cnotroute.arch import ArchGraph
from cnotroute.bench import (BenchConfig, format_table,
                             random_cnot_circuit, report_to_json,
                             run_benchmark, swap_insertion_baseline,
                             trial_seed)
from cnotroute.circuit import Circuit, Mapping, cnot
from cnotroute.synthesis import verify_equivalence

from conftest import random_connected_graph


def test_random_circuit_empty():
    assert random_cnot_circuit(4, 0, 1).gates == ()


def test_random_circuit_deterministic():
    a = random_cnot_circuit(9, 64, 123)
    b = random_cnot_circuit(9, 64, 123)
    assert a.gates == b.gates
    c = random_cnot_circuit(9, 64, 124)
    assert a.gates != c.gates


def test_random_circuit_rejects_single_wire():
    with pytest.raises(ValueError):
        random_cnot_circuit(1, 4, 0)


@pytest.mark.parametrize("n_wires, gate_count", [
    (3, -2), (3, 2.5), (2.5, 3), (3.0, 3), (True, 3), (3, True), (3, "4")])
def test_random_circuit_rejects_counts_that_are_not_ints(n_wires, gate_count):
    with pytest.raises(ValueError):
        random_cnot_circuit(n_wires, gate_count, 1)


def test_random_circuit_pair_uniformity():
    # 1e5 draws over the 240 ordered pairs of 16 wires; every pair count
    # within four standard deviations of the binomial expectation.
    n, draws = 16, 100_000
    circ = random_cnot_circuit(n, draws, 2020)
    counts = {}
    for g in circ.gates:
        counts[(g.a, g.b)] = counts.get((g.a, g.b), 0) + 1
    pairs = n * (n - 1)
    assert len(counts) == pairs
    p = 1.0 / pairs
    mean = draws * p
    sigma = math.sqrt(draws * p * (1 - p))
    for pair, c in counts.items():
        assert abs(c - mean) <= 4 * sigma, f"pair {pair} count {c}"


def test_baseline_adjacent_gates_untouched():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    c = Circuit(3, [cnot(0, 1), cnot(2, 1)])
    r = swap_insertion_baseline(c, g, Mapping.identity(3))
    assert r.circuit.gates == c.gates
    assert r.output_mapping == Mapping.identity(3)
    assert verify_equivalence(c, r, g)


def test_baseline_distance_two_costs_four():
    g = ArchGraph(3, [(0, 1), (1, 2)])
    c = Circuit(3, [cnot(0, 2)])
    r = swap_insertion_baseline(c, g, Mapping.identity(3))
    assert len(r.circuit.gates) == 4
    assert verify_equivalence(c, r, g)


def test_baseline_always_verifies():
    rng = random.Random(51)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(2, 12))
        m0 = Mapping(rng.sample(range(g.n), g.n))
        c = random_cnot_circuit(g.n, rng.randrange(1, 30), rng.randrange(10**6))
        r = swap_insertion_baseline(c, g, m0)
        assert verify_equivalence(c, r, g)


def test_trial_seed_injective_enough():
    seen = set()
    for gc in (4, 8, 256):
        for t in range(100):
            seen.add(trial_seed(7, gc, t))
    assert len(seen) == 300


def test_run_benchmark_smoke():
    cfg = BenchConfig(arch="9-square", gate_counts=(4,), trials=1, seed=5)
    report = run_benchmark(cfg)
    assert len(report.rows) == 1
    assert report.rows[0].verify_rate == 1.0
    assert report.verified_all
    assert report.rows[0].baseline_mean is not None
    text = format_table(report)
    assert "9-square" in text


def test_run_benchmark_no_baseline():
    cfg = BenchConfig(arch="9-square", gate_counts=(4,), trials=2, seed=5,
                      baseline="none")
    report = run_benchmark(cfg)
    assert report.rows[0].baseline_mean is None
    assert report.rows[0].positive is None


def test_report_json_deterministic():
    cfg = BenchConfig(arch="9-square", gate_counts=(4, 8), trials=3, seed=9)
    first = report_to_json(run_benchmark(cfg))
    second = report_to_json(run_benchmark(cfg))
    assert first == second
    assert "wall_time" not in first


def test_report_json_timing_opt_in():
    cfg = BenchConfig(arch="9-square", gate_counts=(4,), trials=1, seed=9)
    text = report_to_json(run_benchmark(cfg), include_timing=True)
    assert "wall_time_s" in text


def test_worker_pool_matches_sequential():
    base = BenchConfig(arch="9-square", gate_counts=(4, 8), trials=4, seed=11)
    pooled = BenchConfig(arch="9-square", gate_counts=(4, 8), trials=4,
                         seed=11, jobs=2)
    assert report_to_json(run_benchmark(base)) == \
        report_to_json(run_benchmark(pooled))


def test_pool_is_no_larger_than_the_task_list(monkeypatch):
    import multiprocessing

    sizes = []

    class RecordingPool:
        """Runs the tasks in this process; starts no worker."""

        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks, chunksize=1):
            return [func(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    base = BenchConfig(arch="9-square", gate_counts=(4,), trials=3, seed=11)
    expected = report_to_json(run_benchmark(base))
    for jobs, pooled in ((8, [3]), (2, [2]), (3, [3])):
        sizes.clear()
        report = run_benchmark(replace(base, jobs=jobs))
        assert sizes == pooled
        assert report_to_json(report) == expected
    sizes.clear()
    run_benchmark(replace(base, trials=1, jobs=4))
    assert sizes == []  # one task runs in this process


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(arch="9-square", trials=0)
    with pytest.raises(ValueError):
        BenchConfig(arch="9-square", gate_counts=())
    with pytest.raises(ValueError, match="without repeats"):
        BenchConfig(arch="9-square", gate_counts=(4, 4), trials=2, seed=1)
    with pytest.raises(ValueError):
        BenchConfig(arch="9-square", baseline="steiner")
    for jobs in (0, -1, 1.5, 2.0, True):
        with pytest.raises(ValueError, match="jobs"):
            BenchConfig(arch="9-square", jobs=jobs)
    for trials in (2.5, 1.0, True):
        with pytest.raises(ValueError, match="trials"):
            BenchConfig(arch="9-square", trials=trials)
    for counts in ((4, 2.5), (4.0,), (True,), 4, None, "48", range(1, 3)):
        with pytest.raises(ValueError, match="gate_counts"):
            BenchConfig(arch="9-square", gate_counts=counts)


def test_unknown_architecture():
    with pytest.raises((KeyError, OSError)):
        run_benchmark(BenchConfig(arch="no-such-device", gate_counts=(4,),
                                  trials=1))
