"""What scoring fewer tie trials costs in CNOTs, and what it saves in time.

    python3 tools/tiebreak.py [--trials 100] [--gates 256] [--seeds 2020 1 2]
        [--devices NAME ...] [--grid-circuits 10] [--rules 1 2 3 all]

The synthesizer breaks a tie among its cheapest reductions by look-ahead:
every tied candidate is trial-run and given a lower bound on its loss,
and the ``heuristic._PRICED_TRIALS`` trials lowest in (bound, index) are
scored by their loss, the smallest winning.  This tool sets that constant
to each rule in turn: 1, 2, 3 (the package's) and ``all``, every trial
scored, which is the paper's rule.  For each rule, seed and device it
runs the benchmark's protocol (``run_benchmark``): ``--trials`` random
CNOT circuits of ``--gates`` gates, routed from the stock mapping,
post-processed and verified, without the baseline.  It prints, per device
and rule:

- the mean CNOTs after cleanup at each seed, their mean over the seeds
  and their spread (largest less smallest);
- ``vs all``, the mean over the seeds less that of rule ``all``;
- at 256 gates, the deviation from the paper's table at the first seed
  and of the mean over the seeds.

Then the seconds per sweep, one rule at one seed over every device, and
the same means and seconds for random circuits of 4n CNOTs on 6x6 and
8x8 grids, ``--grid-circuits`` a seed, from the identity mapping.  A
verification failure raises.  Everything runs in this one process; the
package is read from ``src/`` beside this file when it is not installed.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cnotroute import heuristic  # noqa: E402
from cnotroute.arch import ArchGraph, list_architectures  # noqa: E402
from cnotroute.bench import (BenchConfig, random_cnot_circuit, run_benchmark,  # noqa: E402
                             trial_seed)
from cnotroute.circuit import Mapping  # noqa: E402
from cnotroute.synthesis import (cnot_weight, postprocess, route_cnot_block,  # noqa: E402
                                 verify_equivalence)

# the paper's mean CNOTs after cleanup at 256 gates
PAPER_MEANS_256 = {
    "9-square": 43.16,
    "16-square": 163.48,
    "ibm-qx5": 201.48,
    "rigetti-16q-aspen": 228.57,
    "ibm-q20-tokyo": 235.83,
}
RULES = {"1": 1, "2": 2, "3": 3, "all": None}
GRIDS = (6, 8)


def grid(side: int) -> ArchGraph:
    """A side x side grid, node r * side + c."""
    edges = [(side * r + c, side * r + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(side * r + c, side * r + c + side) for r in range(side - 1) for c in range(side)]
    return ArchGraph(side * side, edges, name=f"{side}x{side}")


def grid_mean(graph: ArchGraph, circuits: int, seed: int) -> float:
    """Mean CNOTs after cleanup of ``circuits`` random 4n-gate circuits."""
    m0 = Mapping.identity(graph.n)
    gates = 4 * graph.n
    total = 0
    for i in range(circuits):
        c = random_cnot_circuit(graph.n, gates, trial_seed(seed, gates, i))
        routed = route_cnot_block(c, graph, m0)
        final = postprocess(routed)
        if not (verify_equivalence(c, routed, graph) and verify_equivalence(c, final, graph)):
            raise RuntimeError(f"{graph.name} circuit {i} at seed {seed} failed verification")
        total += cnot_weight(final.circuit.gates)
    return total / circuits


def measure(rules, devices, seeds, trials: int, gates: int, grid_circuits: int) -> tuple:
    """(means, seconds): means[(rule, target, seed)] and seconds[(rule, target or
    "sweep", seed)], each rule run with ``_PRICED_TRIALS`` set to it."""
    means, seconds = {}, {}
    saved = heuristic._PRICED_TRIALS
    try:
        for rule in rules:
            heuristic._PRICED_TRIALS = RULES[rule]
            for seed in seeds:
                started = time.perf_counter()
                for device in devices:
                    report = run_benchmark(BenchConfig(arch=device, gate_counts=(gates,),
                                                       trials=trials, seed=seed,
                                                       baseline="none"))
                    means[rule, device, seed] = report.rows[0].tr_mean
                seconds[rule, "sweep", seed] = time.perf_counter() - started
                for side in GRIDS if grid_circuits else ():
                    graph = grid(side)
                    started = time.perf_counter()
                    means[rule, graph.name, seed] = grid_mean(graph, grid_circuits, seed)
                    seconds[rule, graph.name, seed] = time.perf_counter() - started
    finally:
        heuristic._PRICED_TRIALS = saved
    return means, seconds


def table(means, rules, targets, seeds, paper: bool) -> list:
    """Lines of means per target and rule, against rule ``all`` if it was run."""
    head = f"{'device':<18} {'rule':>4} " + "".join(f"{s:>9}" for s in seeds)
    head += f"{'mean':>9}{'spread':>8}{'vs all':>8}"
    if paper:
        head += f"{'paper':>9}{'dev ' + str(seeds[0]):>10}{'dev mean':>10}"
    lines = [head]
    for target in targets:
        base = statistics.fmean(means["all", target, s] for s in seeds) if "all" in rules else None
        for rule in rules:
            row = [means[rule, target, s] for s in seeds]
            mean = statistics.fmean(row)
            line = f"{target:<18} {rule:>4} " + "".join(f"{m:>9.2f}" for m in row)
            line += f"{mean:>9.2f}{max(row) - min(row):>8.2f}"
            line += f"{'-':>8}" if base is None else f"{mean - base:>+8.2f}"
            if paper:
                p = PAPER_MEANS_256[target]
                line += f"{p:>9.2f}{100 * (row[0] - p) / p:>+9.2f}%{100 * (mean - p) / p:>+9.2f}%"
            lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--gates", type=int, default=256)
    parser.add_argument("--seeds", type=int, nargs="+", default=[2020, 1, 2])
    parser.add_argument("--devices", nargs="+", default=list_architectures(),
                        choices=list_architectures())
    parser.add_argument("--grid-circuits", type=int, default=10)
    parser.add_argument("--rules", nargs="+", default=list(RULES), choices=list(RULES))
    args = parser.parse_args(argv)
    rules = [r for r in RULES if r in args.rules]
    means, seconds = measure(rules, args.devices, args.seeds, args.trials, args.gates,
                             args.grid_circuits)
    print(f"tie trials scored per step: {args.trials} circuits of {args.gates} CNOTs "
          f"a device and seed; mean CNOTs after cleanup")
    print(f"python {platform.python_version()}, {os.cpu_count()} CPUs, one process")
    print()
    paper = args.gates == 256 and set(args.devices) <= PAPER_MEANS_256.keys()
    print("\n".join(table(means, rules, args.devices, args.seeds, paper)))
    print()
    print("seconds per sweep (every device above, one seed)")
    print(f"{'rule':>4} " + "".join(f"{s:>9}" for s in args.seeds))
    for rule in rules:
        print(f"{rule:>4} " + "".join(f"{seconds[rule, 'sweep', s]:>9.2f}" for s in args.seeds))
    if args.grid_circuits:
        names = [f"{side}x{side}" for side in GRIDS]
        print()
        print(f"grids: {args.grid_circuits} circuits of 4n CNOTs a seed, identity mapping")
        print("\n".join(table(means, rules, names, args.seeds, False)))
        print()
        print("seconds per grid and seed")
        print(f"{'grid':<18} {'rule':>4} " + "".join(f"{s:>9}" for s in args.seeds))
        for name in names:
            for rule in rules:
                print(f"{name:<18} {rule:>4} "
                      + "".join(f"{seconds[rule, name, s]:>9.2f}" for s in args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
