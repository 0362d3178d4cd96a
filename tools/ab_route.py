"""Time two source trees of the package against each other in one process.

    python3 tools/ab_route.py BASE_SRC CHANGE_SRC [--circuits 48] [--workload NAME ...]

BASE_SRC and CHANGE_SRC are directories that hold a ``cnotroute``
package, such as the ``src`` directories of two checkouts.  Both are
loaded into one interpreter under different module names, so they share
the process, its heap and the host's drift, and take turns circuit by
circuit; the tree that goes first alternates too.  Three loops, shaped
like the benchmark's workloads, run by default, each ``REPS`` (5) times:

- ``dense256``: ``--circuits`` 256-gate random CNOT circuits on
  16-square, ibm-qx5, rigetti-16q-aspen and ibm-q20-tokyo in turn, warm
  graphs, the benchmark's CNOT pipeline;
- ``sparse16``: for each of ``--circuits`` slots, one random CNOT
  circuit of each of 4, 8 and 16 gates on each of the five devices, 15
  circuits a slot (one routes in well under a millisecond, so one
  circuit a slot would be too short a loop to time), warm graphs, the
  benchmark's CNOT pipeline;
- ``general-cold``: ``--circuits`` 96-gate circuit texts, one gate in
  ten one-qubit, parsed, routed on a graph built afresh from the device
  file by ``route_general``, post-processed and formatted.

A fourth loop runs only when named with ``--workload``, as one of its
circuits takes about 1.5 s:

- ``grid8x8``: ``--circuits`` 256-gate (4n) random CNOT circuits on an
  8x8 grid built from its edges, identity mapping, warm graph, the
  benchmark's CNOT pipeline: a device larger than the stock ones, where
  tree growth and pricing weigh more.

The CNOT pipeline is the one the benchmark times on the two warm
workloads (``perfbench/workloads.py``'s ``_cnot_pipeline``): ``route_cnot_block``, ``postprocess``, ``verify_equivalence``
of the post-processed result, ``swap_insertion_baseline`` and
``verify_equivalence`` of the baseline.

The warm graphs are built afresh from the device files at the start of
every repetition, as a fresh benchmark process builds them, so each
repetition grows its Steiner trees again instead of finding them cached
by the one before; they stay warm across the repetition's circuits.
Circuits are made here, as circuit text from ``SEED`` (7), and each tree
parses them itself, so the inputs do not depend on either tree.  Only
the timed calls are timed, not the graph builds.  Every gate list and
output mapping, routed, post-processed and baseline, and every verdict
must be equal on both sides; on the first difference the tool prints it
and exits 1.  Otherwise it prints, per workload and repetition, both
sides' total seconds and their ratio, change over base, and last the
median ratio over the repetitions.  Exits 2 on a bad argument.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path

DEVICES = ("9-square", "16-square", "ibm-qx5", "rigetti-16q-aspen", "ibm-q20-tokyo")
DENSE_DEVICES = DEVICES[1:]
SPARSE_GATES = (4, 8, 16)
SEED = 7
REPS = 5
LOOPS = ("dense256", "sparse16", "general-cold")
GRID = "grid8x8"
GRID_EDGES = ([(8 * r + c, 8 * r + c + 1) for r in range(8) for c in range(7)]
              + [(8 * r + c, 8 * r + c + 8) for r in range(7) for c in range(8)])


class OutputDiffers(Exception):
    """The two trees routed one circuit differently."""


def load_tree(src: str, name: str):
    """The ``cnotroute`` package under ``src``, imported afresh as module ``name``."""
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]  # else its submodules would be reused
    package = Path(src).resolve() / "cnotroute"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    if spec is None:
        raise FileNotFoundError(f"no cnotroute package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _cnot_text(rng: random.Random, n: int, gates: int) -> str:
    lines = [f"qubits {n}"]
    for _ in range(gates):
        lines.append("cnot {} {}".format(*rng.sample(range(n), 2)))
    return "\n".join(lines) + "\n"


def _mixed_text(rng: random.Random, n: int) -> str:
    lines = [f"qubits {n}"]
    for _ in range(96):
        if rng.random() < 0.1:
            lines.append(f"1q {rng.choice('HSTXZ')} {rng.randrange(n)}")
        else:
            lines.append("cnot {} {}".format(*rng.sample(range(n), 2)))
    return "\n".join(lines) + "\n"


def workloads(sizes: dict, count: int) -> dict:
    """Workload name -> list of (device, circuit text)."""
    rng = random.Random(SEED)
    dense = [DENSE_DEVICES[i % len(DENSE_DEVICES)] for i in range(count)]
    cold = [DEVICES[i % len(DEVICES)] for i in range(count)]
    return {
        "dense256": [(d, _cnot_text(rng, sizes[d], 256)) for d in dense],
        "sparse16": [(d, _cnot_text(rng, sizes[d], gates))
                     for _ in range(count) for gates in SPARSE_GATES for d in DEVICES],
        "general-cold": [(d, _mixed_text(rng, sizes[d])) for d in cold],
        GRID: [(GRID, _cnot_text(rng, sizes[GRID], 4 * sizes[GRID])) for _ in range(count)],
    }


class Side:
    """One loaded tree, its warm graphs and its device files."""

    def __init__(self, module):
        self.cr = module
        folder = Path(module.__file__).parent / "archs"
        self.files = {d: (folder / f"{d}.json").read_text("utf-8") for d in DEVICES}
        self.fresh_graphs()

    def fresh_graphs(self) -> None:
        """Build the warm graphs anew from the device files and the grid's
        edges, their tree caches empty."""
        self.warm = {}
        for d in DEVICES:
            graph, stock = self.cr.arch.parse_arch_json(self.files[d], d)
            self.warm[d] = graph, self.cr.Mapping(stock)
        self.warm[GRID] = (self.cr.ArchGraph(64, GRID_EDGES, name=GRID),
                           self.cr.Mapping.identity(64))

    def prepare(self, workload: str, device: str, text: str):
        """The call to time, as a closure returning comparable output."""
        cr = self.cr
        if workload == "general-cold":
            def run():
                circuit = cr.parse_circuit(text)
                graph, stock = cr.arch.parse_arch_json(self.files[device], device)
                final = cr.postprocess(cr.route_general(circuit, graph, cr.Mapping(stock)))
                return cr.format_circuit(final.circuit), tuple(final.output_mapping)
            return run
        circuit = cr.parse_circuit(text)
        graph, m0 = self.warm[device]

        def run():
            routed = cr.route_cnot_block(circuit, graph, m0)
            final = cr.postprocess(routed)
            ok = cr.verify_equivalence(circuit, final, graph)
            baseline = cr.swap_insertion_baseline(circuit, graph, m0)
            ok = cr.verify_equivalence(circuit, baseline, graph) and ok
            # tuples, whether a tree holds its gates in a list or a tuple
            return [(tuple(r.circuit.gates), tuple(r.output_mapping))
                    for r in (routed, final, baseline)], ok
        return run


def run_workload(sides, workload: str, jobs: list) -> list:
    """Per repetition, each side's total seconds; raises ``OutputDiffers``.

    Each repetition starts on fresh graphs (``Side.fresh_graphs``).
    """
    clock = time.perf_counter
    totals = []
    for rep in range(REPS):
        for side in sides:
            side.fresh_graphs()
        spent = [0.0, 0.0]
        for k, (device, text) in enumerate(jobs):
            runs = [side.prepare(workload, device, text) for side in sides]
            out = [None, None]
            for s in ((0, 1) if (rep + k) % 2 == 0 else (1, 0)):
                t0 = clock()
                out[s] = runs[s]()
                spent[s] += clock() - t0
            if out[0] != out[1]:
                raise OutputDiffers(f"{workload} circuit {k} on {device}: routed output "
                                     f"differs\nbase:   {out[0]!r}\nchange: {out[1]!r}")
        totals.append(tuple(spent))
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--circuits", type=int, default=48)
    parser.add_argument("--workload", action="append",
                        choices=(*LOOPS, GRID),
                        help="run only this loop; may be repeated")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.circuits < 1:
        print("--circuits must be positive", file=sys.stderr)
        return 2
    sides = [Side(load_tree(args.base, "cnotroute_ab_base")),
             Side(load_tree(args.change, "cnotroute_ab_change"))]
    sizes = {d: graph.n for d, (graph, _) in sides[0].warm.items()}
    chosen = args.workload or LOOPS
    loops = workloads(sizes, args.circuits)
    for workload in chosen:
        try:
            totals = run_workload(sides, workload, loops[workload])
        except OutputDiffers as exc:
            print(exc)
            return 1
        ratios = [change / base for base, change in totals]
        for rep, ((base, change), ratio) in enumerate(zip(totals, ratios)):
            print(f"{workload:12s} rep {rep}: base {base:8.3f} s  change {change:8.3f} s  "
                  f"ratio {ratio:.3f}")
        print(f"{workload:12s} median ratio {statistics.median(ratios):.3f} "
              f"over {len(ratios)} reps, {len(loops[workload])} circuits, output equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
