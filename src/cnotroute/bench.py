"""Benchmark protocol: random circuits, baseline router, aggregation.

For each gate count the harness draws seeded random CNOT circuits,
routes them with the token-reduction synthesizer (plus cleanup) and with
a naive SWAP-insertion baseline from the same initial mapping, verifies
every output, and aggregates Table-style rows.  Identical (config, seed)
pairs produce byte-identical canonical reports; wall-clock time is kept
out of the canonical serialization for that reason.  Each JSON row is a
``BenchRow``'s fields under their own names, so the table, the JSON and
the library read one record.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .arch import ArchGraph, path_from_successors, resolve_architecture
from .circuit import CNOT, Circuit, Gate, Mapping, cnot
from .synthesis import (RoutedResult, RouteStats, _check_fit, cnot_weight,
                        postprocess, route_cnot_block, verify_equivalence)

DEFAULT_GATE_COUNTS = (4, 8, 16, 32, 64, 128, 256)


class BenchVerificationError(RuntimeError):
    """A routed benchmark circuit failed verification."""


@dataclass(frozen=True)
class BenchConfig:
    arch: str
    gate_counts: Tuple[int, ...] = DEFAULT_GATE_COUNTS
    trials: int = 100
    seed: int = 0
    baseline: str = "swap_insertion"  # or "none"
    postprocess: bool = True
    jobs: int = 1

    def __post_init__(self):
        if not _is_count(self.trials):
            raise ValueError("trials must be >= 1 and an int")
        counts = self.gate_counts
        if (not isinstance(counts, (tuple, list)) or not counts
                or not all(_is_count(c) for c in counts) or len(set(counts)) < len(counts)):
            raise ValueError("gate_counts must be non-empty positive ints, without repeats")
        if self.baseline not in ("swap_insertion", "none"):
            raise ValueError(f"unknown baseline {self.baseline!r}")
        if not _is_count(self.jobs):
            raise ValueError("jobs must be >= 1 and an int")


@dataclass(frozen=True)
class TrialResult:
    gate_count: int
    trial: int
    seed: int
    tr_routed: int           # CNOT weight straight out of synthesis
    tr_final: int            # after post-processing
    baseline_cnots: Optional[int]
    verified: bool


@dataclass(frozen=True)
class BenchRow:
    """One gate count's aggregate; each field is a key of the JSON report's row."""

    gate_count: int
    tr_mean: float
    tr_routed_max: int
    baseline_mean: Optional[float]
    saving_mean_pct: Optional[float]
    saving_max_pct: Optional[float]
    saving_min_pct: Optional[float]
    positive: Optional[float]
    verify_rate: float


@dataclass
class BenchReport:
    arch: str
    n_nodes: int
    config: BenchConfig
    rows: List[BenchRow]
    trials: List[TrialResult] = field(repr=False, default_factory=list)
    wall_time_s: float = 0.0

    @property
    def verified_all(self) -> bool:
        return all(r.verify_rate == 1.0 for r in self.rows)


def _is_count(value, least: int = 1) -> bool:
    """True if ``value`` is an int (not a bool) of at least ``least``."""
    return type(value) is int and value >= least


def random_cnot_circuit(n_wires: int, gate_count: int, seed: int) -> Circuit:
    """Uniform over ordered distinct (control, target) pairs, seeded.

    Raises ValueError unless ``n_wires`` is an int >= 2 and
    ``gate_count`` an int >= 0.
    """
    if not (_is_count(n_wires, 2) and _is_count(gate_count, 0)):
        raise ValueError(f"wires {n_wires!r} and gates {gate_count!r} must be ints >= 2 and >= 0")
    rng = random.Random(seed)
    span = n_wires - 1
    gates = []
    for _ in range(gate_count):
        idx = rng.randrange(n_wires * span)
        control, rest = divmod(idx, span)
        target = rest if rest < control else rest + 1
        gates.append(cnot(control, target))
    return Circuit(n_wires, gates)


def swap_insertion_baseline(c: Circuit, graph: ArchGraph,
                            m0: Mapping) -> RoutedResult:
    """Naive comparator: swap endpoints together, then apply each gate.

    SWAPs along a shortest path are emitted as CNOT triples and the
    moved mapping is kept, so the output mapping generally differs from
    the input one.  As for ``route_general``, the circuit may have fewer
    wires than the graph has nodes, and ``m0`` must be a ``Mapping``
    onto the nodes.
    """
    if any(g.kind != CNOT for g in c.gates):
        raise ValueError("baseline accepts CNOT-only circuits")
    n = graph.n
    _check_fit(c, m0, n)
    pos = list(m0)                              # wire -> node
    at = sorted(range(n), key=pos.__getitem__)  # node -> wire
    gates = []
    for g in c.gates:
        u, v = pos[g.a], pos[g.b]
        path = path_from_successors(graph.succ, u, v)
        for k in range(len(path) - 2):
            a, b = path[k], path[k + 1]
            # a Gate is an immutable tuple, so one serves both outer CNOTs;
            # path nodes are distinct, so no CNOT targets its control
            gates += [ab := Gate(CNOT, a, b), Gate(CNOT, b, a), ab]
            wa, wb = at[a], at[b]
            pos[wa], pos[wb] = b, a
            at[a], at[b] = wb, wa
        gates.append(Gate(CNOT, pos[g.a], pos[g.b]))
    return RoutedResult(Circuit(n, gates), m0, Mapping(pos),
                        RouteStats(len(c.gates), len(gates)))


def trial_seed(seed: int, gate_count: int, trial: int) -> int:
    """Deterministic per-trial seed; plain arithmetic, no hashing."""
    return (seed * 1_000_003 + gate_count) * 1_000_003 + trial


def run_trial(graph: ArchGraph, m0: Mapping, gate_count: int, trial: int,
              seed: int, baseline: str, do_postprocess: bool) -> TrialResult:
    circ = random_cnot_circuit(graph.n, gate_count, seed)
    routed = route_cnot_block(circ, graph, m0)
    ok = verify_equivalence(circ, routed, graph)
    final = postprocess(routed) if do_postprocess else routed
    ok = ok and verify_equivalence(circ, final, graph)
    base = None
    if baseline == "swap_insertion":
        based = swap_insertion_baseline(circ, graph, m0)
        ok = ok and verify_equivalence(circ, based, graph)
        base = based.stats.cnots_routed
    return TrialResult(gate_count, trial, seed, routed.stats.cnots_routed,
                       cnot_weight(final.circuit.gates), base, ok)


_POOL_STATE: dict = {}


def _pool_init(arch_name: str) -> None:
    graph, mapping = resolve_architecture(arch_name)
    _POOL_STATE["graph"] = graph
    _POOL_STATE["m0"] = Mapping(mapping)


def _pool_trial(args) -> TrialResult:
    gate_count, trial, seed, baseline, do_post = args
    return run_trial(_POOL_STATE["graph"], _POOL_STATE["m0"], gate_count,
                     trial, seed, baseline, do_post)


def _aggregate(gate_count: int, results: List[TrialResult]) -> BenchRow:
    trs = [r.tr_final for r in results]
    tr_mean = sum(trs) / len(trs)
    tr_routed_max = max(r.tr_routed for r in results)
    verify_rate = sum(1 for r in results if r.verified) / len(results)
    if results[0].baseline_cnots is None:
        return BenchRow(gate_count, tr_mean, tr_routed_max, None, None, None,
                        None, None, verify_rate)
    savings = [100.0 * (r.baseline_cnots - r.tr_final) / r.baseline_cnots
               for r in results]
    positive = sum(1 for r in results if r.tr_final < r.baseline_cnots) / len(results)
    baseline_mean = sum(r.baseline_cnots for r in results) / len(results)
    return BenchRow(gate_count, tr_mean, tr_routed_max, baseline_mean,
                    sum(savings) / len(savings), max(savings), min(savings),
                    positive, verify_rate)


def run_benchmark(config: BenchConfig) -> BenchReport:
    """Run the full protocol for one architecture.

    Aborts with the failing trial's seed on any verification failure.
    """
    graph, mapping = resolve_architecture(config.arch)
    if mapping is None:
        raise ValueError(f"architecture {config.arch!r} carries no initial mapping")
    m0 = Mapping(mapping)
    started = time.perf_counter()
    tasks = [(gc, t, trial_seed(config.seed, gc, t), config.baseline,
              config.postprocess)
             for gc in config.gate_counts for t in range(config.trials)]
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(workers, initializer=_pool_init,
                     initargs=(config.arch,)) as pool:
            results = pool.map(_pool_trial, tasks, chunksize=8)
    else:
        results = [run_trial(graph, m0, gc, t, s, b, p)
                   for gc, t, s, b, p in tasks]
    for r in results:
        if not r.verified:
            raise BenchVerificationError(
                f"verification failed: arch={config.arch} "
                f"gate_count={r.gate_count} trial={r.trial} seed={r.seed}")
    rows = []
    for gc in config.gate_counts:
        rows.append(_aggregate(gc, [r for r in results if r.gate_count == gc]))
    return BenchReport(graph.name or config.arch, graph.n, config, rows,
                       list(results), time.perf_counter() - started)


def report_to_json(report: BenchReport, include_timing: bool = False) -> str:
    """Canonical machine-readable report; timing only on request.

    Each row holds its ``BenchRow``'s fields under their own names, floats
    rounded to four places.
    """
    def num(x):
        return None if x is None else round(x, 4)

    doc = {
        "architecture": report.arch,
        "nodes": report.n_nodes,
        "seed": report.config.seed,
        "trials": report.config.trials,
        "baseline": report.config.baseline,
        "postprocess": report.config.postprocess,
        "verified": report.verified_all,
        "rows": [{k: num(v) for k, v in vars(r).items()} for r in report.rows],
    }
    if include_timing:
        doc["wall_time_s"] = round(report.wall_time_s, 3)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def format_table(report: BenchReport) -> str:
    head = (f"{'#':>5} {'TR':>9} {'Baseline':>9} {'Mean%':>8} {'Max%':>8} "
            f"{'Min%':>8} {'Positive':>9} {'Verified':>9}")
    lines = [f"architecture: {report.arch} ({report.n_nodes} qubits), "
             f"seed={report.config.seed}, trials={report.config.trials}",
             head, "-" * len(head)]
    for r in report.rows:
        def fmt(x, pct=False):
            if x is None:
                return "-"
            return f"{x:.2f}" + ("%" if pct else "")

        lines.append(
            f"{r.gate_count:>5} {r.tr_mean:>9.2f} {fmt(r.baseline_mean):>9} "
            f"{fmt(r.saving_mean_pct, True):>8} {fmt(r.saving_max_pct, True):>8} "
            f"{fmt(r.saving_min_pct, True):>8} "
            f"{(fmt(100 * r.positive, True) if r.positive is not None else '-'):>9} "
            f"{100 * r.verify_rate:>8.1f}%")
    lines.append(f"wall time: {report.wall_time_s:.2f}s")
    return "\n".join(lines) + "\n"
