"""Workload inputs and the user pipelines they run through.

Importing this module puts the checkout's ``src/`` first on ``sys.path``
and refuses any other copy of ``cnotroute``, so the benchmark always
measures the source tree it sits in.

Every circuit is made from ``(--seed, index)`` alone; the program sees
only the finished circuit (or circuit text).  Pipeline code calls the
package through ``cr.<name>`` at call time, so the traced run's wrappers,
which are installed on the package namespace too, see these calls.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cnotroute as cr  # noqa: E402

if Path(cr.__file__).resolve().parent != ROOT / "src" / "cnotroute":
    raise ImportError(f"cnotroute imported from {cr.__file__}, not from {ROOT / 'src'}")

import check  # noqa: E402  (binds the package's functions before any tracing)

DEVICES = ("9-square", "16-square", "ibm-qx5", "rigetti-16q-aspen",
           "ibm-q20-tokyo")
DENSE_DEVICES = DEVICES[1:]
SPARSE_GATE_COUNTS = (4, 8, 16)
ONEQ_LABELS = ("H", "S", "T", "X", "Z")
COLD_GATES = 96
COLD_ONEQ = 10

State = Dict[str, Tuple["cr.ArchGraph", "cr.Mapping"]]


def circuit_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _warmup_text() -> str:
    """A fixed 32-gate CNOT circuit on 16 wires, as circuit text."""
    rng = random.Random(2020)
    lines = ["qubits 16"]
    for _ in range(32):
        a, b = rng.sample(range(16), 2)
        lines.append(f"cnot {a} {b}")
    return "\n".join(lines) + "\n"


WARMUP_TEXT = _warmup_text()


def setup() -> State:
    """Load all five architectures and run one warm-up route.

    The warm-up follows the ``cnotroute route`` steps on a CNOT-only
    circuit (parse, route, postprocess, verify, format) and routes the
    SWAP-insertion baseline, so every layer the workloads use has run
    once before timing starts.
    """
    state: State = {}
    for name in DEVICES:
        graph, stock = cr.resolve_architecture(name)
        state[name] = (graph, cr.Mapping(stock))
    graph, m0 = state["16-square"]
    circuit = cr.parse_circuit(WARMUP_TEXT)
    final = cr.postprocess(cr.route_general(circuit, graph, m0))
    baseline = cr.swap_insertion_baseline(circuit, graph, m0)
    if not (cr.verify_equivalence(circuit, final, graph)
            and cr.verify_equivalence(circuit, baseline, graph)):
        raise RuntimeError("warm-up route failed verification")
    cr.format_circuit(final.circuit)
    return state


@dataclass
class Job:
    index: int
    device: str
    circuit: "cr.Circuit"       # the input, as the benchmark built it
    text: Optional[str] = None  # the input as circuit text (CLI-shaped jobs)


@dataclass
class Outcome:
    graph: "cr.ArchGraph"
    routed: "cr.RoutedResult"            # before postprocess
    final: "cr.RoutedResult"             # after postprocess
    baseline: Optional["cr.RoutedResult"]
    text: Optional[str]                  # format_circuit output
    verified: bool                       # the pipeline's own verifier


def _cnot_pipeline(state: State, job: Job) -> Outcome:
    graph, m0 = state[job.device]
    routed = cr.route_cnot_block(job.circuit, graph, m0)
    final = cr.postprocess(routed)
    ok = cr.verify_equivalence(job.circuit, final, graph)
    baseline = cr.swap_insertion_baseline(job.circuit, graph, m0)
    ok = cr.verify_equivalence(job.circuit, baseline, graph) and ok
    return Outcome(graph, routed, final, baseline, None, ok)


def _cli_pipeline(state: State, job: Job) -> Outcome:
    circuit = cr.parse_circuit(job.text)
    graph, stock = cr.resolve_architecture(job.device)
    routed = cr.route_general(circuit, graph, cr.Mapping(stock))
    final = cr.postprocess(routed)
    text = cr.format_circuit(final.circuit)
    return Outcome(graph, routed, final, None, text, True)


def _dense_job(sizes: Dict[str, int], seed: int, index: int) -> Job:
    device = DENSE_DEVICES[index % len(DENSE_DEVICES)]
    circuit = cr.random_cnot_circuit(sizes[device], 256, circuit_seed(seed, index))
    return Job(index, device, circuit)


def _sparse_job(sizes: Dict[str, int], seed: int, index: int) -> Job:
    device = DEVICES[index % len(DEVICES)]
    gates = SPARSE_GATE_COUNTS[(index // len(DEVICES)) % len(SPARSE_GATE_COUNTS)]
    circuit = cr.random_cnot_circuit(sizes[device], gates, circuit_seed(seed, index))
    return Job(index, device, circuit)


def _cold_job(sizes: Dict[str, int], seed: int, index: int) -> Job:
    """96 gates, 10 of them one-qubit gates at random positions."""
    device = DEVICES[index % len(DEVICES)]
    n = sizes[device]
    rng = random.Random(circuit_seed(seed, index))
    oneq_at = set(rng.sample(range(COLD_GATES), COLD_ONEQ))
    gates = []
    for k in range(COLD_GATES):
        if k in oneq_at:
            gates.append(cr.one_qubit(rng.choice(ONEQ_LABELS), rng.randrange(n)))
        else:
            a, b = rng.sample(range(n), 2)
            gates.append(cr.cnot(a, b))
    lines = [f"qubits {n}"]
    for g in gates:
        lines.append(f"1q {g.label} {g.a}" if g.kind == "1q" else f"cnot {g.a} {g.b}")
    return Job(index, device, cr.Circuit(n, gates), "\n".join(lines) + "\n")


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[Dict[str, int], int, int], Job]
    pipeline: Callable[[State, Job], Outcome]
    # A timed run routes at least this many circuits, and takes its
    # fingerprint, cnots_out_mean and peak_rss_mb over exactly these.  At
    # least 100, so that 10 samples lie beyond p90; 120 on dense256, where
    # these take the whole run, to steady its median.
    circuits: int
    # Circuits in a traced run, which routes each twice; fewer on
    # dense256, where one takes about 0.4 s.
    traced: int


WORKLOADS = {
    "sparse16": Workload("sparse16", _sparse_job, _cnot_pipeline, 1500, 1500),
    "dense256": Workload("dense256", _dense_job, _cnot_pipeline, 120, 48),
    "general-cold": Workload("general-cold", _cold_job, _cli_pipeline, 300, 300),
}


def sizes_of(state: State) -> Dict[str, int]:
    return {name: graph.n for name, (graph, _) in state.items()}


def failure(job: Job, out: Outcome) -> Optional[str]:
    """None if every output of the job checks out, else the first reason."""
    if not out.verified:
        return "verify_equivalence rejected an output"
    reason = (check.routing_failure(job.circuit, out.routed, out.graph)
              or check.postprocess_failure(out.routed, out.final, out.graph))
    if reason is None and out.baseline is not None:
        reason = check.routing_failure(job.circuit, out.baseline, out.graph)
        if reason is not None:
            reason = "baseline: " + reason
    if reason is None and job.text is not None:
        reason = (check.parse_failure(job.text, job.circuit)
                  or check.parse_failure(out.text, out.final.circuit))
    return reason


def _gates_line(gates) -> str:
    return ";".join(f"{g.kind},{g.a},{g.b},{g.label}" for g in gates)


def fingerprint_update(digest, job: Job, out: Outcome) -> None:
    """Feed one job's routed gate lists and output mapping into ``digest``."""
    parts = [f"{job.index} {job.device}",
             _gates_line(out.routed.circuit.gates),
             _gates_line(out.final.circuit.gates),
             " ".join(map(str, out.final.output_mapping.nodes))]
    if out.baseline is not None:
        parts.append(_gates_line(out.baseline.circuit.gates))
        parts.append(" ".join(map(str, out.baseline.output_mapping.nodes)))
    digest.update(("\n".join(parts) + "\n").encode())
