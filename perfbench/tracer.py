"""Spans around the package's layers, recorded from outside the package.

``Tracer.active`` wraps the public functions of the layer modules and
the ``ArchGraph`` constructor for the length of one request.  A wrapper
replaces the original under every name that refers to it in any
``cnotroute`` module, because the package calls across modules through
names bound at import time (``heuristic`` imports ``gen_steiner``,
``invert``, ``tree_reduce_tracked`` and ``reduction_recovery``;
``synthesis`` imports ``heuristic_token_reduction``).  Patching only the
defining module would miss those calls.

Each span is (id, parent id, name id, request id, start ns, end ns), kept
in one flat in-memory array and written out by ``write``.  A layer's
self time is its span minus the child spans it contains.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

LAYERS = ("heuristic", "arch", "gf2", "rowgraph", "synthesis", "bench", "circuit")

# Helpers that run once per row operation or per gate inside the layers
# above; a wrapper costs more than their work and would swamp their
# callers' self time.  Their time shows in the caller's self time.
UNWRAPPED = {
    "arch": {"nearest_neighbours", "path_from_successors"},
    "gf2": {"is_unit", "row_add", "unit_index", "vec_support", "vec_weight"},
    "rowgraph": {"apply_recovery", "apply_schedule_tracked", "undo_operations"},
    "circuit": {"cnot", "one_qubit", "swap_gate"},
}

FIELDS = ("id", "parent", "name", "request", "start_ns", "end_ns")


class Tracer:
    def __init__(self) -> None:
        self.names = []                 # name id -> "layer.function"
        self.spans = array("q")         # FIELDS, flattened
        self.request = 0
        self._stack = [0]               # open span ids; 0 = no parent
        self._ids = itertools.count(1)
        self._graph_serial: Dict[int, int] = {}
        self._serials = itertools.count(1)
        self.steiner_keys = set()       # distinct (graph, root, terminals)
        self._patches = self._find_patches()  # (owner, name, original, wrapper)

    # -- recording -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn, before=None):
        nid = self._name_id(name)
        stack = self._stack
        push, pop = stack.append, stack.pop
        record = self.spans.extend
        ids = self._ids
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = next(ids)
            parent = stack[-1]
            push(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                pop()
                record((sid, parent, nid, tracer.request, t0, t1))

        return traced

    @contextmanager
    def active(self, name: str, request: int):
        """Wrap the package and open a benchmark-level span, for one request.

        Installing takes a few hundred attribute assignments, so a run can
        switch tracing on and off around every circuit.
        """
        self.request = request
        nid = self._name_id(name)
        sid = next(self._ids)
        parent = self._stack[-1]
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        try:
            self._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                yield
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans.extend((sid, parent, nid, request, t0, t1))
        finally:
            for owner, key, original, _ in self._patches:
                setattr(owner, key, original)

    def _on_arch_graph(self, args) -> None:
        self._graph_serial[id(args[0])] = next(self._serials)

    def _on_gen_steiner(self, args) -> None:
        graph, terminals, root = args
        mask = 0
        for t in terminals:
            mask |= 1 << t
        self.steiner_keys.add((self._graph_serial.get(id(graph), -1), root, mask))

    # -- patching --------------------------------------------------------
    def _find_patches(self) -> list:
        package = [m for name, m in list(sys.modules.items())
                   if name == "cnotroute" or name.startswith("cnotroute.")]
        hooks = {"arch.gen_steiner": self._on_gen_steiner}
        patches = []
        for layer in LAYERS:
            module = sys.modules[f"cnotroute.{layer}"]
            skip = UNWRAPPED.get(layer, ())
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or attr in skip
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, obj, hooks.get(name))
                for m in package:
                    for key, value in vars(m).items():
                        if value is obj:
                            patches.append((m, key, obj, wrapper))
        graph_cls = sys.modules["cnotroute.arch"].ArchGraph
        init = graph_cls.__init__
        patches.append((graph_cls, "__init__", init,
                        self._wrap("arch.ArchGraph", init, self._on_arch_graph)))
        return patches

    # -- reporting -------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.spans) // len(FIELDS)

    def write(self, directory: Path, stem: str) -> Path:
        """Write the spans as raw int64 rows plus a JSON header."""
        directory.mkdir(parents=True, exist_ok=True)
        data = directory / f"{stem}.spans.bin"
        with open(data, "wb") as fh:
            self.spans.tofile(fh)
        header = {"fields": FIELDS, "dtype": "int64", "clock": "perf_counter_ns",
                  "names": self.names, "rows": self.count}
        (directory / f"{stem}.spans.json").write_text(json.dumps(header, indent=1) + "\n")
        return data

    def table(self) -> Tuple[Dict[str, dict], int]:
        """Per span name: calls, calls inside circuit requests, inclusive
        seconds and self seconds; plus the number of ``build_cost_table``
        spans with no ``loss`` span above them (the loop iterations).
        """
        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(FIELDS))
        sid, parent, nid = rows[:, 0], rows[:, 1], rows[:, 2]
        dur = (rows[:, 5] - rows[:, 4]).astype(np.float64) / 1e9
        order = np.argsort(sid)
        has_parent = parent != 0
        parent_row = np.full(len(rows), -1)
        parent_row[has_parent] = order[np.searchsorted(sid[order], parent[has_parent])]
        child = np.bincount(parent_row[has_parent], weights=dur[has_parent],
                            minlength=len(rows))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        request_calls = np.bincount(nid[rows[:, 3] > 0], minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        out = {name: {"calls": int(calls[i]), "request_calls": int(request_calls[i]),
                      "s": float(total[i]), "self_s": float(self_s[i])}
               for i, name in enumerate(self.names)}
        return out, self._iterations(rows, parent_row)

    def _iterations(self, rows, parent_row) -> int:
        """build_cost_table spans with no loss span among their ancestors."""
        nid = rows[:, 2]
        loss = self.names.index("heuristic.loss")
        cur = parent_row[nid == self.names.index("heuristic.build_cost_table")]
        inside = np.zeros(len(cur), dtype=bool)
        while (cur >= 0).any():
            live = cur >= 0
            inside[live] |= nid[cur[live]] == loss
            cur[live] = parent_row[cur[live]]
        return int((~inside).sum())


def layer_metrics(table: Dict[str, dict], iterations: int, steiner_distinct: int,
                  circuits: int) -> Dict[str, float]:
    """The per-layer metrics the benchmark reports, by metric name."""
    def get(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0)

    m: Dict[str, float] = {}
    htr = get("heuristic.heuristic_token_reduction", "s")
    loss_s = get("heuristic.loss", "s")
    m["heuristic.heuristic_token_reduction.s"] = htr
    m["heuristic.loss.s"] = loss_s
    m["heuristic.tie_candidates"] = get("heuristic.loss", "calls")
    m["heuristic.iterations"] = iterations
    m["heuristic.lookahead_share"] = loss_s / htr if htr else 0.0
    m["heuristic.ties_per_iteration"] = (
        get("heuristic.loss", "calls") / iterations if iterations else 0.0)
    m["heuristic.build_cost_table.calls"] = get("heuristic.build_cost_table", "calls")
    m["heuristic.build_cost_table.self_s"] = get("heuristic.build_cost_table", "self_s")
    m["heuristic.hungarian_assign.s"] = get("heuristic.hungarian_assign", "s")
    steiner_calls = get("arch.gen_steiner", "calls")
    m["arch.gen_steiner.calls"] = steiner_calls
    m["arch.gen_steiner.s"] = get("arch.gen_steiner", "s")
    m["arch.gen_steiner.distinct_keys"] = steiner_distinct
    m["arch.gen_steiner.reuse_ratio"] = (
        1 - steiner_distinct / steiner_calls if steiner_calls else 0.0)
    m["arch.ArchGraph.calls"] = get("arch.ArchGraph", "calls")
    m["arch.ArchGraph.s"] = get("arch.ArchGraph", "s")
    m["gf2.invert.calls"] = get("gf2.invert", "calls")
    m["gf2.invert.s"] = get("gf2.invert", "s")
    m["rowgraph.tree_reduce_tracked.s"] = get("rowgraph.tree_reduce_tracked", "s")
    m["rowgraph.reduction_recovery.s"] = get("rowgraph.reduction_recovery", "s")
    m["synthesis.route_cnot_block.calls"] = get("synthesis.route_cnot_block", "calls")
    m["synthesis.route_cnot_block.s"] = get("synthesis.route_cnot_block", "s")
    m["synthesis.blocks_per_circuit"] = (
        get("synthesis.route_cnot_block", "request_calls") / circuits)
    m["synthesis.route_general.s"] = get("synthesis.route_general", "s")
    m["synthesis.postprocess.s"] = get("synthesis.postprocess", "s")
    m["synthesis.verify_equivalence.s"] = get("synthesis.verify_equivalence", "s")
    m["bench.swap_insertion_baseline.s"] = get("bench.swap_insertion_baseline", "s")
    m["circuit.parse_circuit.s"] = get("circuit.parse_circuit", "s")
    m["circuit.format_circuit.s"] = get("circuit.format_circuit", "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(row["self_s"] for name, row in table.items()
                                   if name.startswith(layer + "."))
    return m
