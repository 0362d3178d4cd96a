"""Command-line interface.

Subcommands: ``route`` a circuit file onto an architecture, ``verify``
an original/routed pair, ``bench`` the comparison protocol, and ``arch``
to inspect the built-in architecture registry.  Exit code is 0 only
when every requested verification passes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench as benchmod
from .arch import list_architectures, resolve_architecture
from .circuit import (Mapping, format_circuit, format_mapping_json,
                      parse_circuit, parse_mapping_json)
from .synthesis import (cnot_weight, equivalence_failure, postprocess,
                        route_general, RoutedResult, RouteStats)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_mapping(arg, names, fallback):
    if arg is None:
        if fallback is None:
            return Mapping.identity(len(names))
        return Mapping(fallback)
    return parse_mapping_json(_read(arg), names, source=arg)


def _cmd_route(args) -> int:
    graph, stock = resolve_architecture(args.arch)
    circ = parse_circuit(_read(args.circuit), source=args.circuit)
    m0 = _load_mapping(args.mapping, graph.names, stock)
    routed = route_general(circ, graph, m0)
    if not args.no_postprocess:
        routed = postprocess(routed)
    reason = equivalence_failure(circ, routed, graph)
    verified = reason is None
    if not verified:
        print(f"verification FAILED: {reason}", file=sys.stderr)
    text = format_circuit(routed.circuit)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    report = {
        "architecture": graph.name,
        "input_mapping": routed.input_mapping.to_pairs(graph.names),
        "output_mapping": routed.output_mapping.to_pairs(graph.names),
        **vars(routed.stats),
        "verified": verified,
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(f"routed {routed.stats.cnots_in} -> "
          f"{routed.stats.cnots_final if routed.stats.cnots_final is not None else routed.stats.cnots_routed}"
          f" CNOTs on {graph.name or args.arch}, verified={verified}",
          file=sys.stderr)
    return 0 if verified else 1


def _cmd_verify(args) -> int:
    graph, stock = resolve_architecture(args.arch)
    orig = parse_circuit(_read(args.original), source=args.original)
    routed_circ = parse_circuit(_read(args.routed), source=args.routed)
    m0 = _load_mapping(args.in_mapping, graph.names, stock)
    mt = parse_mapping_json(_read(args.out_mapping), graph.names,
                            source=args.out_mapping)
    routed = RoutedResult(routed_circ, m0, mt,
                          RouteStats(cnot_weight(orig.gates),
                                     cnot_weight(routed_circ.gates)))
    reason = equivalence_failure(orig, routed, graph)
    if reason is None:
        print("PASS: circuits are equivalent up to the output mapping")
        return 0
    print(f"FAIL: {reason}")
    return 1


def _cmd_bench(args) -> int:
    baseline = {"swap": "swap_insertion"}.get(args.baseline, args.baseline)
    config = benchmod.BenchConfig(
        arch=args.arch,
        gate_counts=tuple(args.counts) if args.counts else benchmod.DEFAULT_GATE_COUNTS,
        trials=args.trials,
        seed=args.seed,
        baseline=baseline,
        postprocess=not args.no_postprocess,
        jobs=args.jobs,
    )
    try:
        report = benchmod.run_benchmark(config)
    except benchmod.BenchVerificationError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    if args.json:
        sys.stdout.write(benchmod.report_to_json(report, include_timing=args.timing))
    else:
        sys.stdout.write(benchmod.format_table(report))
    return 0 if report.verified_all else 1


def _cmd_arch(args) -> int:
    if args.action == "list":
        for name in list_architectures():
            print(name)
        return 0
    graph, mapping = resolve_architecture(args.name)
    print(f"name: {graph.name}")
    print(f"nodes ({graph.n}): {' '.join(graph.names)}")
    print(f"edges ({len(graph.edges)}):")
    for u, v in sorted(graph.edges):
        print(f"  {graph.names[u]} - {graph.names[v]}")
    if mapping is not None:
        print("initial mapping:")
        sys.stdout.write(format_mapping_json(Mapping(mapping), graph.names))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cnotroute",
                                description="CNOT synthesis and routing for "
                                            "connectivity-constrained architectures")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("route", help="route a circuit file onto an architecture")
    r.add_argument("circuit")
    r.add_argument("--arch", required=True, help="registry name or architecture file")
    r.add_argument("--mapping", help="initial mapping file (JSON pairs)")
    r.add_argument("--no-postprocess", action="store_true")
    r.add_argument("--out", help="write the routed circuit here instead of stdout")
    r.add_argument("--report", help="write a JSON routing report here")
    r.set_defaults(func=_cmd_route)

    v = sub.add_parser("verify", help="check a routed circuit against the original")
    v.add_argument("original")
    v.add_argument("routed")
    v.add_argument("--arch", required=True)
    v.add_argument("--in-mapping", help="input mapping file (defaults to the "
                                        "architecture's stock mapping)")
    v.add_argument("--out-mapping", required=True)
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bench", help="run the random-circuit comparison protocol")
    b.add_argument("--arch", required=True)
    b.add_argument("--counts", type=int, nargs="+")
    b.add_argument("--trials", type=int, default=100)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--baseline", choices=["swap", "swap_insertion", "none"],
                   default="swap_insertion")
    b.add_argument("--jobs", type=int, default=1)
    b.add_argument("--no-postprocess", action="store_true")
    b.add_argument("--timing", action="store_true",
                   help="include wall time in JSON output")
    b.add_argument("--json", action="store_true",
                   help="print the report as JSON instead of a table")
    b.set_defaults(func=_cmd_bench)

    a = sub.add_parser("arch", help="inspect the architecture registry")
    a.add_argument("action", choices=["list", "show"])
    a.add_argument("name", nargs="?")
    a.set_defaults(func=_cmd_arch)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "arch" and args.action == "show" and not args.name:
        print("arch show requires a name", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
