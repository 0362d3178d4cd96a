"""Routing benchmark for cnotroute.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  Each workload is a closed loop: one client in one process
routes circuit after circuit, never through the ``bench`` worker pool.
Workloads, metrics and the layer each per-layer metric should move are
described in ``metrics.json`` beside this file.

``--trace 0`` measures the end-to-end metrics: the loop runs for at
least ``--seconds`` and at least the workload's ``circuits``; the output
fingerprint, ``cnots_out_mean`` and ``peak_rss_mb`` are taken over those
first ``circuits``, a fixed amount of work.  Latency and throughput are
reported in reference units (see ``reference_unit``), with the wall
times printed beside them.

``--trace 1`` routes the workload's first ``traced`` circuits twice, each
pass from its own fresh set-up, untraced and with every layer wrapped by
``tracer.Tracer``, and reports the per-layer metrics and the tracing
overhead; ``--seconds`` does not apply.  The two passes must give the
same fingerprint.

Every output is checked (see ``check.py``).  Fingerprints are recorded
per (code, workload, seed) under ``.perfbench_out/`` in the checkout; a
run whose fingerprint differs from an earlier run of the same code fails.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
``correct`` is true.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
METRICS = json.loads((HERE / "metrics.json").read_text())

SETUP_PROBES = 5

# A shared host runs this process at a speed that drifts by up to 2x over
# seconds and minutes, in CPU time as much as in wall time.  So after each
# timed circuit the loop spends REF_SHARE of that circuit's time, at most
# REF_MAX_S and at least one unit, on a fixed pure-Python unit of work, and
# each latency is divided by the mean unit time of the whole run.  A
# latency of 10 ref is ten times the reference unit's time on the host as
# it ran then: the drift cancels, a change to the program moves the figure
# in full.  The mean, not the median: the host switches between a fast and
# a slow state many times a second, a circuit's time averages over both,
# and the median unit time jumps from one state to the other as their
# shares cross a half.
REF_SHARE = 0.1
REF_MAX_S = 0.005


def reference_unit() -> None:
    """Fixed work in the router's idiom: int bit operations, lists, dicts, calls."""
    table = {}
    rows = [0] * 16
    x = 12345
    for _ in range(300):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 1023] = table.get(x & 1023, 0) ^ (x >> 3)
        rows[x & 15] ^= rows[(x >> 4) & 15] | (1 << (x & 15))
        max(rows[0], rows[x & 15])


def reference_block(budget: float, times: list) -> None:
    """Run reference units for about ``budget`` seconds, at least one; append their times."""
    end = time.perf_counter() + budget
    while True:
        t0 = time.perf_counter()
        reference_unit()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 >= end:
            return


class Tally:
    """Latencies and outputs of one pass over a workload's circuits."""

    def __init__(self, wl, fixed: int):
        self.wl = wl
        self.fixed = fixed   # circuits fingerprinted and counted
        self.digest = hashlib.sha256()
        self.latencies = []   # seconds, in routing order
        self.by_device = {}   # device -> positions in latencies, outputs
        self.cnots = []
        self.failed = 0

    def add(self, job, seconds: float, out, ok: bool) -> None:
        dev = self.by_device.setdefault(job.device, {"at": [], "cnots": [], "base": []})
        dev["at"].append(len(self.latencies))
        self.latencies.append(seconds)
        self.failed += not ok
        if job.index >= self.fixed:
            return
        if out is None:
            self.digest.update(f"{job.index} exception\n".encode())
            return
        self.wl.fingerprint_update(self.digest, job, out)
        self.cnots.append(out.final.stats.cnots_final)
        dev["cnots"].append(self.cnots[-1])
        if out.baseline is not None:
            dev["base"].append(out.baseline.stats.cnots_routed)

    @property
    def fingerprint(self) -> str:
        return self.digest.hexdigest()


def run_one(wl, workload, state, job, tracer=None):
    """Route one job through its pipeline, timed; check it untimed."""
    scope = tracer.active("perfbench.circuit", job.index + 1) if tracer else nullcontext()
    out = None
    with scope:
        t0 = time.perf_counter()
        try:
            out = workload.pipeline(state, job)
        except Exception:  # counted as a failed circuit, run goes on
            traceback.print_exc()
        seconds = time.perf_counter() - t0
    reason = "the pipeline raised" if out is None else wl.failure(job, out)
    if reason is not None:
        print(f"FAIL {workload.name} circuit {job.index} on {job.device}: {reason}",
              file=sys.stderr)
    return seconds, out, reason is None


def setup_seconds() -> list:
    """Time SETUP_PROBES cold set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "coldstart.py")],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def code_hash() -> str:
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "cnotroute").rglob("*.py"))
    files += sorted((ROOT / "src" / "cnotroute").rglob("*.json"))
    files += sorted(HERE.glob("*.py")) + [HERE / "metrics.json"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint_repeats(workload: str, seed: int, circuits: int,
                        fingerprint: str) -> bool:
    """Record the fingerprint; False if this code gave another one before."""
    path = OUT_DIR / "fingerprints.json"
    code = code_hash()
    try:
        book = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        book = {}
    seen = book.get(code, {})
    previous = seen.setdefault(f"{workload}/{seed}/{circuits}", fingerprint)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({code: seen}, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return previous == fingerprint


def device_rows(tally: Tally, refs: list) -> list:
    lines = [f"{'device':<20} {'circuits':>8} {'p50 ref':>9} {'p50 ms':>9} {'counted':>7} "
             f"{'cnots_out':>10} {'baseline':>9}"]

    def row(name, at, cnots, base):
        mean = lambda xs: f"{statistics.fmean(xs):.2f}" if xs else "-"  # noqa: E731
        p50_ref = statistics.median(refs[i] for i in at)
        p50_ms = 1000 * statistics.median(tally.latencies[i] for i in at)
        return (f"{name:<20} {len(at):>8} {p50_ref:>9.2f} {p50_ms:>9.2f} {len(cnots):>7} "
                f"{mean(cnots):>10} {mean(base):>9}")

    for device, d in tally.by_device.items():
        lines.append(row(device, d["at"], d["cnots"], d["base"]))
    all_base = [b for d in tally.by_device.values() for b in d["base"]]
    lines.append(row("total", range(len(refs)), tally.cnots, all_base))
    return lines


def timed_run(wl, workload, seed: int, seconds: float):
    setups = setup_seconds()
    state = wl.setup()
    sizes = wl.sizes_of(state)
    tally = Tally(wl, workload.circuits)
    units = []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if index >= workload.circuits and elapsed >= seconds:
            break
        job = workload.make(sizes, seed, index)
        tally.add(job, *run_one(wl, workload, state, job))
        reference_block(min(REF_SHARE * tally.latencies[-1], REF_MAX_S), units)
        index += 1
        if index == workload.circuits:
            # Taken over a fixed amount of work: the Steiner caches grow
            # with every circuit routed, so a time-bounded peak would
            # rise whenever routing got faster.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = tally.latencies
    unit_s = statistics.fmean(units)
    refs = [seconds / unit_s for seconds in lat]
    p90 = statistics.quantiles(refs, n=10)[8]
    beyond = sum(1 for x in refs if x > p90)
    metrics = {
        "latency_ref_p50": statistics.median(refs),
        "latency_ref_p90": p90,
        "circuits_per_kref": 1000 * len(refs) / sum(refs),
        "cnots_out_mean": statistics.fmean(tally.cnots),
        "verified_frac": (len(lat) - tally.failed) / len(lat),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    report = [f"samples: {len(lat)} circuits, {beyond} beyond p90, "
              f"loop wall {time.perf_counter() - start:.2f} s",
              f"wall time: p50 {1000 * statistics.median(lat):.3f} ms, "
              f"p90 {1000 * statistics.quantiles(lat, n=10)[8]:.3f} ms, "
              f"{len(lat) / sum(lat):.3f} circuits/s",
              f"reference unit: {len(units)} runs, mean {1e6 * unit_s:.2f} us, "
              f"median {1e6 * statistics.median(units):.1f} us, min {1e6 * min(units):.1f} us",
              "setup samples (s): " + ", ".join(f"{s:.4f}" for s in setups)]
    report += device_rows(tally, refs)
    return [tally], len(lat), tally.failed, metrics, report


def traced_run(wl, workload, seed: int):
    """Route the first ``traced`` circuits twice, untraced and traced.

    The passes alternate circuit by circuit, each on its own state from
    its own set-up, so both do the same work and a drift in machine speed
    reaches both alike; the overhead is the ratio of their pipeline times.
    """
    from tracer import Tracer, layer_metrics

    plain_state = wl.setup()
    tracer = Tracer()
    with tracer.active("perfbench.setup", 0):
        traced_state = wl.setup()
    sizes = wl.sizes_of(plain_state)
    plain = Tally(wl, workload.traced)
    traced = Tally(wl, workload.traced)
    for job in (workload.make(sizes, seed, i) for i in range(workload.traced)):
        plain.add(job, *run_one(wl, workload, plain_state, job))
        traced.add(job, *run_one(wl, workload, traced_state, job, tracer))
    spans_file = tracer.write(OUT_DIR, workload.name)
    table, iterations = tracer.table()
    metrics = layer_metrics(table, iterations, len(tracer.steiner_keys), workload.traced)
    untraced_s, traced_s = sum(plain.latencies), sum(traced.latencies)
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.traced_wall_s"] = traced_s
    metrics["trace.overhead"] = traced_s / untraced_s - 1
    pipeline_s = table["perfbench.circuit"]["s"]
    report = [f"traced {workload.traced} circuits; spans written to "
              f"{spans_file.relative_to(ROOT)} ({tracer.count} spans)",
              f"tracing overhead: {traced_s:.3f} s traced vs {untraced_s:.3f} s "
              f"untraced ({100 * metrics['trace.overhead']:.1f}%)",
              f"{'span':<40} {'calls':>9} {'total s':>10} {'self s':>10} {'self %':>7}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        if not row["calls"]:
            continue
        report.append(f"{name:<40} {row['calls']:>9} {row['s']:>10.4f} "
                      f"{row['self_s']:>10.4f} {100 * row['self_s'] / pipeline_s:>6.1f}%")
    attempted = len(plain.latencies) + len(traced.latencies)
    return [plain, traced], attempted, plain.failed + traced.failed, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"perfbench: cannot import cnotroute from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    if args.trace:
        tallies, attempted, failed, values, report = traced_run(wl, workload, args.seed)
        declared = METRICS["per_layer"]
    else:
        tallies, attempted, failed, values, report = timed_run(
            wl, workload, args.seed, args.seconds)
        declared = METRICS["end_to_end"]
    # Every pass must route exactly as the first recorded run of this code
    # and seed did, so a traced run also fails if its passes disagree.
    repeats = all([fingerprint_repeats(workload.name, args.seed, t.fixed, t.fingerprint)
                   for t in tallies])
    if not repeats:
        print("FAIL: fingerprint differs from an earlier run of the same code",
              file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for t in tallies:
        print(f"fingerprint sha256 (first {t.fixed} circuits): {t.fingerprint}")
    for line in report:
        print(line)
    for name, spec in declared.items():
        where = ""
        if spec.get("on"):
            where = f"  -> {', '.join(spec['moves'])} on {', '.join(spec['on'])}"
        print(f"{name:<40} {values[name]:>14.6f} {spec['unit']}{where}")
    correct = failed == 0 and repeats
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": spec["unit"]}
                          for name, spec in declared.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
