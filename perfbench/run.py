#!/usr/bin/env python3
"""tatek benchmark: three seeded workloads, end-to-end metrics, and a
separate traced run with per-layer metrics.

    python3 perfbench/run.py --workload moonshine --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --out results.json
    python3 perfbench/run.py --compare base.json new.json

One run sets the workload up five times and times nine fresh imports of
tatek (set-up time is the median import plus the median build), then
sends its fixed request list, one request at a time and pass after pass,
until `--seconds` of requests have been measured. Every time reported is
scaled by the host's speed at the moment it was taken (HostClock). Wall
time is the sum over the list of each request's median latency in the
run; the latency percentiles are over every request sent. The first pass
checks every output against an oracle; every later request must
reproduce the first pass's output digest, and the recorded reference
digests when the seed has them. The last line of standard output is the
result as one JSON object. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 5
IMPORT_PROBES = 9
# The host speed yardstick: see HostClock.
NOMINAL_PROBE_S = 0.02
PROBE_WINDOW_S = 5.0

END_TO_END_UNITS = {
    "wall_s": "s", "latency_p50_s": "s", "latency_p90_s": "s", "setup_s": "s",
    "peak_rss_mib": "MiB", "success_rate": "frac",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import tatek."""
    code = ("import time; t = time.perf_counter(); import tatek; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


class HostClock:
    """Scales timings to a host of fixed speed.

    The 2-core VM this benchmark was built on is shared, and its speed
    moves by up to 2x in spells of tens of seconds to minutes, more than
    any average over one run removes. So a fixed pure-Python loop, which
    touches no tatek code, is timed just before every import probe,
    set-up and request, and each timing is scaled to a host on which the
    loop takes NOMINAL_PROBE_S: it is multiplied by NOMINAL_PROBE_S over
    the median loop time within PROBE_WINDOW_S of the timing's start. A
    change to tatek moves the scaled times as it moves the raw ones; the
    raw times are kept in the result record.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, loop seconds)

    def probe(self) -> float:
        """Time the loop; returns the moment it ended."""
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        end = time.perf_counter()
        self.probes.append((start, end - start))
        return end

    def scaled(self, seconds: float, start: float) -> float:
        near = [p for t, p in self.probes if abs(t - start) <= PROBE_WINDOW_S]
        return seconds * NOMINAL_PROBE_S / statistics.median(near)

    def loop_s(self) -> float:
        return statistics.median(p for _, p in self.probes)


def git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    from tatek._kernel import BACKEND

    return {"python": platform.python_version(), "backend": BACKEND, "git_rev": git_rev(),
            "nproc": os.cpu_count()}


def load_reference(path: Path | None, workload: str, seed: int) -> list[str] | None:
    if path is None or not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


# -- one run -------------------------------------------------------------------


class Outcome:
    """Attempts, failures and expected digests across the passes of a run."""

    def __init__(self, reference: list[str] | None):
        self.reference = reference
        self.expected: list[str | None] = []
        self.attempted = 0
        self.failed = 0

    def fail(self, label: str, why: str):
        self.failed += 1
        print(f"# FAILED {label}: {why}", file=sys.stderr)


def run_request(req, i: int, outcome: Outcome, check: bool) -> float:
    """Send request `i` once and check its output; returns its latency."""
    first = outcome.expected[i] is None
    outcome.attempted += 1
    start = time.perf_counter()
    try:
        raw = req.call()
        text = req.emit(raw)
    except Exception as exc:  # a failing request is counted, the run goes on
        latency = time.perf_counter() - start
        outcome.fail(req.label, f"{type(exc).__name__}: {exc}")
        return latency
    latency = time.perf_counter() - start
    digest = hashlib.sha256(text.encode()).hexdigest()
    if check:
        try:
            good = req.check(raw)
        except Exception as exc:
            good = False
            print(f"# check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        if not good:
            outcome.fail(req.label, "output is wrong")
            return latency
    if first:
        outcome.expected[i] = digest
        ref = outcome.reference
        if ref is not None and (len(ref) != len(outcome.expected) or ref[i] != digest[:16]):
            outcome.fail(req.label, "digest differs from the recorded reference")
    elif digest != outcome.expected[i]:
        outcome.fail(req.label, "digest differs from the first pass")
    return latency


def run_pass(requests, outcome: Outcome, check: bool,
             clock: HostClock) -> list[tuple[float, float]]:
    """One closed-loop pass over the request list, with a host probe before
    each request; returns every request's (start, latency)."""
    samples = []
    for i, req in enumerate(requests):
        start = clock.probe()
        samples.append((start, run_request(req, i, outcome, check)))
    return samples


def measure(requests, outcome: Outcome, seconds: float,
            clock: HostClock) -> list[list[tuple[float, float]]]:
    """Send the requests in order, pass after pass, until `seconds` of
    request time have been measured, with a host probe before each. The
    first pass always completes and its outputs go through the oracles.
    Returns every request's (start, latency) samples."""
    samples = [[] for _ in requests]
    spent, sent = 0.0, 0
    while sent < len(requests) or spent < seconds:
        i = sent % len(requests)
        start = clock.probe()
        latency = run_request(requests[i], i, outcome, check=sent < len(requests))
        samples[i].append((start, latency))
        spent += latency
        sent += 1
    return samples


def set_up(workload: str, seed: int, ctx, smoke: bool, repeats: int,
           clock: HostClock | None = None):
    """Build the workload `repeats` times; returns the last build's requests
    and the (start, seconds) of every build."""
    from workloads import WORKLOADS

    times, requests = [], None
    for _ in range(repeats):
        requests = None
        gc.collect()  # free the previous build, so peak RSS holds one build
        if clock is not None:
            clock.probe()
        start = time.perf_counter()
        requests = WORKLOADS[workload](seed, ctx, smoke)
        times.append((start, time.perf_counter() - start))
    return requests, times


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, reference: Path | None = REFERENCE) -> dict:
    """Run one workload and return its record (metrics, counts, digests)."""
    from workloads import Context

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        ctx = Context(Path(tmp))
        outcome = Outcome(load_reference(reference, workload, seed))
        if trace:
            metrics, raw, passes, samples, requests = _traced(workload, seed, seconds, smoke,
                                                              ctx, outcome)
        else:
            metrics, raw, passes, samples, requests = _untraced(workload, seed, seconds, smoke,
                                                                ctx, outcome)
    digests = outcome.expected
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "requests": requests, "passes": passes, "latency_samples": samples,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "error_rate": outcome.failed / outcome.attempted,
        "output_sha256": hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest(),
        "request_sha256": [d[:16] if d else None for d in digests],
        "metrics": metrics, "raw_s": raw,
    }


def _untraced(workload, seed, seconds, smoke, ctx, outcome):
    clock = HostClock()
    imports = []
    for _ in range(IMPORT_PROBES):
        start = clock.probe()
        imports.append((start, import_probe()))
    requests, setups = set_up(workload, seed, ctx, smoke, SETUP_REPEATS, clock)
    outcome.expected = [None] * len(requests)
    samples = measure(requests, outcome, seconds, clock)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF

    def times(scale):
        lat = [[scale(x, t) for t, x in xs] for xs in samples]
        latencies = [x for xs in lat for x in xs]
        return {
            "wall_s": sum(statistics.median(xs) for xs in lat),
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "setup_s": (statistics.median(scale(x, t) for t, x in imports)
                        + statistics.median(scale(x, t) for t, x in setups)),
        }

    values = times(clock.scaled)
    values["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024
    values["success_rate"] = 1 - outcome.failed / outcome.attempted
    raw = times(lambda x, t: x)
    raw["host_loop_s"] = clock.loop_s()
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    sent = sum(map(len, samples))
    return metrics, raw, round(sent / len(requests), 2), sent, len(requests)


def _traced(workload, seed, seconds, smoke, ctx, outcome):
    import tracing

    tracer = tracing.Tracer()
    in_process = workload != "cli"
    clock = HostClock()
    traced = []
    try:
        if in_process:
            tracer.install()
        requests, _ = set_up(workload, seed, ctx, smoke, 1)
        outcome.expected = [None] * len(requests)
        setup_trace = tracer.export()
        if not in_process:
            ctx.trace_dir = ctx.workdir / "trace"
            ctx.trace_dir.mkdir()
        while not traced or sum(x for one in traced for _, x in one) < seconds:
            traced.append(run_pass(requests, outcome, False, clock))
    finally:
        tracer.uninstall()
        ctx.trace_dir = None
    untraced = run_pass(requests, outcome, True, clock)
    k = len(traced)
    if in_process:
        total = tracer.export()
        per_pass = tracing.scaled(tracing.merge([total, tracing.scaled(setup_trace, -1)]), 1 / k)
        trace = tracing.merge([setup_trace, per_pass])
        imports, overheads = [], []
    else:
        trace = tracing.scaled(tracing.merge(ctx.child_runs), 1 / k)
        imports = [r["import_s"] for r in ctx.child_runs]
        overheads = [r["wall_s"] - r["main_s"] for r in ctx.child_runs]

    def pass_s(one):
        return sum(clock.scaled(x, t) for t, x in one)

    overhead = statistics.fmean(map(pass_s, traced)) / pass_s(untraced) - 1
    values = tracing.layer_metrics(trace, overhead, imports, overheads)
    metrics = {name: {"value": v, "unit": tracing.PER_LAYER_UNITS[name]}
               for name, v in values.items()}
    return metrics, None, k, k * len(requests), len(requests)


# -- reporting -----------------------------------------------------------------


def summary_lines(record: dict, st: dict) -> list[str]:
    lines = [f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
             f"passes={record['passes']} requests/pass={record['requests']} "
             f"latency_samples={record['latency_samples']} attempted={record['attempted']} "
             f"failed={record['failed']} python={st['python']} backend={st['backend']} "
             f"nproc={st['nproc']} rev={st['git_rev'][:12]}",
             f"# output_sha256={record['output_sha256']}"]
    for name, m in record["metrics"].items():
        lines.append(f"# {name:28s} {m['value']:.6g} {m['unit']}")
    for name, v in (record["raw_s"] or {}).items():
        lines.append(f"# unscaled {name:19s} {v:.6g} s")
    return lines


def result_line(record: dict) -> str:
    return json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": record["metrics"]})


def write_results(path: Path, records: list[dict]):
    path.write_text(json.dumps({"stamp": stamp(),
                                "workloads": {r["workload"]: r for r in records}},
                               indent=1) + "\n")


def run_all(args) -> int:
    """Each workload in its own process; prints one table."""
    from workloads import WORKLOADS

    records = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for name in WORKLOADS:
            out = Path(tmp) / f"{name}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out),
                   "--reference", args.reference]
            proc = subprocess.run(cmd, cwd=ROOT, timeout=900)
            if proc.returncode != 0:
                print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
                return 1
            records.append(json.loads(out.read_text())["workloads"][name])
    print(f"{'workload':10s} {'metric':28s} {'value':>14s} unit")
    for r in records:
        for name, m in r["metrics"].items():
            print(f"{r['workload']:10s} {name:28s} {m['value']:14.6g} {m['unit']}")
        print(f"{r['workload']:10s} {'(latency samples)':28s} {r['latency_samples']:14d}")
        print(f"{r['workload']:10s} {'(error_rate)':28s} {r['error_rate']:14.6g}")
    if args.out:
        write_results(Path(args.out), records)
    return 0 if all(r["failed"] == 0 for r in records) else 1


def compare(path_a: str, path_b: str) -> int:
    """Print every metric x workload of two result files with their ratio;
    flag output digest changes and any rise in error_rate."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["stamp"]["backend"] != b["stamp"]["backend"]:
        print(f"error: kernel backends differ ({a['stamp']['backend']} vs "
              f"{b['stamp']['backend']}); the results are not comparable", file=sys.stderr)
        return 2
    for key in ("python", "nproc", "git_rev"):
        print(f"# {key}: {a['stamp'][key]} -> {b['stamp'][key]}")
    flags = []
    print(f"{'workload':10s} {'metric':28s} {'base':>14s} {'new':>14s} {'new/base':>9s} unit")
    for name in a["workloads"]:
        ra, rb = a["workloads"][name], b["workloads"].get(name)
        if rb is None:
            print(f"{name:10s} (missing from {path_b})")
            continue
        for metric, ma in ra["metrics"].items():
            mb = rb["metrics"].get(metric)
            if mb is None:
                continue
            ratio = f"{mb['value'] / ma['value']:9.3f}" if ma["value"] else f"{'-':>9s}"
            print(f"{name:10s} {metric:28s} {ma['value']:14.6g} {mb['value']:14.6g} "
                  f"{ratio} {ma['unit']}")
        if ra["seed"] != rb["seed"]:
            print(f"# {name}: seeds differ ({ra['seed']} vs {rb['seed']}); digests not compared")
        elif ra["output_sha256"] != rb["output_sha256"]:
            flags.append(f"{name}: output_sha256 changed "
                         f"{ra['output_sha256'][:16]} -> {rb['output_sha256'][:16]}")
        if rb["error_rate"] > ra["error_rate"]:
            flags.append(f"{name}: error_rate rose {ra['error_rate']:.4g} -> "
                         f"{rb['error_rate']:.4g}")
    for flag in flags:
        print(f"FLAG {flag}")
    return 1 if flags else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["moonshine", "orbifold", "cli", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="seconds of requests to measure (at least one pass)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--out", help="write the stamped result record to this file")
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="reference digests file ('' to skip)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "tatek" / "__init__.py").is_file():
        print(f"error: no tatek sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tatek

    if Path(tatek.__file__).resolve().parent != SRC / "tatek":
        print(f"error: imported tatek from {tatek.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # one core for the run and the children it starts, so that the host
    # probe and the work it scales share that core's speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          reference=Path(args.reference) if args.reference else None)
    st = stamp()
    print("\n".join(summary_lines(record, st)))
    if args.out:
        write_results(Path(args.out), [record])
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
