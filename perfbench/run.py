"""Cold-process benchmark for legch.

    python3 perfbench/run.py --workload certified_queries --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: legch is imported from ./src.  Every
sample runs in a fresh child interpreter (child.py), one at a time, so no
process-wide cache carries over, as for a CLI user.  With --trace 0 the run
climbs the three frontier ladders, times set-up in extra set-up-only
children, and runs samples until --seconds have been spent on them (at
least MIN_SAMPLES).  With --trace 1 it answers the workload's pinned
queries once, then alternates untraced and traced samples and reports the
per-layer metrics of the traced ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it are the human-readable report.  The run
record and the spans go to perfbench/out/.  Exit status: 0 when every
answer matched its reference, 1 when one did not, 2 when the checkout
holds no legch to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import frontier  # noqa: E402
import queries  # noqa: E402
import spans  # noqa: E402

MIN_SAMPLES = 3
PROBES_PER_POINT = 5
TRACE_MIN_PAIRS = 1
CHILD_TIMEOUT_S = 170


class ChildFailed(Exception):
    pass


def _child(root: str, *argv: str, hash_seed: int = 0) -> subprocess.Popen:
    # The n-th child of every run gets the same string-hash seed, so set
    # iteration orders inside legch do not differ between runs.
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), *argv, "--root", root],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=root, env=env,
    )


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed("child timed out")
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def timed_child(root: str, mode: str, workload: str, seed: int, index: int,
                extra=()) -> tuple[float, dict | None]:
    """Start the index-th child of its kind, return (set-up seconds, its
    result or None)."""
    t0 = time.perf_counter()
    proc = _child(root, mode, "--workload", workload, "--seed", str(seed), *extra, hash_seed=index)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != '{"ready": true}':
        _finish(proc)
        proc.wait()
        raise ChildFailed(f"child did not get ready: {line!r}")
    out = _finish(proc)
    return setup, (json.loads(out.strip().splitlines()[-1]) if mode != "setup" else None)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the value of rank ceil(p/100 * n)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_p(n: int) -> float | None:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (1 - p / 100.0) >= 10:
            best = p
    return best


def describe(name: str, values: list[float], unit: str, scale: float = 1.0) -> tuple[str, dict]:
    """Report line and record entry for one timing: median, the tail
    percentile with ten samples beyond it, and the sample count."""
    p = tail_p(len(values))
    entry = {"median": statistics.median(values) * scale, "n": len(values), "unit": unit,
             "tail_p": p, "tail": percentile(values, p) * scale if p else None}
    tail = (f"p{p:g} {entry['tail']:.6g} {unit}" if p
            else "no percentile has ten samples beyond it")
    return f"{name}: median {entry['median']:.6g} {unit}, {tail}, n = {len(values)}", entry


def git_revision(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def measure(args, root: str, outdir: str, report: list[str]) -> tuple[dict, dict, list]:
    """Untraced run: frontier ladders, set-up probes and samples.  Returns
    (metrics, record, failures)."""
    setups: list[float] = []
    samples: list[dict] = []
    spent = 0.0

    def probe():
        for _ in range(PROBES_PER_POINT):
            setups.append(timed_child(root, "setup", args.workload, args.seed, len(setups))[0])

    def sample():
        nonlocal spent
        t0 = time.perf_counter()
        setup, res = timed_child(root, "sample", args.workload, args.seed, len(samples), ("--tmp", outdir))
        spent += time.perf_counter() - t0
        setups.append(setup)
        samples.append(res)

    # Each ladder is followed by set-up probes and its share of the
    # samples, so the samples spread over the whole run instead of falling
    # into one phase of a shared machine.
    phases = list(frontier.LADDERS)
    ladders = {}
    for k, phase in enumerate(phases, 1):
        ladders[phase] = json.loads(
            _finish(_child(root, "ladder", "--ladder", phase)).strip().splitlines()[-1])
        probe()
        while spent < args.seconds * k / len(phases) or len(samples) < MIN_SAMPLES * k // len(phases):
            sample()
    lat = [t for s in samples for t in s["latencies"]]
    solves = [s["solve_s"] for s in samples]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (statistics.median(solves), "s"),
        "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "query_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
        "frontier_n": (ladders["path"]["frontier"], "n"),
        "frontier_tangle_n": (ladders["tangle"]["frontier"], "n"),
        "frontier_fly": (ladders["fly"]["frontier"], "n"),
    }
    failures = [f for s in samples for f in s["failures"]]
    failures += [{"query": f"frontier {k} ladder", "error": f"wrong answer at n = {v['rungs'][-1][0]}"}
                 for k, v in ladders.items() if v["wrong"]]
    tails = {}
    for name, values, unit, scale in (("setup_s", setups, "s", 1.0), ("solve_s", solves, "s", 1.0),
                                      ("query latency", lat, "ms", 1e3)):
        line, tails[name] = describe(name, values, unit, scale)
        report.append(line)
    raised = max(s["check_raised_peak_mb"] for s in samples)
    report.append(f"peak_rss_mb: median over {len(samples)} samples; the answer checks raised a "
                  f"sample's peak by at most {raised:.3f} MB")
    for name, lad in ladders.items():
        n, status, seconds = lad["rungs"][-1]
        wall = f"first failed rung n = {n} ({status}, {seconds:.2f} s)" if status != "ok" else "no rung failed"
        report.append(f"ladder {name}: frontier {lad['frontier']}; {wall}")
    record = {
        "samples": len(samples),
        "setup_runs": len(setups),
        "queries_per_sample": len(samples[0]["latencies"]),
        "lazy_threshold": samples[0]["lazy_threshold"],
        "expansion_cap": samples[0]["expansion_cap"],
        "rung_budget_s": frontier.RUNG_BUDGET_S,
        "ladder_budget_s": frontier.LADDER_BUDGET_S,
        "ladders": ladders,
        "timings": tails,
        "check_raised_peak_mb": raised,
        "solve_s_per_sample": solves,
        "setup_s_per_run": setups,
        "attempted": len(lat) + len(ladders),
    }
    return metrics, record, failures


def measure_traced(args, root: str, outdir: str, report: list[str]) -> tuple[dict, dict, list]:
    """Traced run: the pinned queries, untraced, once; then untraced and
    traced samples in turn.  Returns (metrics, record, failures)."""
    pinned = None
    if args.workload in queries.PINNED_WORKLOADS:
        pinned = timed_child(root, "pinned", args.workload, args.seed, 0, ("--tmp", outdir))[1]
        report.append(f"pinned queries (untraced, once per traced run, in no metric): "
                      f"{pinned['solve_s']:.4f} s, peak_rss {pinned['peak_rss_mb']:.1f} MB")
    plain, traced = [], []
    spent = 0.0
    i = 0
    while spent < args.seconds or len(traced) < TRACE_MIN_PAIRS:
        t0 = time.perf_counter()
        plain.append(timed_child(root, "sample", args.workload, args.seed, i, ("--tmp", outdir))[1])
        spans_path = os.path.join(outdir, f"spans-{args.workload}-seed{args.seed}-{i}.tsv.gz")
        traced.append(timed_child(root, "sample", args.workload, args.seed, i,
                                  ("--tmp", outdir, "--trace", spans_path))[1])
        spent += time.perf_counter() - t0
        i += 1
    units = spans.metric_units()
    layers = {name: statistics.fmean(s["layers"][name] for s in traced) for name in units
              if name != "trace.overhead_ratio"}
    layers["trace.overhead_ratio"] = (statistics.median(s["solve_s"] for s in traced)
                                      / statistics.median(s["solve_s"] for s in plain))
    metrics = {name: (layers[name], units[name]) for name in units}
    selfs = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    report.append(f"traced samples: {len(traced)}, untraced: {len(plain)}; spans per traced "
                  f"sample: {statistics.fmean(s['spans_written'] for s in traced):.0f}")
    report.append(f"account (mean per traced sample): self times {selfs:.4f} s + unattributed "
                  f"{layers['trace.unattributed_s']:.4f} s = {selfs + layers['trace.unattributed_s']:.4f} s; "
                  f"traced solve_s {layers['trace.solve_s']:.4f} s")
    record = {"traced_samples": len(traced), "untraced_samples": len(plain),
              "lazy_threshold": traced[0]["lazy_threshold"],
              "expansion_cap": traced[0]["expansion_cap"],
              "pinned": pinned and {k: pinned[k] for k in ("solve_s", "latencies", "peak_rss_mb")},
              "attempted": sum(len(s["latencies"]) for s in plain + traced + [pinned] if s)}
    failures = [f for s in plain + traced + [pinned] if s for f in s["failures"]]
    return metrics, record, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=queries.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "legch", "__init__.py")):
        print(f"error: no src/legch under {root}; run from the root of a legch checkout",
              file=sys.stderr)
        return 2
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)

    report: list[str] = []
    started = time.perf_counter()
    try:
        if args.trace:
            metrics, record, failures = measure_traced(args, root, outdir, report)
        else:
            metrics, record, failures = measure(args, root, outdir, report)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_revision": git_revision(root), "wall_s": time.perf_counter() - started,
        "failures": failures, "metrics": {k: v[0] for k, v in metrics.items()},
    })
    with open(os.path.join(outdir, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"legch benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"nproc {record['nproc']}, python {record['python']}, revision {record['git_revision']}")
    print(f"LAZY_THRESHOLD {record['lazy_threshold']}, EXPANSION_CAP {record['expansion_cap']}")
    for line in report:
        print(line)
    print(f"error_rate {len(failures) / record['attempted']:.6f} ({len(failures)} of "
          f"{record['attempted']} queries failed or mismatched the reference)")
    for name, (value, unit) in metrics.items():
        note = "  (report only)" if name in spans.REPORT_ONLY else ""
        print(f"{name:<44} {value:>16.6f} {unit}{note}")
    for f in failures[:20]:
        print(f"FAILED {f['query']}: {f['error']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": record["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in spans.REPORT_ONLY},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
