"""One benchmark sample in a fresh interpreter.

    python3 perfbench/child.py sample --root ROOT --workload W --seed N [--trace PATH]
    python3 perfbench/child.py pinned --root ROOT --workload W --seed N
    python3 perfbench/child.py setup --root ROOT --workload W --seed N
    python3 perfbench/child.py ladder --root ROOT --ladder NAME

The child imports legch from ROOT/src, draws the workload's inputs from the
seed and writes {"ready": true} to stdout: the parent times set-up up to
that line.  A sample then answers the fixed query set, one query at a time,
checks each answer and writes one JSON result line; the pinned mode does
the same for the workload's pinned queries.  The ladder mode climbs one
frontier ladder (frontier.py).  Output of the program itself goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile


def load_legch(root: str) -> dict:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import legch
    from legch import algebra, builders, cli, dga, moves, obstruction

    if not os.path.abspath(legch.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"legch imported from {legch.__file__}, not from {src}")
    return {"algebra": algebra, "builders": builders, "cli": cli, "dga": dga,
            "moves": moves, "obstruction": obstruction}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_sample(args, lg, inputs) -> dict:
    import queries
    import spans

    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer, lg)
    stats: dict = {}
    workdir = tempfile.mkdtemp(prefix="sample-", dir=args.tmp)
    try:
        if args.mode == "pinned":
            qs = queries.pinned_queries(args.workload, lg)
        else:
            qs = queries.make_queries(args.workload, inputs, lg, workdir, stats)
        latencies, failures, check_raise = [], [], 0.0
        for qid, q in enumerate(qs):
            t0 = tracer.begin_query(qid)
            try:
                answer, error = q.run(), None
            except Exception as exc:  # a failed query is counted, not fatal
                answer, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(tracer.end_query(qid, t0) - t0)
            # The checks expand words and rerun scripts.  Whether one of
            # them raised the peak above the program's own is recorded, so
            # that peak_rss_mb can be trusted to be the program's.
            before = peak_rss_mb()
            if error is None:
                try:
                    ok = q.check(answer)
                except Exception as exc:
                    ok, error = False, f"check raised {type(exc).__name__}: {exc}"
            else:
                ok = False
            check_raise = max(check_raise, peak_rss_mb() - before)
            if not ok:
                failures.append({"query": q.label, "error": error or f"wrong answer {answer!r}"[:300]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "solve_s": sum(latencies),
        "latencies": latencies,
        "kinds": [q.kind for q in qs],
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
        "check_raised_peak_mb": check_raise,
        "stats": stats,
        "lazy_threshold": lg["algebra"].LAZY_THRESHOLD,
        "expansion_cap": lg["algebra"].EXPANSION_CAP,
    }
    if args.trace:
        result["layers"] = tracer.layer_metrics()
        result["layers"]["cli.bytes_out"] = float(stats.get("cli.bytes_out", 0))
        result["spans_written"] = tracer.dump(args.trace)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["sample", "pinned", "setup", "ladder"])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", help="write spans to this file (sample mode)")
    parser.add_argument("--tmp", help="directory for the sample's documents")
    parser.add_argument("--ladder")
    args = parser.parse_args()

    proto = sys.stdout
    sys.stdout = sys.stderr
    lg = load_legch(args.root)
    if args.mode == "ladder":
        import frontier

        result = frontier.climb(args.ladder, lg)
        proto.write(json.dumps(result) + "\n")
        return 0

    import queries

    inputs = queries.make_inputs(args.workload, args.seed)
    proto.write('{"ready": true}\n')
    proto.flush()
    if args.mode == "setup":
        return 0
    result = run_sample(args, lg, inputs)
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
