"""Self-test of the benchmark itself (not part of the test suite).

    python3 perfbench/selftest.py [WORKLOAD ...]

From the root of a checkout, for each workload (default: all):
  1. every query kind answers correctly against refs.py, and a deliberately
     wrong reference makes the same check fail;
     and verified loop_compose scripts never substitute with a born generator;
  2. two seeds give different inputs but the same metric names as
     BENCHMARK.json lists, with zero failed queries, for --trace 0 and 1.
Exits 0 when everything holds.  Step 2 climbs the frontier ladders and
takes a few minutes per workload.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import queries  # noqa: E402
import refs  # noqa: E402

# For each query kind, a reference function to corrupt and how.
CORRUPT = {
    "path": ("path_lengths", lambda f: lambda n: tuple(x + 1 for x in f(n))),
    "knot": ("d_a2_length", lambda f: lambda n: f(n) + 1),
    "tangle": ("word_length", lambda f: lambda n: f(n) + 2),
    "fly": ("fly_word_length", lambda f: lambda s: f(s) + 1),
    "monodromy": ("verdict_ok", lambda f: lambda *a: not f(*a)),
    "pinned": ("PINNED_J4", lambda v: dict(v, tau=v["tau"] + 2)),
    "script": ("script_images", lambda f: lambda doc: {g: frozenset() for g in f(doc) or {"x": 0}}),
    "build": ("d_a1_length", lambda f: lambda n: f(n) + 2),
    "word": ("word_length", lambda f: lambda n: f(n) + 2),
    "sum": ("sum_closure_length", lambda f: lambda s: f(s) + 2),
    "classify": ("sum_even_class", lambda f: lambda s: not f(s)),
    "verdict": ("fly_word_length", lambda f: lambda s: f(s) + 1),
}


def check_references(workload: str, lg: dict) -> list[str]:
    problems = []
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as workdir:
        qs = queries.make_queries(workload, queries.make_inputs(workload, 1), lg, workdir, {})
        qs += queries.pinned_queries(workload, lg)
        done: set = set()
        for q in qs:  # in order: cli queries read the documents earlier ones wrote
            answer = q.run()
            if not q.check(answer):
                problems.append(f"{workload}/{q.kind}: correct answer rejected ({q.label})")
            if q.kind in done:
                continue
            done.add(q.kind)
            name, corrupt = CORRUPT[q.kind]
            with mock.patch.object(refs, name, corrupt(getattr(refs, name))):
                if q.check(answer):
                    problems.append(f"{workload}/{q.kind}: wrong reference {name} not caught")
        missing = {q.kind for q in qs} - done
        if missing:
            problems.append(f"{workload}: kinds not exercised: {sorted(missing)}")
    return problems


def check_script_rule(seeds=range(1, 51)) -> list[str]:
    """No verified script substitutes with its born generator between RII
    and RIIInv (the legch defect README.md describes)."""
    problems = []
    for seed in seeds:
        for item in queries.make_inputs("loop_compose", seed)["items"]:
            if item[0] != "script" or item[1]["mode"] != "verified":
                continue
            born = None
            for e in item[1]["events"]:
                if e["type"] == "RII":
                    born = e["y"]["name"]
                elif e["type"] == "RIIInv":
                    born = None
                elif e["type"] == "RIIIb" and born in (e["y"], e["z"]):
                    problems.append(f"loop_compose seed {seed}: verified script substitutes with {born}")
    return problems


def run_bench(workload: str, seed: int, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def check_seeds(workload: str, spec: dict) -> list[str]:
    problems = []
    if queries.make_inputs(workload, 1) == queries.make_inputs(workload, 2):
        problems.append(f"{workload}: seeds 1 and 2 give the same inputs")
    if queries.make_inputs(workload, 1) != queries.make_inputs(workload, 1):
        problems.append(f"{workload}: seed 1 does not repeat its inputs")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"] for m in spec[key]}
        for seed in (1, 2):
            code, res = run_bench(workload, seed, trace)
            got = set(res["metrics"])
            if code != 0 or not res["correct"] or res["failed"]:
                problems.append(f"{workload} seed {seed} trace {trace}: exit {code}, {res['failed']} failed")
            if got != want:
                problems.append(f"{workload} seed {seed} trace {trace}: metric names differ: "
                                f"{sorted(got ^ want)}")
    return problems


def main() -> int:
    workloads = sys.argv[1:] or list(queries.WORKLOADS)
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    lg = child.load_legch(root)
    problems = []
    for w in workloads:
        problems += check_references(w, lg)
        if w == "loop_compose":
            problems += check_script_rule()
        problems += check_seeds(w, spec)
        print(f"{w}: {'ok' if not problems else 'problems so far: ' + str(len(problems))}", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
