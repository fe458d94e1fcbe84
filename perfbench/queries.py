"""Workload inputs and their fixed query sets.

`make_inputs(workload, seed)` draws the plain-data inputs (ints, generator
names, script.v1 dicts) from the seed alone.  The seed picks names, orders
(of queries and of the summands of a connected sum) and the events of the
move scripts; the instances themselves are fixed, so every seed carries
about the same work.  `make_queries` turns the inputs into queries: `run`
is the timed answer, built from the plain data through legch's public API,
and `check` compares it, untimed, with refs.py.  `pinned_queries` are the
few queries too slow to repeat in every sample; a traced run answers them
once.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import refs

WORKLOADS = ("certified_queries", "loop_compose")
PINNED_WORKLOADS = ("loop_compose",)

# certified_queries: rungs below the walls, so every query is answerable,
# and small enough that a sample takes about two seconds and a run holds
# ten or more samples.  The largest rungs below the walls (n = 31, 33,
# tangle 15, 17, fly 15) are climbed by the frontier ladders only, and the
# two-summand flies with a 13 are left out.  The fly 13 keeps expansion
# fallbacks on huge lazy nodes in every sample (about 1 M words in all, up
# to 0.1 M in one node), the fly 3#3 a τ fallback over thousands of small
# nodes.
PATH_NS = tuple(range(21, 31, 2))
KNOT_NS = tuple(range(21, 31, 2))
TANGLE_NS = tuple(range(3, 15, 2))
FLY_POOL = (3, 7, 9)
EXTRA_FLIES = ((13,), (3, 7, 9), (7, 9, 9))

# loop_compose: (events, of which RIIIb, scripts per sample).  Chains longer
# than six RIIIb events grow doubly exponentially and would make the cost of
# a sample depend on the seed; six keeps the long chains in every sample.
# The counts are large enough that the seed's draw adds no visible spread:
# the latency percentiles of ten seeds spread no more than those of five
# runs of one seed (baseline_seed.json).
SCRIPT_MIX = ((1, 0, 160), (2, 1, 240), (4, 2, 240), (6, 3, 240), (8, 4, 160), (12, 6, 160))
SCRIPT_GENS = 5
SMALL_FLIES = ((3,), (7,), (9,), (3, 7), (3, 9), (7, 9), (7, 7), (9, 9))

# The README quick start through cli.main, part of loop_compose: torus
# sizes (two n = 9 tangles already sum to a 128 MB document) and flies.
CLI_SIZES = (3, 5, 7)
CLI_FLIES = ((3, 7), (7, 9))


@dataclass
class Query:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _name(rng: random.Random, taken: set) -> str:
    while True:
        s = rng.choice("pqrstuvw") + "".join(rng.choice("abcdefghjkmnxyz") for _ in range(2))
        if s not in taken:
            taken.add(s)
            return s


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


# -- inputs -------------------------------------------------------------------


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certified_queries":
        taken: set = set()
        flies = [c for k in (1, 2) for c in itertools.combinations_with_replacement(FLY_POOL, k)]
        flies += EXTRA_FLIES
        items = (
            [["path", n] for n in PATH_NS]
            + [["knot", n] for n in KNOT_NS]
            + [["tangle", n, _name(rng, taken)] for n in TANGLE_NS]
            + [["fly", _shuffled(rng, f)] for f in flies]
        )
        return {"items": _shuffled(rng, items)}
    if workload == "loop_compose":
        items = [["monodromy", _shuffled(rng, fly), [1, 2, 3]] for fly in SMALL_FLIES]
        scripts = []
        for n_events, n_b, count in SCRIPT_MIX:
            for i in range(count):
                mode = "verified" if i % 2 else "formal"
                scripts.append(_script_doc(rng, n_events, n_b, mode))
        items += [["script", doc, cut] for doc, cut in _shuffled(rng, scripts)]
        taken: set = set()
        sizes = [{"n": n, "prefixes": [_name(rng, taken), _name(rng, taken)],
                  "closure": _name(rng, taken)} for n in _shuffled(rng, CLI_SIZES)]
        return {"items": items, "cli": {"sizes": sizes, "flies": [_shuffled(rng, f) for f in CLI_FLIES]}}
    raise ValueError(f"unknown workload {workload!r}")


def _script_doc(rng: random.Random, n_events: int, n_b: int, mode: str):
    """A script.v1 document over degree-0 generators without differentials,
    plus a cut point for the concatenation check.  Scripts of four or more
    events carry one RII birth and its RIIInv death, with RIIIb events
    between them.  In formal scripts those RIIIb events may substitute with
    the born generator y.  Verified scripts never do: legch's verified
    run_script raises UnknownGenerator when a cancelled y is left in the
    alphabet of a symbolic image (Dga.word_degree_bounds), a known defect
    that README.md describes, and the workload holds only answerable
    queries."""
    taken: set = set()
    names = [_name(rng, taken) for _ in range(SCRIPT_GENS)]
    window = n_events >= 4
    others = n_events - n_b - (2 if window else 0)
    kinds = ["RIIIb"] * n_b + [rng.choice(["RIIIa", "Relabel"]) for _ in range(others)]
    rng.shuffle(kinds)
    if window:
        i = rng.randint(0, len(kinds))
        j = rng.randint(i, len(kinds))
        kinds = kinds[:i] + ["RII"] + kinds[i:j] + ["RIIInv"] + kinds[j:]
    x, y = _name(rng, taken), _name(rng, taken)
    events, alive, span, w_letters = [], list(names), None, set()
    for pos, kind in enumerate(kinds):
        if kind == "RIIIa":
            events.append({"type": "RIIIa"})
        elif kind == "Relabel":
            perm = dict(zip(names, _shuffled(rng, names)))
            w_letters = {perm[n] for n in w_letters}
            events.append({"type": "Relabel", "perm": perm})
        elif kind == "RIIIb":
            a = rng.choice(names)
            # d(x) = y + w must keep y out of w, or RIIInv is no cancellation
            pool = [n for n in alive if n != a and (n != y or a not in w_letters)
                    and (n != y or mode == "formal")]
            b, c = rng.sample(pool, 2)
            if a in w_letters:
                w_letters |= {b, c}
            events.append({"type": "RIIIb", "x": a, "y": b, "z": c})
        elif kind == "RII":
            w = rng.sample(names, 2)
            w_letters = set(w)
            events.append({"type": "RII", "x": {"name": x, "degree": 1},
                           "y": {"name": y, "degree": 0},
                           "new_differentials": {x: f"{y} + {' '.join(w)}"}})
            alive.append(y)
            span = pos
        else:
            events.append({"type": "RIIInv", "x": x, "y": y})
            alive.remove(y)
            span = (span, pos)
    cuts = [c for c in range(len(events) + 1)
            if not (isinstance(span, tuple) and span[0] < c <= span[1])]
    doc = {
        "schema": "script.v1",
        "initial": {"schema": "dga.v1",
                    "generators": [{"name": n, "degree": 0} for n in names],
                    "differential": {}, "rotation_zero": True},
        "events": events,
        "mode": mode,
    }
    return doc, rng.choice(cuts)


# -- queries ------------------------------------------------------------------


def make_queries(workload: str, inputs: dict, lg: dict, workdir: str, stats: dict) -> list[Query]:
    """`lg` maps legch module names to modules; `stats` collects per-sample
    counts that are not timings (cli.bytes_out)."""
    if workload == "certified_queries":
        return [_certified(item, lg) for item in inputs["items"]]
    if workload == "loop_compose":
        return ([q for item in inputs["items"] for q in _loop(item, lg)]
                + _cli(inputs["cli"], lg, workdir, stats))
    raise ValueError(f"unknown workload {workload!r}")


def pinned_queries(workload: str, lg: dict) -> list[Query]:
    """kalman_monodromy(W_3, 4) and its verdict (about 10 s, τ pinned to
    250) for loop_compose; none for certified_queries."""
    if workload not in PINNED_WORKLOADS:
        return []
    pin = refs.PINNED_J4
    return [Query("pinned", q.label, q.run, q.check)
            for q in _loop(["monodromy", list(pin["fly"]), [pin["j"]]], lg)]


def _certified(item, lg) -> Query:
    b, ob = lg["builders"], lg["obstruction"]
    kind, n = item[0], item[1]
    if kind == "path":
        return Query("path", f"path_matrix({n})", lambda: b.path_matrix(n).lengths(),
                     lambda got: tuple(got) == refs.path_lengths(n))
    if kind == "knot":
        def run():
            dga = b.torus_knot_dga(n)
            return b.is_even_delta_class(dga)[0], dga.d("a2").length()
        return Query("knot", f"torus_knot_dga({n})", run,
                     lambda got: got == (refs.even_class(n), refs.d_a2_length(n)))
    if kind == "tangle":
        prefix = item[2]
        return Query("tangle", f"torus_tangle({n})",
                     lambda: b.torus_tangle(n, prefix).word.length(),
                     lambda got: got == refs.word_length(n))
    if kind == "fly":
        fly = tuple(n)
        return Query("fly", f"fly {fly}", lambda: _verdict_table(ob.family_verdicts(fly, (1, 2, 3))),
                     lambda got: _verdicts_ok(fly, got))
    raise ValueError(kind)


def _verdict_table(table) -> dict:
    return {j: (v.tau_value, v.certificate_ok, v.conclusion) for j, v in table.items()}


def _verdicts_ok(fly, got: dict, powers=(1, 2, 3)) -> bool:
    return sorted(got) == sorted(powers) and all(
        refs.verdict_ok(fly, j, *got[j]) for j in powers
    )


def _loop(item, lg) -> list[Query]:
    ob, mv = lg["obstruction"], lg["moves"]
    if item[0] == "monodromy":
        fly, powers = tuple(item[1]), item[2]
        out = []
        for j in powers:
            def run(j=j):
                dga, word = ob.family_dga(fly)
                mu = mv.kalman_monodromy(word, j)
                return _verdict_table({j: ob.verdict(dga, mu, "b3", "b3")})
            out.append(Query("monodromy", f"kalman fly {fly} j={j}", run,
                             lambda got, j=j: _verdicts_ok(fly, got, (j,))))
        return out
    doc, cut = item[1], item[2]
    run = lambda: mv.run_script(script_from_doc(doc, lg)).map
    return [Query("script", f"script {len(doc['events'])} events {doc['mode']}", run,
                  lambda got: _script_ok(doc, cut, got, lg))]


def script_from_doc(doc: dict, lg: dict):
    """script.v1 document to MoveScript, through the public constructors."""
    mv, dga_mod, al = lg["moves"], lg["dga"], lg["algebra"]

    def gen(d):
        return dga_mod.Generator(d["name"], int(d["degree"]))

    events = []
    for e in doc["events"]:
        kind = e["type"]
        if kind == "RIIIa":
            events.append(mv.RIIIa())
        elif kind == "RIIIb":
            events.append(mv.RIIIb(e["x"], e["y"], e["z"]))
        elif kind == "Relabel":
            events.append(mv.Relabel(dict(e["perm"])))
        elif kind == "RIIInv":
            events.append(mv.RIIInv(e["x"], e["y"]))
        else:
            diffs = {k: al.poly_from_str(v) for k, v in e["new_differentials"].items()}
            events.append(mv.RII(gen(e["x"]), gen(e["y"]), diffs))
    return mv.MoveScript(dga_mod.dga_from_dict(doc["initial"]), tuple(events), doc["mode"])


def _script_ok(doc: dict, cut: int, got, lg) -> bool:
    """Concatenation = composition, and equality with explicit expansion
    whenever the reference stays small."""
    mv, al = lg["moves"], lg["algebra"]
    first = dict(doc, events=doc["events"][:cut])
    second = dict(doc, events=doc["events"][cut:])
    parts = al.compose(mv.run_script(script_from_doc(second, lg)).map,
                       mv.run_script(script_from_doc(first, lg)).map)
    if parts != got:
        return False
    want = refs.script_images(doc)
    if want is None:
        return True
    return all(got(g).words() == img for g, img in want.items())


def _cli(inputs: dict, lg: dict, workdir: str, stats: dict) -> list[Query]:
    main = lg["cli"].main
    stats["cli.bytes_out"] = 0

    def path(name):
        return os.path.join(workdir, name)

    def call(argv, out):
        def run():
            status = main(argv)
            stats["cli.bytes_out"] += os.path.getsize(out)
            return status
        return run

    def doc_check(out, test):
        def check(status):
            if status != 0:
                return False
            with open(out) as fh:
                return test(json.load(fh))
        return check

    qs: list[Query] = []
    for spec in inputs["sizes"]:
        n, (p1, p2), closure = spec["n"], spec["prefixes"], spec["closure"]
        knot, t1, t2, s, cls, w = (path(f"{x}{n}.json") for x in ("knot", "t1", "t2", "sum", "class", "word"))
        summands = [n, n]
        qs += [
            Query("build", f"build {n}", call(["build", "torus", "--n", str(n), "--emit", knot], knot),
                  doc_check(knot, lambda d, n=n: _knot_doc_ok(d, n))),
            Query("tangle", f"tangle {n}", call(["tangle", knot, "--prefix", p1, "--emit", t1], t1),
                  doc_check(t1, lambda d, n=n: refs.count_terms(d["word"]) == refs.word_length(n))),
            Query("tangle", f"tangle {n}", call(["tangle", knot, "--prefix", p2, "--emit", t2], t2),
                  doc_check(t2, lambda d, n=n: refs.count_terms(d["word"]) == refs.word_length(n))),
            Query("sum", f"sum {n}x2",
                  call(["sum", t1, t2, "--closure-name", closure, "--emit", s], s),
                  doc_check(s, lambda d, c=closure, ns=summands: refs.count_terms(d["differential"][c])
                            == refs.sum_closure_length(ns))),
            Query("classify", f"classify sum {n}", call(["classify", s, "--emit", cls], cls),
                  doc_check(cls, lambda d, ns=summands: d["even_delta_class"] is refs.sum_even_class(ns))),
            Query("word", f"word {n}", call(["word", t1, "--emit", w], w),
                  doc_check(w, lambda d, n=n: d["length"] == refs.word_length(n)
                            and refs.count_terms(d["word"]) == d["length"])),
        ]
    for i, fly in enumerate(inputs["flies"]):
        out = path(f"verdict{i}.json")
        argv = ["verdict", "--fly", ",".join(map(str, fly)), "--power", "1", "--power", "2",
                "--power", "3", "--emit", out]
        qs.append(Query("verdict", f"verdict {fly}", call(argv, out),
                        doc_check(out, lambda d, fly=tuple(fly): _verdict_doc_ok(d, fly))))
    return qs


def _knot_doc_ok(d: dict, n: int) -> bool:
    diff = d["differential"]
    return (refs.count_terms(diff["a1"]) == refs.d_a1_length(n)
            and refs.count_terms(diff["a2"]) == refs.d_a2_length(n)
            and len(d["generators"]) == n + 2)


def _verdict_doc_ok(d: dict, fly) -> bool:
    entries = {e["power"]: (e["tau_value"], e["certificate_ok"], e["conclusion"]) for e in d["entries"]}
    return tuple(d["fly"]) == fly and _verdicts_ok(fly, entries)
