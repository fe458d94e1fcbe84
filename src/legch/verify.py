"""Reproduction harness: the eight acceptance checks behind `legch verify`.

Each criterion function returns (name, ok, details, elapsed_seconds) and
performs only exact comparisons; the time budgets quoted in the docstrings
are asserted by the test suite, not here.
"""

from __future__ import annotations

import functools
import itertools
import random
import time

from .algebra import AlgebraMap, Poly, add, compose, mul, poly_to_str
from .builders import (
    connect_sum,
    fibonacci_lengths,
    is_even_delta_class,
    path_matrix,
    torus_knot_dga,
    torus_tangle,
)
from .dga import Dga, Generator, check_dga, shrink
from .moves import (
    MoveScript, RIIIa, RIIIb, RIIInv, Relabel, holonomy, kalman_monodromy, run_script
)
from .obstruction import family_dga, family_verdicts, tau_parity_certificate, verdict

SUMMAND_POOL = (3, 7, 9)


def _criterion(title: str, success: str):
    """Times a criterion body that returns its problem list and turns it
    into the row (title, ok, details, elapsed seconds)."""

    def decorate(body):
        @functools.wraps(body)
        def run():
            start = time.perf_counter()
            problems = body()
            elapsed = time.perf_counter() - start
            return (title, not problems, "; ".join(problems) or success, elapsed)

        return run

    return decorate


def fly_multisets():
    out = []
    for size in (1, 2, 3):
        out.extend(itertools.combinations_with_replacement(SUMMAND_POOL, size))
    return out


@_criterion("trefoil ground truth", "trefoil entries and differentials exact")
def criterion_1():
    """Trefoil ground truth: path matrix entries and differentials."""
    problems = []
    m = path_matrix(3)
    expected_entries = {
        (1, 1): "b1 + b3 + b1 b2 b3",
        (1, 2): "1 + b1 b2",
        (2, 1): "1 + b2 b3",
        (2, 2): "b2",
    }
    for idx, want in expected_entries.items():
        got = poly_to_str(m[idx])
        if got != want:
            problems.append(f"B{idx[0]}{idx[1]} = {got}, expected {want}")
    dga = torus_knot_dga(3)
    expected_diff = {
        "a1": "1 + b1 + b3 + b1 b2 b3",
        "a2": "b2 + b1 b2 + b2 b3 + b2 b3 b1 b2",
    }
    for name, want in expected_diff.items():
        got = poly_to_str(dga.d(name))
        if got != want:
            problems.append(f"d({name}) = {got}, expected {want}")
    return problems


@_criterion(
    "fibonacci lengths", "entry lengths match (F(n+1), F(n), F(n), F(n-1)) for n=1..20"
)
def criterion_2():
    """Path-matrix entry lengths follow the Fibonacci pattern for n = 1..20."""
    problems = []
    fib = [0, 1]
    for _ in range(22):
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 21):
        want = (fib[n + 1], fib[n], fib[n], fib[n - 1])
        got = path_matrix(n).lengths()
        if got != want:
            problems.append(f"n={n}: lengths {got}, expected {want}")
        if fibonacci_lengths(n) != want:
            problems.append(f"n={n}: fibonacci_lengths disagrees")
    return problems


@_criterion(
    "even d-class criterion", "classification matches n mod 3 != 2 for odd n in 3..21"
)
def criterion_3():
    """Even d-class iff n mod 3 != 2, for odd n in 3..21."""
    problems = []
    for n in range(3, 22, 2):
        got, report = is_even_delta_class(torus_knot_dga(n))
        want = n % 3 != 2
        if got != want:
            problems.append(f"n={n}: classified {got}, expected {want} ({report})")
    return problems


@_criterion(
    "connected-sum algebra",
    f"all {len(fly_multisets())} sums: d(a) = 1 + prod(W_i), even length, "
    "internals unchanged, DGA valid",
)
def criterion_4():
    """Connected sums over {3,7,9} multisets of size <= 3: closure
    differential 1 + prod(W_i), even length, internal differentials
    unchanged, check_dga clean."""
    problems = []
    for summands in fly_multisets():
        tangles = [torus_tangle(n, f"k{i}") for i, n in enumerate(summands, 1)]
        dga = connect_sum(tangles)
        closure = dga.d("a")
        word_lengths = [t.word.length() for t in tangles]
        expected_len = 1
        for wl in word_lengths:
            expected_len *= wl
        # the unit word of prod(W_i) cancels against the explicit 1
        expected_len -= 1
        got_len = closure.length()
        if got_len != expected_len:
            problems.append(
                f"{summands}: l(d(a)) = {got_len}, expected {expected_len}"
            )
        if got_len % 2 != 0:
            problems.append(f"{summands}: l(d(a)) = {got_len} is odd")
        words = [t.word for t in tangles]
        if len(words) == 1:
            same = closure.words() == words[0].words() ^ {()}
        else:
            # 1 + ((W1 + 1) R + R) with R = W2...Wk: the same value in a shape
            # that hash-consing does not merge into d(a), so == compares them
            rest = functools.reduce(mul, words[1:])
            same = closure == add(Poly.one(), add(mul(add(words[0], Poly.one()), rest), rest))
        if not same:
            problems.append(f"{summands}: d(a) != 1 + prod(W_i)")
        if closure.has_unit():
            problems.append(f"{summands}: unit word survived in d(a)")
        for t in tangles:
            for name, image in t.internal.differential.items():
                if dga.d(name) != image:
                    problems.append(f"{summands}: d({name}) changed")
        report = check_dga(dga)
        if not report.ok:
            problems.append(f"{summands}: {report.violations}")
    return problems


@_criterion(
    "tau certificate",
    "tau(d(a1)) = 2 and tau(d(a)) = 2 l(W_fly) for every fly; certificates hold",
)
def criterion_5():
    """tau certificate bookkeeping for fly # trefoil."""
    problems = []
    for summands in fly_multisets():
        dga, fly_word = family_dga(summands)
        fly_len = fly_word.length()
        t1 = dga.d("a1").tau("b3")
        if t1 != 2:
            problems.append(f"{summands}: tau(d(a1)) = {t1}, expected 2")
        ta = dga.d("a").tau("b3")
        if ta != 2 * fly_len:
            problems.append(
                f"{summands}: tau(d(a)) = {ta}, expected {2 * fly_len}"
            )
        ok, report = tau_parity_certificate(dga, "b3")
        if not ok:
            problems.append(f"{summands}: certificate failed ({report})")
    return problems


@_criterion(
    "monodromy verdicts",
    "all verdicts nontrivial; tau = 1 at j=1 and 2 l(W)^2 + 1 at j=3",
)
def criterion_6():
    """Monodromy verdicts: odd tau for j in {1,2,3}; closed forms at j=1,3."""
    problems = []
    for summands in fly_multisets():
        dga, fly_word = family_dga(summands)
        fly_len = fly_word.length()
        verdicts = family_verdicts(summands, (1, 2, 3))
        for j, v in verdicts.items():
            if v.tau_value % 2 != 1:
                problems.append(f"{summands} j={j}: tau {v.tau_value} even")
            if v.conclusion != "nontrivial":
                problems.append(f"{summands} j={j}: {v.conclusion}")
        if verdicts[1].tau_value != 1:
            problems.append(f"{summands} j=1: tau {verdicts[1].tau_value} != 1")
        want3 = 2 * fly_len * fly_len + 1
        if verdicts[3].tau_value != want3:
            problems.append(
                f"{summands} j=3: tau {verdicts[3].tau_value} != {want3}"
            )
    return problems


def _random_formal_script(rng, n_events):
    gens = tuple(Generator(f"g{i}", 0) for i in range(5))
    names = [g.name for g in gens]
    initial = Dga(gens, {}, True)
    events = []
    for _ in range(n_events):
        kind = rng.choice(["RIIIa", "RIIIb", "Relabel"])
        if kind == "RIIIa":
            events.append(RIIIa())
        elif kind == "RIIIb":
            x, y, z = rng.sample(names, 3)
            events.append(RIIIb(x, y, z))
        else:
            perm = rng.sample(names, len(names))
            events.append(Relabel(dict(zip(names, perm))))
    return MoveScript(initial, tuple(events), "formal")


@_criterion(
    "holonomy rules",
    "move rules exact; run_script(s1 ++ s2) = compose on 100 random scripts",
)
def criterion_7():
    """Holonomy rule pins plus the script concatenation homomorphism."""
    problems = []
    # RII inverse: d(x) = y + w sends x to 0 and y to w
    w = Poly.word("u", "v")
    state = Dga(
        (
            Generator("x", 1),
            Generator("y", 0),
            Generator("u", 0),
            Generator("v", 0),
        ),
        {"x": add(Poly.gen("y"), w)},
        True,
    )
    h, post = holonomy(RIIInv("x", "y"), state)
    if h("x") != Poly.zero() or h("y") != w:
        problems.append("RIIInv rule broken")
    if post.names != frozenset({"u", "v"}):
        problems.append("RIIInv did not remove the killed pair")
    # RIII_b: x -> x + z y
    state3 = Dga(
        (Generator("x", 0), Generator("y", 0), Generator("z", 0)), {}, True
    )
    h3, _ = holonomy(RIIIb("x", "y", "z"), state3)
    if h3("x") != add(Poly.gen("x"), Poly.word("z", "y")):
        problems.append("RIIIb rule broken")
    # RIII_a: identity
    ha, _ = holonomy(RIIIa(), state3)
    if ha.normalized():
        problems.append("RIIIa is not the identity")
    # homomorphism property over randomized formal scripts
    rng = random.Random(20260825)
    for trial in range(100):
        s = _random_formal_script(rng, rng.randint(0, 6))
        cut = rng.randint(0, len(s.events))
        s1 = MoveScript(s.initial, s.events[:cut], "formal")
        # formal mode composes maps without endomorphism bookkeeping, so
        # the tail script runs against the same formal initial state
        s2 = MoveScript(s.initial, s.events[cut:], "formal")
        whole = run_script(s).map
        parts = compose(run_script(s2).map, run_script(s1).map)
        if whole != parts:
            problems.append(f"trial {trial}: concatenation != composition")
            break
    return problems


def _random_poly(rng, letters, max_words=4, max_len=3):
    words = []
    for _ in range(rng.randint(0, max_words)):
        words.append(tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len))))
    return Poly.from_words(words)


@_criterion(
    "property suite",
    "ring axioms, map laws, shrink scaling, and renaming invariance hold "
    "on 1000 random cases each",
)
def criterion_8():
    """Randomized algebraic laws, >= 1000 cases per family."""
    from fractions import Fraction

    problems = []
    rng = random.Random(13)
    letters = ["a", "b", "c", "d"]
    for trial in range(1000):
        p = _random_poly(rng, letters)
        q = _random_poly(rng, letters)
        r = _random_poly(rng, letters)
        if (
            add(p, p) != Poly.zero()
            or mul(Poly.one(), p) != p
            or mul(p, Poly.one()) != p
            or mul(mul(p, q), r) != mul(p, mul(q, r))
            or mul(p, add(q, r)) != add(mul(p, q), mul(p, r))
            or mul(add(p, q), r) != add(mul(p, r), mul(q, r))
            or add(p, q) != add(q, p)
        ):
            problems.append(f"ring axiom failed on trial {trial}")
            break
    for trial in range(1000):
        m = AlgebraMap(
            {c: _random_poly(rng, letters, 2, 2) for c in rng.sample(letters, 2)}
        )
        p = _random_poly(rng, letters)
        q = _random_poly(rng, letters)
        if m.apply(mul(p, q)) != mul(m.apply(p), m.apply(q)):
            problems.append(f"map multiplicativity failed on trial {trial}")
            break
        if m.apply(add(p, q)) != add(m.apply(p), m.apply(q)):
            problems.append(f"map additivity failed on trial {trial}")
            break
    base = Dga(
        (Generator("x", 1, Fraction(5)), Generator("y", 0, Fraction(2))),
        {"x": Poly.gen("y")},
        True,
    )
    for trial in range(1000):
        u = Fraction(rng.randint(1, 8), 8)
        v = Fraction(rng.randint(1, 8), 8)
        if shrink(shrink(base, u), v) != shrink(base, u * v):
            problems.append(f"shrink composition failed on trial {trial}")
            break
    for trial in range(1000):
        summands = tuple(
            rng.choice(SUMMAND_POOL) for _ in range(rng.randint(1, 2))
        )
        j = rng.randint(1, 2)
        dga, fly_word = family_dga(summands)
        mu = kalman_monodromy(fly_word, j)
        base_v = verdict(dga, mu, "b3", "b3")
        renaming = {
            name: f"m{name[1]}.{name[3:]}"
            for name in dga.names
            if name.startswith("k")
        }
        dga_r = dga.rename(renaming)
        mu_r = AlgebraMap(
            {
                renaming.get(g, g): img.rename(renaming)
                for g, img in mu.assignments.items()
            }
        )
        v_r = verdict(dga_r, mu_r, "b3", "b3")
        if (base_v.tau_value, base_v.conclusion) != (v_r.tau_value, v_r.conclusion):
            problems.append(f"renaming changed the verdict on trial {trial}")
            break
    return problems


# `legch verify` target name -> criterion, in the order `all` runs them
CRITERIA = {
    "trefoil": criterion_1,
    "lengths": criterion_2,
    "class": criterion_3,
    "sums": criterion_4,
    "tau": criterion_5,
    "monodromy": criterion_6,
    "holonomy": criterion_7,
    "properties": criterion_8,
}
