"""Reference answers computed without the code under test.

Everything here is plain integer arithmetic or explicit word-set expansion
in pure Python; nothing imports legch.  The checks in queries.py compare
the program's answers against these values.
"""

from __future__ import annotations

from functools import reduce

PINNED_J4 = {"fly": (3,), "j": 4, "tau": 250, "certificate_ok": True, "conclusion": "inconclusive"}


def fib(k: int) -> int:
    """F(0) = 0, F(1) = 1, F(k) = F(k-1) + F(k-2)."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def path_lengths(n: int) -> tuple[int, int, int, int]:
    """Entry word counts of the n-th path matrix: (F(n+1), F(n), F(n), F(n-1))."""
    return (fib(n + 1), fib(n), fib(n), fib(n - 1))


def d_a1_length(n: int) -> int:
    """l(d(a1)) = l(1 + B11) = F(n+1) + 1 (B11 has no unit word)."""
    return fib(n + 1) + 1


def d_a2_length(n: int) -> int:
    """l(d(a2)) = F(n)^2 + F(n-1) - 1."""
    return fib(n) ** 2 + fib(n - 1) - 1


def word_length(n: int) -> int:
    """Length of the associated word of the K_{n,2} tangle: l(d(a2)) + 1."""
    return d_a2_length(n) + 1


def even_class(n: int) -> bool:
    """K_{n,2} is of even d-class iff n mod 3 != 2."""
    return n % 3 != 2


def fly_word_length(summands) -> int:
    return reduce(lambda acc, n: acc * word_length(n), summands, 1)


def sum_closure_length(summands) -> int:
    """l(d(a)) = prod l(W_i) - 1: the unit word of the product cancels the 1."""
    return fly_word_length(summands) - 1


def sum_even_class(summands) -> bool:
    """Even class of a connected sum of K_{n,2} tangles: every degree-1
    differential (each tangle's a1 and the closure) has even length."""
    return all(d_a1_length(n) % 2 == 0 for n in summands) and sum_closure_length(summands) % 2 == 0


def verdict_ok(summands, j: int, tau: int, certificate_ok: bool, conclusion: str) -> bool:
    """Closed forms of the fly # trefoil verdicts: tau = 1 at j = 1, odd at
    j = 2, 2 l(W)^2 + 1 at j = 3, all certified nontrivial; j = 4 is pinned
    for the fly 3 only."""
    if j == 4:
        return (tuple(summands) == PINNED_J4["fly"] and tau == PINNED_J4["tau"]
                and certificate_ok == PINNED_J4["certificate_ok"]
                and conclusion == PINNED_J4["conclusion"])
    if j == 1:
        want = tau == 1
    elif j == 2:
        want = tau % 2 == 1
    elif j == 3:
        want = tau == 2 * fly_word_length(summands) ** 2 + 1
    else:
        raise ValueError(f"no reference for j = {j}")
    return want and certificate_ok and conclusion == "nontrivial"


def count_terms(text: str) -> int:
    """Number of words in a canonical polynomial string ("0" has none)."""
    return 0 if text.strip() == "0" else text.count("+") + 1


# -- move scripts by explicit expansion --------------------------------------


class TooBig(Exception):
    pass


def _substitute(words: frozenset, images: dict, cap: int) -> frozenset:
    """Apply a letter substitution to an explicit word set, mod 2."""
    acc: set = set()
    for w in words:
        partial = {()}
        for c in w:
            img = images.get(c)
            if img is None:
                partial = {p + (c,) for p in partial}
                continue
            nxt: set = set()
            for p in partial:
                for u in img:
                    nxt ^= {p + u}
            partial = nxt
            if len(partial) > cap:
                raise TooBig
        acc ^= partial
        if len(acc) > cap:
            raise TooBig
    return frozenset(acc)


def _parse(text: str) -> frozenset:
    if text.strip() == "0":
        return frozenset()
    out: set = set()
    for term in text.split("+"):
        term = term.strip()
        out ^= {() if term == "1" else tuple(term.split())}
    return frozenset(out)


def script_images(doc: dict, cap: int = 20_000) -> dict | None:
    """Monodromy of a script.v1 document over explicit word sets: for each
    initial generator, the word set of its image.  None when some image or
    differential would exceed `cap` words."""
    names = [g["name"] for g in doc["initial"]["generators"]]
    images = {g: frozenset({(g,)}) for g in names}
    diff = {k: _parse(v) for k, v in doc["initial"].get("differential", {}).items()}
    try:
        for ev in doc["events"]:
            kind = ev["type"]
            if kind in ("RIIIa", "RII"):
                if kind == "RII":
                    for k, v in ev.get("new_differentials", {}).items():
                        diff[k] = _parse(v)
                continue
            if kind == "RIIIb":
                sub = {ev["x"]: frozenset({(ev["x"],), (ev["z"], ev["y"])})}
            elif kind == "Relabel":
                sub = {old: frozenset({(new,)}) for old, new in ev["perm"].items()}
            elif kind == "RIIInv":
                w = diff[ev["x"]] ^ {(ev["y"],)}
                sub = {ev["x"]: frozenset(), ev["y"]: w}
                diff.pop(ev["x"], None)
                diff.pop(ev["y"], None)
            else:
                raise ValueError(f"unknown event {kind!r}")
            if kind == "Relabel":
                diff = {ev["perm"].get(k, k): _substitute(v, sub, cap) for k, v in diff.items()}
            else:
                diff = {k: _substitute(v, sub, cap) for k, v in diff.items()}
            images = {g: _substitute(img, sub, cap) for g, img in images.items()}
    except TooBig:
        return None
    return images
