"""Builders for (n,2)-torus knot DGAs, tangles, and connected sums.

The path matrix is the ordered product of the n elementary matrices
[[b_i, 1], [1, 0]].  For odd n >= 3 its entries give the differentials of
the two degree-1 kinks of the torus knot K_{n,2}.  Removing the closure
kink yields a tangle with an associated word W = d(closure) + 1; the
connected sum of tangles concatenates them and closes with one fresh
degree-1 crossing a with d(a) = 1 + W_1 ... W_k.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import algebra
from .algebra import (
    Poly,
    add,
    check_name,
    mul,
    poly_from_str,
    poly_to_str,
    unsafe_disjoint_sum,
    unsafe_injective_product,
)
from .dga import Dga, DgaError, Generator, dga_from_dict, dga_to_dict, reading


class BuilderError(DgaError):
    pass


class EvenParameter(BuilderError):
    pass


class TooSmall(BuilderError):
    pass


class ClosureReferenced(BuilderError):
    pass


class NotDegreeOne(BuilderError):
    pass


class PrefixCollision(BuilderError):
    pass


class EmptyList(BuilderError):
    pass


# Results each memoized builder keeps alive, so that a later build finds the
# hash-consed nodes it shares with them, with their memoized statistics.
_KEPT = 32


def _kept(build):
    """`build` memoized on its arguments and the LAZY_THRESHOLD it runs under."""
    cached = functools.lru_cache(_KEPT)(lambda _threshold, *args: build(*args))
    builder = functools.wraps(build)(lambda *args: cached(algebra.LAZY_THRESHOLD, *args))
    builder.cache_clear = cached.cache_clear
    return builder


@dataclass(frozen=True)
class PathMatrix:
    """2x2 matrix of polynomials: ((B11, B12), (B21, B22))."""

    entries: tuple[tuple[Poly, Poly], tuple[Poly, Poly]]

    def __getitem__(self, idx: tuple[int, int]) -> Poly:
        i, j = idx
        return self.entries[i - 1][j - 1]

    def lengths(self) -> tuple[int, int, int, int]:
        (a, b), (c, d) = self.entries
        return (a.length(), b.length(), c.length(), d.length())


@_kept
def path_matrix(n: int) -> PathMatrix:
    """Ordered product of [[b_i, 1], [1, 0]] for i = 1..n."""
    if n < 1:
        raise TooSmall(f"path matrix needs n >= 1, got {n}")
    one, zero = Poly.one(), Poly.zero()
    rows = ((one, zero), (zero, one))
    for i in range(1, n + 1):
        b = Poly.gen(f"b{i}")
        # the row (x, y) times [[b_i, 1], [1, 0]] is (x b_i + y, x)
        rows = tuple((add(mul(x, b), y), x) for x, y in rows)
    return PathMatrix(rows)


def fibonacci_lengths(n: int) -> tuple[int, int, int, int]:
    """Predicted entry lengths (F_{n+1}, F_n, F_n, F_{n-1}), F_0 = 0, F_1 = 1."""
    if n < 1:
        raise TooSmall(f"n >= 1 required, got {n}")
    a, b = 0, 1
    fib = [a, b]
    while len(fib) <= n + 1:
        a, b = b, a + b
        fib.append(b)
    return (fib[n + 1], fib[n], fib[n], fib[n - 1])


def torus_knot_dga(n: int) -> Dga:
    """DGA of the positive (n,2)-torus knot: braid crossings b_1..b_n in
    degree 0 with zero differential, kinks a_1, a_2 in degree 1 with
    d(a_1) = 1 + B11 and d(a_2) = 1 + B22 + B21 B12."""
    if n % 2 == 0:
        raise EvenParameter(f"(n,2) closes to a knot only for odd n, got {n}")
    if n < 3:
        raise TooSmall(f"torus knot needs n >= 3, got {n}")
    m = path_matrix(n)
    gens = tuple(Generator(f"b{i}", 0) for i in range(1, n + 1)) + (
        Generator("a1", 1),
        Generator("a2", 1),
    )
    # 1 + B22 + B21 B12 is cancellation-free apart from the unit: a path
    # word has odd index gaps, B21 words end with index = n mod 2 (odd) and
    # B12 words start odd, so a concatenation u v is recoverable from its
    # unique non-ascent or even gap, making B21 B12 word-injective with
    # l = l(B21) l(B12); its all-odd-gap words lie in B21 or B12 (never
    # B22, whose words end with the opposite parity), so only the unit of
    # B21 B12 meets the explicit 1.  Asserting this keeps the length exact
    # for large n without expansion.
    cross = unsafe_injective_product([m[2, 1], m[1, 2]])
    diff = {
        "a1": add(Poly.one(), m[1, 1]),
        "a2": unsafe_disjoint_sum([m[2, 2], add(Poly.one(), cross)]),
    }
    return Dga(gens, diff, rotation_zero=True)


@dataclass(frozen=True)
class Tangle:
    """An open knot: its internal DGA (closure crossing removed, names
    prefixed) and the associated word W = d(closure) + 1."""

    internal: Dga
    word: Poly
    prefix: str


def _prefixed(prefix: str, name: str) -> str:
    return name if not prefix else f"{prefix}.{name}"


def tangle_from_knot(dga: Dga, closure: str, prefix: str) -> Tangle:
    if dga.degree(closure) != 1:
        raise NotDegreeOne(
            f"closure crossing {closure!r} has degree {dga.degree(closure)}"
        )
    for name, image in dga.differential.items():
        # a symbolic alphabet is a superset: ask whether a word carries it
        if name != closure and closure in image.alphabet() and image.max_count(closure):
            raise ClosureReferenced(f"d({name}) mentions the closure {closure!r}")
    if prefix:
        check_name(prefix)
        if "." in prefix:
            raise BuilderError(f"prefix may not contain '.': {prefix!r}")
    renamed = dga.rename({g.name: _prefixed(prefix, g.name) for g in dga.generators})
    closure = _prefixed(prefix, closure)
    internal = Dga(
        tuple(g for g in renamed.generators if g.name != closure),
        {name: p for name, p in renamed.differential.items() if name != closure},
        dga.rotation_zero,
    )
    return Tangle(internal, add(renamed.d(closure), Poly.one()), prefix)


@_kept
def torus_tangle(n: int, prefix: str) -> Tangle:
    """Tangle of K_{n,2} opened at the a2 kink."""
    return tangle_from_knot(torus_knot_dga(n), "a2", prefix)


def connect_sum(tangles: Sequence[Tangle], closure_name: str = "a") -> Dga:
    """Concatenate tangles in order and close with one fresh degree-1
    crossing whose differential is 1 + W_1 W_2 ... W_k."""
    if not tangles:
        raise EmptyList("connected sum of zero tangles")
    prefixes = [t.prefix for t in tangles]
    if len(set(prefixes)) != len(prefixes):
        raise PrefixCollision(f"duplicate prefixes: {prefixes}")
    gens: list[Generator] = []
    diff: dict[str, Poly] = {}
    seen: set[str] = set()
    rotation_zero = True
    product = Poly.one()
    for t in tangles:
        overlap = t.internal.names & seen
        if overlap:
            raise PrefixCollision(f"generator collision: {sorted(overlap)}")
        seen |= t.internal.names
        gens.extend(t.internal.generators)
        diff.update(t.internal.differential)
        rotation_zero = rotation_zero and t.internal.rotation_zero
        product = mul(product, t.word)
    if closure_name in seen:
        raise PrefixCollision(f"closure name {closure_name!r} already used")
    gens.append(Generator(closure_name, 1))
    diff[closure_name] = add(Poly.one(), product)
    return Dga(tuple(gens), diff, rotation_zero)


def is_even_delta_class(dga: Dga) -> tuple[bool, list[str]]:
    """Even d-class test: rotation zero, even-length differential on every
    degree-1 generator, no negative degrees."""
    report: list[str] = []
    if not dga.rotation_zero:
        report.append("rotation_zero is false")
    for g in dga.generators:
        if g.degree < 0:
            report.append(f"generator {g.name} has negative degree {g.degree}")
        if g.degree == 1:
            n = dga.d(g.name).length()
            if n % 2 != 0:
                report.append(f"l(d({g.name})) = {n} is odd")
    return (not report, report)


# -- JSON (schema tangle.v1) --------------------------------------------------


def tangle_to_dict(t: Tangle) -> dict:
    return {
        "schema": "tangle.v1",
        "internal": dga_to_dict(t.internal),
        "word": poly_to_str(t.word),
        "prefix": t.prefix,
    }


def tangle_from_dict(data: Mapping) -> Tangle:
    with reading(data, "tangle.v1"):
        return Tangle(
            dga_from_dict(data["internal"]),
            poly_from_str(data["word"]),
            data.get("prefix", ""),
        )
