"""Property-based tests for the algebra, maps, and serialization."""

import functools
import itertools
import math
import sys
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from legch import algebra
from legch.algebra import (
    AlgebraError,
    AlgebraMap,
    Poly,
    add,
    compose,
    mul,
    poly_from_str,
    poly_to_str,
    unsafe_disjoint_sum,
    unsafe_injective_product,
    word_to_str,
)
from legch.dga import Dga, Generator, _leibniz, check_dga, degree_from_rotation, shrink
from legch.moves import RII, MoveScript, RIIInv, RIIIa, RIIIb, Relabel, _steps, run_script

LETTERS = ("a", "b", "c", "d", "e")

words = st.lists(st.sampled_from(LETTERS), max_size=3).map(tuple)
polys = st.lists(words, max_size=6).map(lambda ws: Poly.from_words(ws))
small_maps = st.dictionaries(
    st.sampled_from(LETTERS), polys, max_size=3
).map(AlgebraMap)
# iterated composition multiplies image sizes, so keep these tiny
tiny_words = st.lists(st.sampled_from(LETTERS), max_size=2).map(tuple)
tiny_polys = st.lists(tiny_words, max_size=2).map(lambda ws: Poly.from_words(ws))
tiny_maps = st.dictionaries(
    st.sampled_from(LETTERS), tiny_polys, max_size=2
).map(AlgebraMap)


class TestRingAxioms:
    @given(polys, polys, polys)
    def test_add_associative(self, p, q, r):
        assert add(add(p, q), r) == add(p, add(q, r))

    @given(polys, polys)
    def test_add_commutative(self, p, q):
        assert add(p, q) == add(q, p)

    @given(polys)
    def test_characteristic_two(self, p):
        assert not add(p, p)

    @given(polys, polys, polys)
    def test_mul_associative(self, p, q, r):
        assert mul(mul(p, q), r) == mul(p, mul(q, r))

    @given(polys, polys, polys)
    def test_distributive(self, p, q, r):
        assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))
        assert mul(add(p, q), r) == add(mul(p, r), mul(q, r))

    @given(polys)
    def test_units(self, p):
        assert mul(Poly.one(), p) == p == mul(p, Poly.one())
        assert not mul(Poly.zero(), p)
        assert add(Poly.zero(), p) == p


class TestMaps:
    @given(small_maps, polys, polys)
    def test_homomorphism(self, m, p, q):
        assert m.apply(mul(p, q)) == mul(m.apply(p), m.apply(q))
        assert m.apply(add(p, q)) == add(m.apply(p), m.apply(q))

    @given(small_maps, small_maps, polys)
    def test_compose_is_application(self, f, g, p):
        fg = compose(f, g)
        assert fg.apply(p) == f.apply(g.apply(p))
        assert fg.assignments.keys() == f.assignments.keys() | g.assignments.keys()

    @settings(deadline=None)
    @given(tiny_maps, tiny_maps, tiny_maps, tiny_polys)
    def test_compose_associative(self, f, g, h, p):
        lhs = compose(compose(f, g), h)
        rhs = compose(f, compose(g, h))
        assert lhs.apply(p) == rhs.apply(p)

    @given(small_maps, polys)
    def test_identity_neutral(self, m, p):
        i = AlgebraMap.identity()
        assert compose(i, m).apply(p) == m.apply(p) == compose(m, i).apply(p)


# sums and products of polys; those past LAZY_THRESHOLD stay symbolic
symbolic = st.recursive(
    polys,
    lambda inner: st.tuples(st.sampled_from((add, mul)), inner, inner).map(
        lambda t: t[0](t[1], t[2])
    ),
    max_leaves=6,
)


class TestEquality:
    @given(symbolic, symbolic)
    def test_matches_expansion(self, p, q):
        assert (p == q) == (p.expand() == q.expand())

    @given(symbolic, symbolic, symbolic)
    def test_associative_products_equal(self, p, q, r):
        assert mul(mul(p, q), r) == mul(p, mul(q, r))

    @given(symbolic, symbolic, words)
    def test_differs_by_a_word(self, p, q, w):
        s = mul(p, q)
        assert s != add(s, Poly.word(*w))


# Pairs for the injectivity certificate, over a, b and the marker letters m
# and n.  A leaf is a list of distinct words, with or without the unit.
# Besides free leaves and their sums and products, draw X M, whose nonempty
# words end with m when M lacks the unit, its mirror N Y, and sums of each;
# inner nodes become symbolic under LAZY_THRESHOLD = 0.


def leaves(words):
    return st.tuples(st.lists(words, min_size=1, max_size=3, unique=True), st.booleans()).map(
        lambda t: t[0] + [()] * t[1]
    )


ab = st.lists(st.sampled_from(("a", "b")), min_size=1, max_size=2).map(tuple)
free = leaves(st.lists(st.sampled_from(("a", "b", "m", "n")), max_size=3).map(tuple))
x_m = st.tuples(st.just(mul), leaves(ab), leaves(ab.map(lambda w: w + ("m",))))
n_y = st.tuples(st.just(mul), leaves(ab.map(lambda w: ("n",) + w)), leaves(ab))
ends_m = st.one_of(x_m, st.tuples(st.just(add), x_m, x_m))
begins_n = st.one_of(n_y, st.tuples(st.just(add), n_y, n_y))
# the unit and one word ending with m: a far marker unless m is on the left
one_m = ab.map(lambda w: [(), w + ("m",)])
sides = st.one_of(free, st.tuples(st.sampled_from((add, mul)), free, free), ends_m, begins_n)
seam_pairs = st.one_of(
    st.tuples(sides, sides),
    st.tuples(ends_m, sides),
    st.tuples(sides, begins_n),
    st.tuples(sides, one_m),
)


def build(tree, leaf=Poly.from_words):
    if isinstance(tree, list):
        return leaf(tree)
    op, left, right = tree
    return op(build(left, leaf), build(right, leaf))


class TestInjectivityCertificate:
    @settings(max_examples=200)
    @given(seam_pairs)
    def test_certified_concatenations_are_distinct(self, pair):
        with patch.object(algebra, "LAZY_THRESHOLD", 0):
            a, g = map(build, pair)
            if algebra._pair_injective(a, g):
                words_a, words_g = a.expand(), g.expand()
                joined = {u + v for u in words_a for v in words_g}
                assert len(joined) == len(words_a) * len(words_g)
                assert mul(a, g).expand() == algebra._concat(words_a, words_g)


def cancel(p, q):
    """p + q + p: equal to q, but built with the p terms in it."""
    return add(add(p, q), p)


# lazy values once built under LAZY_THRESHOLD = 0
lazy_trees = st.recursive(
    st.lists(words, max_size=4),
    lambda inner: st.tuples(st.sampled_from((add, mul, cancel)), inner, inner),
    max_leaves=6,
)


def certified_sum(p, q):
    return unsafe_disjoint_sum([p, q])


def certified_product(p, q):
    return unsafe_injective_product([p, q])


# the same shapes with the caller-asserted certificates in them; the parts
# are unit-free and each leaf has a namespace of its own, so every
# assertion holds
nonempty = st.lists(st.sampled_from(LETTERS), min_size=1, max_size=3).map(tuple)
certified_trees = st.recursive(
    st.lists(nonempty, min_size=1, max_size=3),
    lambda inner: st.tuples(
        st.sampled_from((add, mul, certified_sum, certified_product)), inner, inner
    ),
    max_leaves=5,
)


def namespaced(spaces):
    def leaf(ws):
        k = next(spaces)
        return Poly.from_words([[f"k{k}.{c}" for c in w] for w in ws])

    return leaf


def assert_certificates_hold(p):
    """Every certificate in the DAG under p holds on the expanded words."""
    stack = [p]
    while stack:
        q = stack.pop()
        parts = [c.expand() for c in q._children]
        if q._free and q._kind == algebra._KIND_SUM:
            assert sum(map(len, parts)) == len(frozenset().union(*parts))
        if q._free and q._kind == algebra._KIND_PRODUCT:
            a, b = parts
            assert len({u + v for u in a for v in b}) == len(a) * len(b)
        stack.extend(q._children)


def assert_top_stats_match_expansion(p, g):
    words = p.expand()
    assert bool(p) == bool(words)
    counts = [w.count(g) for w in words]
    top = max(counts, default=0)
    assert p.max_count(g) == top
    assert p.tau(g) == counts.count(top)
    for k in range(top + 2):
        s = p.slice(g, k)
        assert s.expand() == {w for w in words if w.count(g) == k}
        assert_certificates_hold(s)


class TestLengthAndSlices:
    @settings(deadline=None)
    @given(lazy_trees, st.sampled_from(LETTERS))
    def test_lazy_slices_match_expansion(self, tree, g):
        with patch.object(algebra, "LAZY_THRESHOLD", 0):
            assert_top_stats_match_expansion(build(tree), g)

    @settings(deadline=None)
    @given(certified_trees, st.integers(0, 4), st.sampled_from(LETTERS))
    def test_certified_slices_match_expansion(self, tree, k, c):
        with patch.object(algebra, "LAZY_THRESHOLD", 0):
            p = build(tree, namespaced(itertools.count()))
            assert_top_stats_match_expansion(p, f"k{k}.{c}")

    @settings(deadline=None)
    @given(lazy_trees)
    def test_lazy_membership_matches_expansion(self, tree):
        with patch.object(algebra, "LAZY_THRESHOLD", 0):
            p = build(tree)
            words = p.expand()
            probes = {(), ("f",), ("a", "f")}
            for w in words:
                probes.update(w[:i] for i in range(len(w) + 1))
                probes.update(w[i:] for i in range(len(w) + 1))
            for w in probes:
                assert p.contains(w) == (w in words)
            assert p.has_unit() == (() in words)

    @given(words, polys, words)
    def test_sandwich_preserves_length(self, u, p, v):
        sandwich = mul(mul(Poly.word(*u), p), Poly.word(*v))
        assert sandwich.length() == p.length()

    @given(polys, st.sampled_from(LETTERS))
    def test_tau_bounded_by_length(self, p, g):
        assert 0 <= p.tau(g) <= p.length()

    @given(polys, st.sampled_from(LETTERS))
    def test_tau_of_marker_free_poly(self, p, g):
        if g not in p.alphabet():
            assert p.tau(g) == p.length()


# Substitution.  Values: explicit, or symbolic once built under
# LAZY_THRESHOLD = 0.  Images: zero, the unit, small explicit values, powers
# of one letter (whose concatenations cancel mod 2 in pairs), explicit
# values on either side of LAZY_THRESHOLD = 64 as a size, a product of two
# sizes and a sum of two sizes, and symbolic values.  Three letters, so
# that most letters of a value are moved.
short_words = st.lists(st.sampled_from(LETTERS[:3]), max_size=2).map(tuple)
short_trees = st.recursive(
    st.lists(short_words, max_size=3),
    lambda inner: st.tuples(st.sampled_from((add, mul, cancel)), inner, inner),
    max_leaves=3,
)


def lazily(tree):
    with patch.object(algebra, "LAZY_THRESHOLD", 0):
        return build(tree)


def first_words(n):
    """The first n words over a and b, shortest first."""
    all_words = (w for k in itertools.count() for w in itertools.product("ab", repeat=k))
    return Poly.from_words(itertools.islice(all_words, n))


values = st.one_of(st.lists(short_words, max_size=6).map(Poly.from_words), short_trees.map(lazily))
images = st.one_of(
    st.just(Poly.zero()),
    st.just(Poly.one()),
    polys,
    st.lists(st.integers(0, 3), max_size=4).map(lambda ks: Poly.from_words(("a",) * k for k in ks)),
    st.sampled_from((8, 9, 32, 33, 64, 65)).map(first_words),
    short_trees.map(lazily),
)
substitutions = st.dictionaries(st.sampled_from(LETTERS[:3]), images, max_size=3).map(AlgebraMap)


def fold(m, p):
    """The substitution of an explicit p, one node per letter through mul
    and add: the reference for both the value and its explicit/symbolic
    kind."""
    acc = Poly.zero()
    for w in p.words():
        img = Poly.one()
        for c in w:
            img = mul(img, m(c))
        acc = add(acc, img)
    return acc


def substituted(m, words):
    """m applied to a word set by multiplying out word sets."""
    out: set = set()
    for w in words:
        img = {()}
        for c in w:
            img = set(algebra._concat(img, m(c).words()))
        out ^= img
    return out


def assert_substitution_matches(m, p):
    got = m.apply(p)
    with patch.object(AlgebraMap, "_apply_words", fold):
        want = m.apply(p)
    assert got.words() == substituted(m, p.words())
    assert got.is_explicit == want.is_explicit
    assert got._token == want._token  # the fold's very node
    assert got == want


class TestSubstitution:
    @settings(max_examples=300, deadline=None)
    @given(substitutions, values)
    def test_matches_word_sets_and_the_fold(self, m, p):
        assume(sum(math.prod(m(c).size_bound() for c in w) for w in p.words()) <= 20_000)
        assert_substitution_matches(m, p)

    # a and b go to the first words over a and b: products of sizes 64
    # and 72, of 64 and 65 words by one word, sums of 64 and 65 words
    # (explicit either way), the unit times 65 words, and zero after 65 words
    @pytest.mark.parametrize(
        "sizes, text",
        [
            ((8, 8), "a b"),
            ((8, 9), "a b"),
            ((64,), "a c"),
            ((65,), "a c"),
            ((32, 32), "a + b"),
            ((32, 33), "a + b"),
            ((65,), "a"),
            ((65, 0), "a c b"),
        ],
    )
    def test_at_the_bound(self, sizes, text):
        m = AlgebraMap(dict(zip("ab", map(first_words, sizes))))
        assert_substitution_matches(m, poly_from_str(text))

    def test_one_sum_node(self):
        # five products of the symbolic image with a letter, summed in one
        # node; a fold of add would make a sum node per word
        with patch.object(algebra, "LAZY_THRESHOLD", 0):
            image = mul(poly_from_str("x + y"), poly_from_str("x + z"))
        assert not image.is_explicit
        m = AlgebraMap({"a": image})
        p = poly_from_str("a + a b + a c + a d + b a + c a")
        before = next(algebra._SERIALS)
        got = m.apply(p)
        assert next(algebra._SERIALS) - before - 1 <= 6
        assert got.words() == substituted(m, p.words())
        assert got == fold(m, p)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(images, max_size=8))
    def test_one_sum_is_the_fold_of_add(self, terms):
        want = functools.reduce(add, terms, Poly.zero())
        assert algebra._make_sum(terms)._token == want._token  # the very node

    def test_one_sum_keeps_the_folds_kind(self):
        # a lone nonzero term is returned as it is, the very object
        with patch.object(algebra, "LAZY_THRESHOLD", 0):
            lone = add(Poly.one(), Poly.gen("a"))
        assert algebra._make_sum([Poly.zero(), lone]) is lone
        # explicit terms make one explicit node, however many words they
        # hold: LAZY_THRESHOLD bounds products only
        terms = [first_words(33), first_words(32), first_words(8), Poly.one()]
        got = algebra._make_sum(terms)
        assert got.is_explicit and got == functools.reduce(add, terms)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(images, max_size=6).flatmap(lambda t: st.tuples(st.just(t), st.permutations(t)))
    )
    @example(([first_words(65), first_words(64)], [first_words(64), first_words(65)]))
    def test_one_sum_ignores_term_order(self, orders):
        terms, shuffled = orders
        want = algebra._make_sum(terms)  # kept alive: the interned node
        assert algebra._make_sum(shuffled)._token == want._token
        assert functools.reduce(add, shuffled, Poly.zero())._token == want._token

    def test_one_sum_of_overlapping_word_sets(self):
        # the first 40 words, the first 20 and the 41st to 70th: 50 words,
        # one explicit node in every order of the three terms
        later = Poly.from_words(first_words(70).expand() - first_words(40).expand())
        want = Poly.from_words(first_words(70).expand() - first_words(20).expand())
        for order in itertools.permutations([first_words(40), first_words(20), later]):
            for got in (algebra._make_sum(order), functools.reduce(add, order)):
                assert got.is_explicit and got.length() == 50 and got == want


def leibniz_fold(dga, p):
    """d(p) by the Leibniz rule, its terms folded through add one at a
    time: the reference for _leibniz."""
    acc = Poly.zero()
    for w in p.words():
        for i, c in enumerate(w):
            dc = dga.differential.get(c)
            if dc is not None:
                acc = add(acc, Poly.word(*w[:i]) * dc * Poly.word(*w[i + 1 :]))
    return acc


class TestLeibniz:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from(LETTERS), images, max_size=5), st.one_of(polys, values))
    def test_one_sum_is_the_add_fold(self, differential, p):
        dga = Dga(tuple(Generator(c, 0) for c in LETTERS), differential, True)
        got, want = _leibniz(dga, p), leibniz_fold(dga, p)
        assert got == want
        assert got.is_explicit == want.is_explicit


@st.composite
def move_scripts(draw):
    """A script over the degree-0 generators a..e without differentials:
    RIIIb events, Relabels, RIIIa and RII ... RIIInv windows, in which an
    RIIIb event may substitute with the born y.  d(x) = y + w, and a
    verified script keeps y out of w, so its window ends in a cancellation
    and its images stay over a..e; a formal one may leave its last window
    open."""
    mode = draw(st.sampled_from(("verified", "formal")))
    events, alive, window, w_letters = [], list(LETTERS), None, set()
    budget = 5  # RIIIb events left: images grow doubly exponentially in a chain
    for i in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("RIIIb", "RIIIb", "RIIIb", "Relabel", "RIIIa", "window")))
        if kind == "RIIIb" and budget:
            budget -= 1
            a = draw(st.sampled_from(LETTERS))
            pool = [n for n in alive if n != a]
            if window and a in w_letters and mode == "verified":
                pool.remove(window[1])
            b, c = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
            if a in w_letters:
                w_letters |= {b, c}
            events.append(RIIIb(a, b, c))
        elif kind in ("RIIIb", "RIIIa"):
            events.append(RIIIa())
        elif kind == "Relabel":
            perm = dict(zip(LETTERS, draw(st.permutations(LETTERS))))
            w_letters = {perm.get(n, n) for n in w_letters}
            events.append(Relabel(perm))
        elif window is None:
            x, y = f"x{i}", f"y{i}"
            w = draw(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=2))
            dx = poly_from_str(f"{y} + {' '.join(w)}")
            events.append(RII(Generator(x, 1), Generator(y, 0), {x: dx}))
            window, w_letters = (x, y), set(w)
            alive.append(y)
        else:
            events.append(RIIInv(*window))
            alive.remove(window[1])
            window, w_letters = None, set()
    if window and (mode == "verified" or draw(st.booleans())):
        events.append(RIIInv(*window))
    initial = Dga(tuple(Generator(c, 0) for c in LETTERS), {}, True)
    return MoveScript(initial, tuple(events), mode)


def front_to_back(script):
    """The composite of the script's holonomies folded from the first
    event on, total = compose(h, total), and restricted to the initial
    generators: the reference for run_script."""
    total = AlgebraMap.identity()
    for _, h, _ in _steps(script):
        total = compose(h, total)
    names = script.initial.names
    return AlgebraMap({g: total(g) for g in names if g in total.moved()})


class TestScriptFold:
    @settings(max_examples=150, deadline=None)
    @given(move_scripts())
    def test_back_to_front_is_the_front_to_back_fold(self, script):
        assert run_script(script).map == front_to_back(script)


# names that are prefixes of one another, with each kind of character a
# name may hold after its first
PREFIX_NAMES = ("b", "b1", "b12", "b1.c", "b_", "bé")
prefix_words = st.lists(st.sampled_from(PREFIX_NAMES), max_size=3).map(tuple)
prefix_polys = st.lists(prefix_words, max_size=6).map(lambda ws: Poly.from_words(ws))


def canonical_text(p):
    """The text of p joined from canonical_words: what poly_to_str writes."""
    return " + ".join(map(word_to_str, p.canonical_words())) or "0"


def certified(tree):
    with patch.object(algebra, "LAZY_THRESHOLD", 0):
        return build(tree, namespaced(itertools.count()))


def cancelling(tree, p):
    """p, as a sum of the lazy value of tree and an explicit term: the
    words of the lazy value cancel in the top sum."""
    q = lazily(tree)
    with patch.object(algebra, "LAZY_THRESHOLD", 0):
        return add(q, Poly.from_words(q.expand() ^ p.expand()))


# explicit values, the unit, and values built lazily: uncertified products,
# sums whose terms cancel, certified products and sums, and products and
# sums with the unit as a term or a factor
written = st.one_of(
    polys,
    prefix_polys,
    st.just(Poly.one()),
    lazy_trees.map(lazily),
    certified_trees.map(certified),
    st.tuples(st.sampled_from((add, mul, cancel)), lazy_trees, st.just([()])).map(lazily),
    st.tuples(lazy_trees, polys).map(lambda t: cancelling(*t)),
)


def split_reader(text):
    """poly_from_str as it read a text split at every `+` at once, its words
    checked and cancelled by Poly.from_words: the reference for the words
    and the errors of the streamed reader."""

    def terms():
        for term in text.split("+"):
            letters = term.split()
            if not letters:
                raise AlgebraError(f"malformed polynomial string: {text!r}")
            if letters == ["0"]:
                raise AlgebraError("'0' is only valid as the whole polynomial")
            yield () if letters == ["1"] else letters

    text = text.strip()
    if text == "0":
        return Poly.zero()
    if not text:
        raise AlgebraError("empty polynomial string (write '0' for zero)")
    return Poly.from_words(terms())


def outcome(read, text):
    try:
        return read(text)
    except AlgebraError as exc:
        return type(exc), str(exc)


# texts of terms that repeat, with irregular spacing, and now and then an
# empty term, an inner 0, an invalid name or a unit beside a letter
term_texts = st.one_of(
    st.lists(st.sampled_from(LETTERS), min_size=1, max_size=3).map(" ".join),
    st.just("1"),
    st.sampled_from(("", "0", "b!", "1 a", "  ")),
)
gaps = st.sampled_from(("", " ", "  ", "\t", "\n "))
poly_texts = st.tuples(
    st.lists(st.tuples(term_texts, st.integers(1, 3), gaps), min_size=1, max_size=6), gaps
).map(lambda t: "+".join(f"{g}{term}{g}" for term, n, g in t[0] for _ in range(n)) + t[1])


class TestSerialization:
    @given(st.one_of(polys, prefix_polys))
    def test_round_trip(self, p):
        assert poly_from_str(poly_to_str(p)) == p
        assert p.canonical_words() == sorted(p.expand(), key=lambda w: (len(w), w))

    @given(st.one_of(polys, prefix_polys))
    def test_canonical(self, p):
        assert poly_to_str(poly_from_str(poly_to_str(p))) == poly_to_str(p)

    @settings(deadline=None)
    @given(written)
    def test_writer_matches_canonical_words(self, p):
        assert poly_to_str(p) == canonical_text(p)
        assert poly_from_str(poly_to_str(p)) == p

    @example("a+b")
    @example("  a  b +1 ")
    @example("a + a + 1 + a")
    @example("a + b! + + 0")
    @example("a + + b! + 0")
    @example(" + b")
    @example("0")
    @given(poly_texts)
    def test_reader_matches_split_reader(self, text):
        # the same words, repeated ones cancelled in pairs, or the same
        # error for the first bad term in reading order
        assert outcome(poly_from_str, text) == outcome(split_reader, text)

    def test_reader_past_the_first_slice(self):
        # a text split a slice of 16 K characters at a time: terms around
        # each slice's end, repeated and bad ones, read where they stand
        terms = [f"a{i}" for i in range(6000)]
        ends = (16384, 32768)  # about where the first two slices end
        for plus in (" + ", "+"):
            starts = itertools.accumulate((len(t) + len(plus) for t in terms), initial=0)
            near = [k for k, at in enumerate(starts) if any(abs(at - e) < 20 for e in ends)]
            assert len(near) >= 4
            for k in (0, *near, len(terms)):
                for bad in ("a7", "", "b!"):
                    text = plus.join([*terms[:k], bad, *terms[k:]])
                    assert outcome(poly_from_str, text) == outcome(split_reader, text)

    def test_deep_product_chain(self):
        # a left fold of products deeper than the recursion limit: walked
        # from an explicit stack, never once per DAG level
        depth = sys.getrecursionlimit() + 100
        letters = [f"y{i}" for i in range(depth)]
        with patch.object(algebra, "LAZY_THRESHOLD", 0):
            chain = functools.reduce(mul, [*map(Poly.gen, letters), poly_from_str("1 + x")])
            top = add(chain, Poly.one())
        assert not chain.is_explicit and chain.size_bound() == 2
        word = " ".join(letters)
        assert poly_to_str(chain) == f"{word} + {word} x" == canonical_text(chain)
        assert poly_to_str(top) == f"1 + {word} + {word} x"


heights = st.fractions(min_value=Fraction(1, 8), max_value=Fraction(64))
factors = st.fractions(min_value=Fraction(1, 8), max_value=Fraction(1))


class TestShrink:
    @given(heights, heights, factors)
    def test_preserves_validity(self, hx, hy, u):
        dga = Dga(
            (Generator("x", 1, hy + hx), Generator("y", 0, hy)),
            {"x": Poly.gen("y")},
            True,
        )
        assert check_dga(dga).ok
        assert check_dga(shrink(dga, u)).ok

    @given(heights, factors, factors)
    def test_composes_multiplicatively(self, h, u, v):
        dga = Dga((Generator("x", 0, h),), {}, True)
        assert shrink(shrink(dga, u), v) == shrink(dga, u * v)


class TestRotationDegrees:
    @given(st.integers(min_value=-50, max_value=50))
    def test_inverse(self, k):
        r = Fraction(2 * k + 1, 4)
        d = degree_from_rotation(r)
        assert r == Fraction(-2 * d - 1, 4)
