"""Unit tests for the free Z2 algebra layer."""

import itertools
import sys

import pytest

from legch import algebra
from legch.algebra import (
    AlgebraMap,
    ExpansionTooLarge,
    Poly,
    add,
    compose,
    mul,
    poly_from_str,
    poly_to_str,
    unsafe_disjoint_sum,
    unsafe_injective_product,
)


def P(text):
    return poly_from_str(text)


class TestBasics:
    def test_char_two(self):
        # a + b + b = a
        assert P("a") + P("b") + P("b") == P("a")

    def test_additive_identity(self):
        p = P("a + b c")
        assert p + Poly.zero() == p
        assert Poly.zero() + p == p

    def test_self_cancel(self):
        p = P("a + b c + 1")
        assert p + p == Poly.zero()

    def test_unit(self):
        p = P("a + b c")
        assert Poly.one() * p == p
        assert p * Poly.one() == p

    def test_mul_trefoil_entry(self):
        lhs = P("1 + b2 b3") * P("1 + b1 b2")
        assert lhs == P("1 + b1 b2 + b2 b3 + b2 b3 b1 b2")

    def test_mul_cross_cancel(self):
        p = P("b1 + 1")
        assert p * p == P("b1 b1 + 1")

    def test_zero_absorbs(self):
        assert P("a b") * Poly.zero() == Poly.zero()


class TestStatistics:
    PHI = "b1 b2 b1 b3 b1 + b1 b3 b1 + b1 b4 b1 b2 b1 + b4 + b2 b1"

    def test_length(self):
        assert P("b1 + b3 + b1 b2 b3").length() == 3
        assert Poly.zero().length() == 0
        assert P("1 + b1 b2").length() == 2

    def test_max_count(self):
        assert P(self.PHI).max_count("b1") == 3
        assert Poly.zero().max_count("g") == 0
        assert P("1 + b1 + b3 + b1 b2 b3").max_count("b3") == 1

    def test_tau(self):
        assert P(self.PHI).tau("b1") == 2
        assert P("1 + b1 + b3 + b1 b2 b3").tau("b3") == 2
        assert Poly.zero().tau("g") == 0

    def test_tau_absent_marker(self):
        # no word contains g, so every word attains the maximum 0
        p = P("1 + b1 b2 + b2")
        assert p.max_count("g") == 0
        assert p.tau("g") == 3


class TestMaps:
    def test_identity(self):
        p = P("x z + 1 + y")
        assert AlgebraMap.identity().apply(p) == p

    def test_riiib_shape(self):
        m = AlgebraMap({"x": P("x + z y")})
        assert m.apply(P("x z")) == P("x z + z y z")

    def test_kalman_single(self):
        m = AlgebraMap({"b1": P("w + b1 b2 w"), "b2": P("1 + b2 b3"), "b3": P("b1")})
        assert m.apply(P("b3")) == P("b1")

    def test_compose_identity(self):
        m = AlgebraMap({"x": P("x + z y")})
        assert compose(AlgebraMap.identity(), m) == m
        assert compose(m, AlgebraMap.identity()) == m

    def test_kalman_square(self):
        m = AlgebraMap({"b1": P("w + b1 b2 w"), "b2": P("1 + b2 b3"), "b3": P("b1")})
        m2 = compose(m, m)
        assert m2("b3") == P("w + b1 b2 w")

    def test_equal_to_identity_through_a_composite_image(self):
        # A and A' are the same value as different nodes: g + A + A' is g
        rows = P(" + ".join(f"c{i}" for i in range(9)))
        a = mul(P(" + ".join(f"a{i}" for i in range(9))), rows)
        a_rows = Poly.zero()
        for i in range(9):
            a_rows = add(a_rows, mul(Poly.gen(f"a{i}"), rows))
        image = add(add(a, Poly.gen("g")), a_rows)
        assert not image.is_explicit
        assert AlgebraMap({"g": image}) == AlgebraMap.identity()
        assert AlgebraMap({"g": add(image, P("a0 c0"))}) != AlgebraMap.identity()

    def test_compose_moving_nothing_is_inner(self):
        m = AlgebraMap({"x": P("x + z y")})
        assert compose(AlgebraMap.identity(), m) is m

    def test_homomorphism(self):
        m = AlgebraMap({"x": P("x + z y"), "y": P("1")})
        p, q = P("x y + z"), P("y x + 1")
        assert m.apply(p * q) == m.apply(p) * m.apply(q)
        assert m.apply(p + q) == m.apply(p) + m.apply(q)


class TestSerialization:
    def test_round_trip(self):
        text = "1 + b2 + b1 b2 + b2 b3 + b2 b3 b1 b2"
        assert poly_to_str(P(text)) == text

    def test_canonical_order(self):
        assert poly_to_str(P("b2 b3 b1 b2 + b2 + 1 + b2 b3 + b1 b2")) == (
            "1 + b2 + b1 b2 + b2 b3 + b2 b3 b1 b2"
        )

    def test_zero_one(self):
        assert poly_to_str(Poly.zero()) == "0"
        assert poly_to_str(Poly.one()) == "1"
        assert P("0") == Poly.zero()
        assert P("1") == Poly.one()

    def test_namespaced_names(self):
        p = P("1 + b1 b2 + k1.b3")
        # canonical order is length first, so the single-letter word leads
        assert poly_to_str(p) == "1 + k1.b3 + b1 b2"
        assert poly_from_str(poly_to_str(p)) == p

    def test_malformed(self):
        with pytest.raises(algebra.AlgebraError):
            P("a + + b")
        with pytest.raises(algebra.AlgebraError):
            P("")
        with pytest.raises(algebra.AlgebraError):
            P("a + 0")
        with pytest.raises(algebra.BadGeneratorName):
            P("a + b!c")

    def test_errors_in_reading_order(self):
        with pytest.raises(algebra.BadGeneratorName, match="invalid generator name: 'b!'"):
            P("b! + ")
        with pytest.raises(algebra.AlgebraError, match="malformed polynomial string: '\\+ b!'"):
            P(" + b!")
        with pytest.raises(algebra.AlgebraError, match="'0' is only valid as the whole polynomial"):
            P("a + 0")
        assert P("a + a") is Poly.zero()

    def test_from_words_reads_each_word_once(self):
        assert Poly.from_words([iter(["fresh_q", "b"])]) == Poly.word("fresh_q", "b")

    def test_invalid_letter_after_known_one(self):
        P("b")
        with pytest.raises(algebra.BadGeneratorName, match="invalid generator name: '1x'"):
            Poly.from_words([["b", "1x"]])

    def test_repeated_word_cancels_around_unit(self):
        assert P("x + 1 + x") == Poly.one()


class TestProducts:
    def test_explicit_factors_up_to_threshold(self):
        eight = Poly.from_words([(f"a{i}",) for i in range(8)])
        nine = Poly.from_words([(f"b{i}",) for i in range(9)])
        assert mul(eight, eight).is_explicit
        product = mul(eight, nine)
        assert not product.is_explicit
        assert product.length() == 72

    def test_symbolic_factor_stays_a_node(self, monkeypatch):
        # bounds of 8 and 4, within LAZY_THRESHOLD: the product is still a node
        s = unsafe_disjoint_sum([P("a"), P("b")])
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 0)
        for product in (mul(s, P("c + d + e + f")), mul(P("c + d + e + f"), s), mul(s, s)):
            assert product.size_bound() <= algebra.LAZY_THRESHOLD
            assert not product.is_explicit
        assert mul(s, P("c + d + e + f")).length() == 8
        assert mul(s, s) == P("a a + a b + b a + b b")


class CountingRegex:
    """Stands in for algebra._NAME_RE and counts its match calls."""

    def __init__(self, regex):
        self.regex = regex
        self.calls = 0

    def match(self, name):
        self.calls += 1
        return self.regex.match(name)


class TestNameCheck:
    @pytest.fixture
    def regex(self, monkeypatch):
        # a fresh table, so every name is new to check_name
        monkeypatch.setattr(algebra, "_CHECKED", {})
        counting = CountingRegex(algebra._NAME_RE)
        monkeypatch.setattr(algebra, "_NAME_RE", counting)
        return counting

    def test_each_name_matched_once(self, regex):
        names = [f"g{i}" for i in range(5)]
        words = list(itertools.islice(itertools.product(names, repeat=6), 5000))
        text = " + ".join(" ".join(w) for w in words)
        assert P(text).length() == 5000
        assert regex.calls <= 5
        regex.calls = 0
        assert P(text).length() == 5000
        assert regex.calls == 0

    def test_rejected_name_not_stored(self, regex):
        for _ in range(2):
            with pytest.raises(algebra.BadGeneratorName, match="invalid generator name: 'b!'"):
                algebra.check_name("b!")
        assert regex.calls == 2
        assert "b!" not in algebra._CHECKED

    def test_checked_names_are_interned(self, regex):
        name = "".join(["k1.", "b3"])
        assert algebra.check_name(name) is sys.intern("k1.b3")
        assert algebra.check_name("".join(["k1.", "b3"])) is sys.intern("k1.b3")


class TestRepr:
    def test_small_values_print_their_words(self, monkeypatch):
        assert repr(P("b1 b2 + 1")) == "Poly('1 + b1 b2')"
        lazy(monkeypatch)
        assert repr(mul(P("a + b"), P("c"))) == "Poly('a c + b c')"

    def test_large_values_print_their_size(self, monkeypatch):
        words = P(" + ".join(f"g{i}" for i in range(17)))
        assert repr(words) == "Poly(<explicit, 17 words>)"
        lazy(monkeypatch)
        assert repr(mul(words, words)) == "Poly(<symbolic, <= 289 words>)"


def lazy(monkeypatch):
    monkeypatch.setattr(algebra, "LAZY_THRESHOLD", 0)


class TestLazyConsistency:
    """The symbolic layer must agree with explicit expansion."""

    def build(self):
        w = P("1 + k.b2 + k.b1 k.b2 + k.b2 k.b3 + k.b2 k.b3 k.b1 k.b2")
        t = P("1 + b2 + b1 b2 + b2 b3 + b2 b3 b1 b2")
        return w, t

    def test_product_matches_explicit(self, monkeypatch):
        w, t = self.build()
        expected = mul(w, t)
        lazy(monkeypatch)
        got = mul(w, t)
        assert not got.is_explicit
        assert got.length() == expected.length() == 25
        assert got.expand() == expected.expand()

    def test_sum_statistics(self, monkeypatch):
        w, t = self.build()
        expected = add(Poly.one(), mul(w, t))
        lazy(monkeypatch)
        got = add(Poly.one(), mul(w, t))
        assert got.length() == expected.length() == 24
        assert got.tau("b3") == expected.tau("b3")
        assert got.max_count("b3") == expected.max_count("b3")

    def test_contains(self, monkeypatch):
        w, t = self.build()
        expected = mul(w, t)
        lazy(monkeypatch)
        got = mul(w, t)
        for word in itertools.islice(expected.canonical_words(), 10):
            assert got.contains(word)
        assert not got.contains(("b1",))

    def test_has_unit(self, monkeypatch):
        w, t = self.build()
        lazy(monkeypatch)
        prod = mul(w, t)
        assert prod.has_unit()
        assert not add(Poly.one(), prod).has_unit()

    def test_map_application(self, monkeypatch):
        w, t = self.build()
        m = AlgebraMap({"b1": P("b3 + b1 b2"), "b3": P("b1")})
        expected = m.apply(mul(w, t))
        lazy(monkeypatch)
        got = m.apply(mul(w, t))
        assert got.expand() == expected.expand()

    def test_length_against_one_symbolic_term(self, monkeypatch):
        # the explicit part of each sum has two words, counted by membership
        # in the one symbolic term (a + b + a b and its unit)
        lazy(monkeypatch)
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 0)
        s = add(P("1 + a b c"), mul(P("1 + a"), P("1 + b")))
        assert s.length() == 4
        # explicit terms that share a word: 1 + a b c + a b c + b a
        assert add(s, P("a b c + b a")).length() == 4

    def test_expansion_cap(self, monkeypatch):
        lazy(monkeypatch)
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 10)
        w, t = self.build()
        prod = mul(w, t)
        with pytest.raises(ExpansionTooLarge):
            prod.expand()

    def test_explicit_values_never_raise(self, monkeypatch):
        # an explicit value's words are in memory already: no cap applies
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 0)
        p = P("a + b")
        assert p.words() == {("a",), ("b",)}
        assert poly_to_str(p) == "a + b"

    def test_expansion_error_names_the_query(self, monkeypatch):
        lazy(monkeypatch)
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 3)
        # four words, and no certificate rules out their cancelling
        p = mul(P("a b + b a"), P("a b + b a"))
        queries = {
            "length": p.length,
            "tau": lambda: p.tau("b"),
            "max_count": lambda: p.max_count("b"),
            "words": p.words,
            "canonical_words": p.canonical_words,
            "expand": p.expand,
        }
        for query, call in queries.items():
            with pytest.raises(ExpansionTooLarge) as info:
                call()
            assert (info.value.query, info.value.kind, info.value.bound) == (query, "product", 4)
            assert str(info.value) == f"{query}: expansion bound 4 of a product node exceeds cap 3"
        with pytest.raises(ExpansionTooLarge, match="^words: expansion bound 8 of a sum node"):
            add(p, mul(P("a + b"), P("a + b"))).words()


class TestZeroTest:
    def test_disjoint_sum_of_zero_valued_terms(self, monkeypatch):
        lazy(monkeypatch)
        z = add(mul(P("a + b"), P("a + b")), P("a a + a b + b a + b b"))
        s = add(mul(z, P("x")), mul(z, P("y")))
        assert not s.is_explicit
        assert s.length() == 0 and s == Poly.zero()
        assert not s

    def test_disjoint_sum_with_a_nonzero_term(self, monkeypatch):
        lazy(monkeypatch)
        z = add(mul(P("a + b"), P("a + b")), P("a a + a b + b a + b b"))
        s = add(mul(z, P("x")), mul(P("a + b"), P("y")))
        assert s and s.length() == 2


class TestUnitDisjointness:
    def build(self):
        # a certified sum of a, b, a b and c, d, c d: no unit, but its word
        # lengths start at 0 (each term's unit cancels) and no letter is
        # mandatory
        terms = [add(mul(P(f"1 + {x}"), P(f"1 + {y}")), Poly.one()) for x, y in ("ab", "cd")]
        return unsafe_disjoint_sum(terms)

    def test_certificate(self, monkeypatch):
        lazy(monkeypatch)
        z = self.build()
        assert algebra._certainly_disjoint(Poly.one(), z)
        assert algebra._certainly_disjoint(z, Poly.one())
        assert not algebra._certainly_disjoint(Poly.one(), add(z, Poly.one()))

    def test_length_of_a_sum_with_the_unit(self, monkeypatch):
        lazy(monkeypatch)
        s = add(add(self.build(), mul(P("e"), P("e + f"))), Poly.one())
        # the unit is one of three terms: only certificates can count them
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 0)
        assert s.length() == 6 + 2 + 1


class TestInjectivityCertificate:
    """Each clause of the rule that certifies a product u v as injective:
    the split point can be read off the concatenation."""

    @pytest.mark.parametrize(
        "left, right",
        [
            # singleton: b a fixes the split
            ("a + a b", "b a"),
            # left seam whose marker m occurs twice in a word
            ("m + m a m", "a + a a"),
            # left seam with two end letters
            ("a m + b n + m", "a + b a"),
            # right seam: every nonempty right word begins with n
            ("a + b a", "n a + n b n"),
            # far marker: (W + b1 b2 W)(1 + b2 b3) with W = 1 + w + v w; no
            # left word has b3, the last letter of the one nonempty right word
            ("1 + w + v w + b1 b2 + b1 b2 w + b1 b2 v w", "1 + b2 b3"),
        ],
    )
    def test_certified(self, left, right, monkeypatch):
        a, g = P(left), P(right)
        assert algebra._pair_injective(a, g)
        joined = [u + v for u in a.expand() for v in g.expand()]
        assert len(set(joined)) == len(joined)
        lazy(monkeypatch)
        product = mul(a, g)
        assert not product.is_explicit
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 0)
        assert product.length() == len(joined)

    @pytest.mark.parametrize(
        "left, right",
        [
            # two nonempty right words ending with c, no seam: a (b c) = (a b) c
            ("a + a b", "1 + c + b c"),
            ("a + a b", "c + b c"),
            # the far marker's letter c occurs on the left: (a b c) 1 = a (b c)
            ("a + a b c", "1 + b c"),
        ],
    )
    def test_not_certified(self, left, right):
        a, g = P(left), P(right)
        assert not algebra._pair_injective(a, g)
        splits = [(u, v) for u in a.expand() for v in g.expand() if u + v == ("a", "b", "c")]
        assert len(splits) == 2


class TestRename:
    def test_explicit(self):
        p = P("1 + b2 + b1 b2")
        assert p.rename({"b1": "k1.b1", "b2": "k1.b2"}) == P("1 + k1.b2 + k1.b1 k1.b2")

    def test_symbolic(self, monkeypatch):
        w, t = TestLazyConsistency().build()
        expected = mul(w, t).expand()
        lazy(monkeypatch)
        prod = mul(w, t)
        ren = prod.rename({"b2": "c2"})
        assert not ren.is_explicit
        want = frozenset(tuple("c2" if c == "b2" else c for c in word) for word in expected)
        assert ren.expand() == want

    def test_not_injective(self):
        with pytest.raises(algebra.BadGeneratorName):
            P("a + b").rename({"a": "c", "b": "c"})

    def test_collides_with_unmoved_letter(self):
        with pytest.raises(algebra.BadGeneratorName, match="collides"):
            P("a b").rename({"a": "b"})


class TestHashConsing:
    def test_equal_products_are_one_node(self, monkeypatch):
        lazy(monkeypatch)
        p = mul(P("a + b"), P("c + d"))
        assert not p.is_explicit
        assert mul(P("a + b"), P("c + d")) is p

    def test_equal_symbolic_values_cancel(self, monkeypatch):
        lazy(monkeypatch)
        p = add(mul(P("a + b"), P("c")), P("d"))
        q = add(mul(P("a + b"), P("c")), P("d"))
        assert not p.is_explicit
        assert add(p, q) is Poly.zero()

    def test_rename_keeps_certificates(self, monkeypatch):
        lazy(monkeypatch)
        # x y-words whose concatenations are distinct, but which no generic
        # certificate recognizes; the two summands share no word
        cross = unsafe_injective_product([P("x + y x"), P("x + x y")])
        s = unsafe_disjoint_sum([cross, mul(P("y"), P("x + x y"))])
        want = s.expand()
        # from here on any expansion raises: only the certificates can answer
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 1)
        ren = s.rename({"x": "u", "y": "v"})
        assert ren.length() == s.length() == len(want) == 6

    def test_rename_keeps_the_count(self, monkeypatch):
        lazy(monkeypatch)
        # no certificate: the count expands, once
        s = add(mul(P("a + b"), P("a + b")), P("a a + c"))
        before = set(s._cache)
        assert not s.is_explicit and s.length() == 4
        (key,) = set(s._cache) - before  # where the count is memoized
        ren = s.rename({"a": "x"})
        assert ren._cache[key] == 4
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 0)
        assert ren.length() == 4


class TestEquality:
    """Equality of symbolic values is decided without expanding them."""

    def powers(self, f_d):
        # (F^3)^3 against F^9, built along different paths
        f = AlgebraMap({"a": Poly.zero(), "d": P(f_d)})
        g = AlgebraMap({"a": Poly.zero(), "d": P("d d d")})
        p = P("d d d")
        return compose(f, g).apply(p), f.apply(g.apply(p))

    def test_bound_past_cap(self):
        lhs, rhs = self.powers("1 + a + b + a a + a a a + a a b")
        # 62,812 words, but a size bound of 5,038,848
        assert rhs.size_bound() > algebra.EXPANSION_CAP
        assert lhs == rhs
        assert lhs != add(rhs, P("a b"))

    def test_never_expands(self, monkeypatch):
        lhs, rhs = self.powers("b + a a + a a a + a b a")
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 0)
        assert lhs == rhs
        assert lhs != mul(rhs, P("a"))
        assert add(lhs, P("1")) != rhs

    def test_zero(self, monkeypatch):
        lazy(monkeypatch)
        p = mul(P("a + b"), P("a + b"))
        q = add(mul(P("a"), P("a + b")), mul(P("b"), P("a + b")))
        assert p == q
        assert add(p, P("a a")) == add(q, P("a a"))
        assert P("a a + a b + b a + b b") == p
        assert P("a a + a b + b a") != p
