"""Unit tests for path matrices, torus knots, tangles, and connected sums."""

import contextlib
import functools
import inspect
import itertools
import random
import sys

import pytest

from legch import algebra
from legch.algebra import AlgebraMap, Poly, add, mul, poly_from_str, poly_to_str
from legch.builders import (
    BuilderError,
    ClosureReferenced,
    EmptyList,
    EvenParameter,
    NotDegreeOne,
    PathMatrix,
    PrefixCollision,
    Tangle,
    TooSmall,
    connect_sum,
    fibonacci_lengths,
    is_even_delta_class,
    path_matrix,
    tangle_from_dict,
    tangle_from_knot,
    tangle_to_dict,
    torus_knot_dga,
    torus_tangle,
)
from legch.dga import Dga, Generator, check_dga
from legch.moves import RIIInv, holonomy


def P(text):
    return poly_from_str(text)


def F(n):
    return fibonacci_lengths(n)[1]


def is_path_word(n, index):
    """b_i1 ... b_ik is a word of B11(n) iff 0 < i1 < ... < ik < n + 1 and
    every gap, those from 0 and to n + 1 included, is odd."""
    bounds = [0, *index, n + 1]
    return all(j - i > 0 and (j - i) % 2 for i, j in zip(bounds, bounds[1:]))


@contextlib.contextmanager
def frames_to_spare(n):
    """A recursion limit n frames above the caller's depth."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + n)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class TestPathMatrix:
    def test_n1(self):
        m = path_matrix(1)
        assert m[1, 1] == P("b1")
        assert m[1, 2] == P("1")
        assert m[2, 1] == P("1")
        assert m[2, 2] == P("0")

    def test_trefoil_entries(self):
        m = path_matrix(3)
        assert poly_to_str(m[1, 1]) == "b1 + b3 + b1 b2 b3"
        assert poly_to_str(m[1, 2]) == "1 + b1 b2"
        assert poly_to_str(m[2, 1]) == "1 + b2 b3"
        assert poly_to_str(m[2, 2]) == "b2"

    def test_n5_lengths(self):
        assert path_matrix(5).lengths() == (8, 5, 5, 3)

    def test_lengths_past_expansion(self):
        # each term of an entry carries a letter the others lack, found
        # among all of its mandatory letters
        assert path_matrix(61).lengths() == fibonacci_lengths(61)

    @pytest.mark.parametrize("n", [21, 61, 161, 261])
    def test_tau_past_expansion(self, n, monkeypatch):
        # b1 occurs at most once in a word of B11, and F(n) words carry it
        entry = path_matrix(n)[1, 1]
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 0)
        assert entry.max_count("b1") == 1
        assert entry.tau("b1") == F(n)

    def test_walks_do_not_recurse_per_level(self):
        # B11 is about 2n nodes deep; slices, renaming and substitution
        # walk it from explicit stacks
        with frames_to_spare(100):
            entry = path_matrix(61)[1, 1]
            assert entry.tau("b1") == F(61)
            assert entry.rename({"b1": "c1"}).tau("c1") == F(61)
            assert AlgebraMap({"b1": P("c1 + c2")}).apply(entry).length() == F(62) + F(61)
            assert torus_tangle(61, "k").word.length() == F(61) ** 2 + F(60)
            path = tuple(f"b{i}" for i in range(1, 62))
            assert entry.contains(path)
            assert not entry.contains(path[::2])  # b1 b3 ... b61

    def test_zero_tests_and_maps_do_not_recurse_per_level(self):
        # 3000 levels: a product certified by its seams, and a singleton
        # chain whose one word has 3000 letters
        n = 3000
        product = functools.reduce(mul, [P(f"x{i} + y{i}") for i in range(n)])
        chain = algebra.unsafe_injective_product([Poly.gen(f"x{i}") for i in range(n)])
        gens = tuple(Generator(f"{c}{i}", 0) for i in range(n) for c in "xy")
        with frames_to_spare(100):
            assert product
            assert Dga((*gens, Generator("c", 1)), {"c": product}).d("c") is product
            assert AlgebraMap({"x": chain}).normalized() == {"x": chain}
            assert AlgebraMap({"x": chain}) == AlgebraMap({"x": chain})
            assert AlgebraMap({"x": chain}) != AlgebraMap({"x": P("x")})

    def test_membership_follows_path_word_rule(self, monkeypatch):
        for n in range(1, 11):  # the rule against the expansion
            words = {
                tuple(f"b{i}" for i in index)
                for k in range(n + 1)
                for index in itertools.combinations(range(1, n + 1), k)
                if is_path_word(n, index)
            }
            assert path_matrix(n)[1, 1].expand() == words
        entry = path_matrix(61)[1, 1]
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 0)
        rng = random.Random(61)
        for trial in range(50):
            if trial % 2:
                index = sorted(rng.sample(range(1, 62), rng.randint(0, 61)))
            else:  # odd gaps from 0; the last index odd makes the gap to 62 odd
                index = list(itertools.accumulate(rng.choice((1, 3, 5)) for _ in range(30)))
                index = [i for i in index if i <= 61]
                index = index[: len(index) - 1 + len(index) % 2]
                assert is_path_word(61, index)
            word = tuple(f"b{i}" for i in index)
            assert entry.contains(word) == is_path_word(61, index)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            path_matrix(0)

    def test_larger_build_reuses_kept_nodes(self):
        # a dropped result is kept, so the build at n + 2 interns only the
        # composite nodes of its two new steps, four each
        path_matrix(61)
        before = next(algebra._SERIALS)
        m = path_matrix(63)
        assert next(algebra._SERIALS) - before - 1 <= 8
        assert m.lengths() == fibonacci_lengths(63)

    def test_kept_matrix_is_read_only(self):
        m = path_matrix(5)
        with pytest.raises(AttributeError):
            m.entries = ()
        assert path_matrix(5) is m and m == PathMatrix(m.entries)


class TestFibonacci:
    def test_values(self):
        assert fibonacci_lengths(3) == (3, 2, 2, 1)
        assert fibonacci_lengths(1) == (1, 1, 1, 0)
        assert fibonacci_lengths(10) == (89, 55, 55, 34)

    def test_too_small(self):
        with pytest.raises(TooSmall, match="n >= 1 required, got 0"):
            fibonacci_lengths(0)

    def test_matches_path_matrix(self):
        for n in range(1, 13):
            assert path_matrix(n).lengths() == fibonacci_lengths(n)


class TestTorusKnot:
    def test_trefoil_differentials(self):
        dga = torus_knot_dga(3)
        assert poly_to_str(dga.d("a1")) == "1 + b1 + b3 + b1 b2 b3"
        assert poly_to_str(dga.d("a2")) == "b2 + b1 b2 + b2 b3 + b2 b3 b1 b2"
        assert dga.rotation_zero
        assert [g.degree for g in dga.generators] == [0, 0, 0, 1, 1]

    def test_n5_length(self):
        assert torus_knot_dga(5).d("a1").length() == 9

    def test_errors(self):
        with pytest.raises(EvenParameter):
            torus_knot_dga(4)
        with pytest.raises(TooSmall):
            torus_knot_dga(1)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_certified_lengths_against_expansion(self, n, monkeypatch):
        # oracle: fully explicit arithmetic with the structural shortcuts
        # disabled must agree with the certified symbolic construction
        certified = torus_knot_dga(n).d("a2").length()
        monkeypatch.setattr(algebra, "LAZY_THRESHOLD", 10**9)
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 10**9)
        m = path_matrix(n)
        brute = add(Poly.one(), add(m[2, 2], mul(m[2, 1], m[1, 2])))
        assert brute.is_explicit
        assert certified == brute.length()

    def test_valid(self):
        for n in (3, 5, 7, 9):
            assert check_dga(torus_knot_dga(n)).ok


class TestTangle:
    def test_kept_tangle_is_read_only(self):
        t = torus_tangle(3, "k1")
        for field in ("internal", "word", "prefix"):
            with pytest.raises(AttributeError):
                setattr(t, field, None)
        assert torus_tangle(3, "k1") is t
        assert t == Tangle(t.internal, t.word, "k1") != Tangle(t.internal, t.word, "k2")

    def test_trefoil_word(self):
        t = torus_tangle(3, "")
        assert poly_to_str(t.word) == "1 + b2 + b1 b2 + b2 b3 + b2 b3 b1 b2"
        assert t.word.length() == 5
        assert t.internal.names == frozenset({"b1", "b2", "b3", "a1"})

    def test_prefixing(self):
        t = torus_tangle(3, "k1")
        assert "k1.b2" in t.word.alphabet()
        assert t.internal.names == frozenset({"k1.b1", "k1.b2", "k1.b3", "k1.a1"})

    def test_empty_tangle(self):
        dga = Dga((Generator("a", 1),), {}, True)
        t = tangle_from_knot(dga, "a", "")
        assert t.word == Poly.one()

    def test_odd_word_lengths(self):
        for n in (3, 7, 9):
            assert torus_tangle(n, "").word.length() % 2 == 1

    def test_word_length_past_recursion_depth(self):
        assert torus_tangle(261, "k").word.length() == F(261) ** 2 + F(260)

    @pytest.mark.parametrize("n", [21, 41, 61])
    def test_word_length_keeps_certificates(self, n):
        # renaming and adding the unit keep d(a2)'s certificates
        word = torus_tangle(n, "k1").word
        assert word.length() == torus_knot_dga(n).d("a2").length() + 1

    def test_closure_referenced(self):
        dga = Dga(
            (Generator("a", 1), Generator("x", 2)),
            {"x": Poly.gen("a")},
            True,
        )
        with pytest.raises(ClosureReferenced):
            tangle_from_knot(dga, "a", "")

    def test_closure_cancelled_out_of_every_word(self, monkeypatch):
        # RIIInv sends y to c + (c + u) v + c v, two product nodes, so
        # d(a) = y + c becomes a symbolic sum of the two products whose
        # alphabet keeps c although no word carries it
        monkeypatch.setattr(algebra, "LAZY_THRESHOLD", 0)
        gens = (Generator("x", 1), Generator("y", 0), Generator("c", 1), Generator("a", 1))
        gens += (Generator("u", 0), Generator("v", 0))
        dx = add(P("y + c"), add(mul(P("c + u"), P("v")), mul(P("c"), P("v"))))
        assert not dx.is_explicit
        _, post = holonomy(RIIInv("x", "y"), Dga(gens, {"x": dx, "a": P("y + c")}))
        da = post.d("a")
        assert "c" in da.alphabet() and da.max_count("c") == 0
        t = tangle_from_knot(post, "c", "")
        assert t.word == Poly.one()
        assert t.internal.d("a") == add(dx, P("y + c"))

    def test_dotted_prefix(self):
        with pytest.raises(BuilderError, match="prefix may not contain '.'"):
            tangle_from_knot(torus_knot_dga(3), "a2", "k.a")

    def test_not_degree_one(self):
        with pytest.raises(NotDegreeOne):
            tangle_from_knot(torus_knot_dga(3), "b1", "")

    def test_kept(self):
        assert torus_tangle(7, "k1") is torus_tangle(7, "k1")

    def test_kept_differential_is_read_only(self):
        # a kept tangle is shared by every caller, so none may change it
        with pytest.raises(TypeError):
            torus_tangle(3, "k1").internal.differential["k1.a1"] = Poly.one()

    def test_json_round_trip(self):
        t = torus_tangle(3, "k1")
        back = tangle_from_dict(tangle_to_dict(t))
        assert back.word == t.word
        assert back.internal == t.internal
        assert back.prefix == "k1"


class TestConnectSum:
    def test_single_trefoil_recovers_knot(self):
        dga = connect_sum([torus_tangle(3, "")], closure_name="a2")
        reference = torus_knot_dga(3)
        assert dga.names == reference.names
        assert dga.d("a2") == reference.d("a2")
        assert dga.d("a1") == reference.d("a1")

    def test_double_trefoil(self):
        dga = connect_sum([torus_tangle(3, "k1"), torus_tangle(3, "k2")])
        # each word has 5 words including the unit; the two units' product
        # cancels the explicit 1, leaving 5*5 - 1 words
        assert dga.d("a").length() == 24
        assert check_dga(dga).ok

    def test_closure_formula(self):
        t1, t2 = torus_tangle(3, "k1"), torus_tangle(3, "k2")
        dga = connect_sum([t1, t2])
        assert dga.d("a") == add(Poly.one(), mul(t1.word, t2.word))

    def test_associativity_of_words(self):
        ts = [torus_tangle(3, f"k{i}") for i in (1, 2, 3)]
        flat = connect_sum(ts)
        paired = add(
            Poly.one(), mul(mul(ts[0].word, ts[1].word), ts[2].word)
        )
        assert flat.d("a") == paired

    def test_internal_differentials_unchanged(self):
        t = torus_tangle(3, "k1")
        dga = connect_sum([t, torus_tangle(3, "k2")])
        for name, image in t.internal.differential.items():
            assert dga.d(name) == image

    def test_errors(self):
        with pytest.raises(EmptyList):
            connect_sum([])
        with pytest.raises(PrefixCollision):
            connect_sum([torus_tangle(3, "k1"), torus_tangle(5, "k1")])

    def test_shared_generator_names(self):
        t = torus_tangle(3, "k1")
        with pytest.raises(PrefixCollision, match="generator collision"):
            connect_sum([t, Tangle(t.internal, t.word, "k2")])

    def test_closure_name_used(self):
        with pytest.raises(PrefixCollision, match="closure name 'k1.b1' already used"):
            connect_sum([torus_tangle(3, "k1")], "k1.b1")


class TestEvenDeltaClass:
    def test_torus_examples(self):
        assert is_even_delta_class(torus_knot_dga(3))[0]
        ok, report = is_even_delta_class(torus_knot_dga(5))
        assert not ok
        assert any("7" in r for r in report)

    def test_criterion(self):
        for n in range(3, 22, 2):
            assert is_even_delta_class(torus_knot_dga(n))[0] == (n % 3 != 2)

    def test_connected_sum_closed(self):
        dga = connect_sum([torus_tangle(3, "k1"), torus_tangle(9, "k2")])
        assert is_even_delta_class(dga)[0]

    def test_rotation_not_zero(self):
        knot = torus_knot_dga(3)
        ok, report = is_even_delta_class(Dga(knot.generators, knot.differential, False))
        assert not ok
        assert report == ["rotation_zero is false"]

    def test_negative_degree_rejected(self):
        dga = Dga((Generator("c", -1),), {}, True)
        assert not is_even_delta_class(dga)[0]
