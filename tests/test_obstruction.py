"""Unit tests for the tau-parity certificate and nontriviality verdicts."""

import math

import pytest

from legch import algebra
from legch.algebra import AlgebraMap, Poly, add, mul, poly_from_str
from legch.builders import fibonacci_lengths, torus_knot_dga, torus_tangle
from legch.dga import Dga, Generator, UnknownGenerator
from legch.moves import MoveError, kalman_monodromy
from legch.obstruction import (
    BadSummand,
    NotDegreeZeroMarker,
    Verdict,
    family_dga,
    family_verdicts,
    tau_parity_certificate,
    verdict,
)


def P(text):
    return poly_from_str(text)


class TestCertificate:
    def test_trefoil(self):
        ok, report = tau_parity_certificate(torus_knot_dga(3), "b3")
        assert ok
        assert report.values == {"a1": 2, "a2": 2}
        # not every marker certifies: b2 appears an odd number of times
        assert not tau_parity_certificate(torus_knot_dga(3), "b2")[0]

    def test_failure(self):
        dga = Dga(
            (Generator("c", 1), Generator("g", 0)),
            {"c": P("g")},
            True,
        )
        ok, report = tau_parity_certificate(dga, "g")
        assert not ok
        assert report.values == {"c": 1}

    def test_marker_errors(self):
        dga = torus_knot_dga(3)
        with pytest.raises(NotDegreeZeroMarker):
            tau_parity_certificate(dga, "a1")
        with pytest.raises(UnknownGenerator):
            tau_parity_certificate(dga, "zzz")


class TestVerdict:
    def test_trefoil_j1_nontrivial(self):
        dga, fly_word = family_dga([3])
        # the fly prefix keeps k1.* apart from the bare trefoil's b1..b3
        mu = kalman_monodromy(fly_word, 1)
        v = verdict(dga, mu, "b3", "b3")
        assert v.tau_value % 2 == 1
        assert v.certificate_ok
        assert v.conclusion == "nontrivial"

    def test_identity_inconclusive(self):
        dga = torus_knot_dga(3)
        v = verdict(dga, AlgebraMap.identity(), "b3", "b3")
        assert v.tau_value == 0
        assert v.conclusion == "inconclusive"

    def test_failed_certificate_forces_inconclusive(self):
        dga = Dga(
            (Generator("c", 1), Generator("g", 0), Generator("h", 0)),
            {"c": P("g")},
            True,
        )
        mu = AlgebraMap({"h": P("g h")})
        v = verdict(dga, mu, "h", "g")
        assert not v.certificate_ok
        assert v.conclusion == "inconclusive"

    def test_conclusion_is_derived(self):
        # nontrivial iff the certificate holds and tau is odd
        for ok, tau, want in (
            (True, 1, "nontrivial"),
            (True, 2, "inconclusive"),
            (False, 1, "inconclusive"),
            (False, 2, "inconclusive"),
        ):
            assert Verdict("b3", "b3", tau, ok, Poly.zero()).conclusion == want

    def test_equality_ignores_the_image(self):
        a = Verdict("b3", "b3", 1, True, Poly.zero())
        assert a == Verdict("b3", "b3", 1, True, P("b1 b2"))
        assert a != Verdict("b3", "b3", 3, True, Poly.zero())
        assert hash(a) == hash(Verdict("b3", "b3", 1, True, P("b1")))
        assert repr(a) == "Verdict(witness='b3', marker='b3', tau_value=1, certificate_ok=True)"
        with pytest.raises(AttributeError):
            a.tau_value = 2


class TestFamily:
    def test_single_trefoil_fly(self):
        dga, fly_word = family_dga([3])
        assert fly_word.length() == 5
        assert "k1.b1" in dga.names and "b1" in dga.names

    def test_powers(self):
        out = family_verdicts([3], [1, 2, 3])
        assert [out[j].conclusion for j in (1, 2, 3)] == [
            "nontrivial",
            "nontrivial",
            "nontrivial",
        ]
        assert all(out[j].tau_value % 2 == 1 for j in out)

    def test_powers_built_incrementally_match_each_from_scratch(self):
        dga, fly_word = family_dga([3, 7])
        for powers in ((1, 2, 3), (2, 4), (3,), (4, 2, 2)):
            out = family_verdicts([3, 7], powers)
            assert list(out) == sorted(set(powers))
            for j, v in out.items():
                direct = verdict(dga, kalman_monodromy(fly_word, j), "b3", "b3")
                assert v == direct
                assert v.image == direct.image

    def test_power_and_fly_errors_come_from_the_smallest_power(self):
        with pytest.raises(MoveError, match="j >= 1 required, got 0"):
            family_verdicts([3], [2, 0])
        assert family_verdicts([3], []) == {}

    def test_two_summands(self):
        out = family_verdicts([3, 3], [2])
        assert out[2].conclusion == "nontrivial"

    def test_bad_summands(self):
        with pytest.raises(BadSummand):
            family_dga([5])
        with pytest.raises(BadSummand):
            family_dga([4])
        with pytest.raises(BadSummand):
            family_dga([1])


class TestTauValues:
    def test_j1_value(self):
        # one loop moves the witness to k1-land entirely: tau(b1 + b3) = 1
        dga, fly_word = family_dga([3])
        mu = kalman_monodromy(fly_word, 1)
        assert add(mu("b3"), Poly.gen("b3")).tau("b3") == 1

    def test_j3_value(self):
        dga, fly_word = family_dga([3])
        mu = kalman_monodromy(fly_word, 3)
        value = add(mu("b3"), Poly.gen("b3")).tau("b3")
        assert value == 2 * fly_word.length() ** 2 + 1

    def test_j4_value_is_even(self):
        # pinned: at j = 4 the fly 3 gives an even tau, so nothing is certified
        v = family_verdicts((3,), (4,))[4]
        assert v.tau_value == 250
        assert v.conclusion == "inconclusive"

    @pytest.mark.parametrize("fly", [(3,), (3, 3)])
    def test_j4_value_against_expansion(self, fly):
        _, fly_word = family_dga(fly)
        value = add(kalman_monodromy(fly_word, 4)("b3"), Poly.gen("b3"))
        tau = value.tau("b3")
        counts = [w.count("b3") for w in value.expand()]
        assert tau == counts.count(max(counts)) == 2 * fly_word.length() ** 3

    def test_j5_value_against_expansion(self):
        _, fly_word = family_dga([3])
        value = add(kalman_monodromy(fly_word, 5)("b3"), Poly.gen("b3"))
        counts = [w.count("b3") for w in value.expand()]
        assert value.tau("b3") == counts.count(max(counts)) == 8500

    @pytest.mark.parametrize("fly", [(3,), (3, 3)])
    def test_powers_compose_structurally(self, fly):
        # a product with a symbolic factor stays a node, so each power adds a
        # few composite nodes to the one before it; expanding small products
        # made the fly 3 create 90 nodes at j = 3 and 2 053 at j = 4.  The
        # powers create 10, 6 and 6 nodes, whatever the hash seed.
        _, fly_word = family_dga(fly)
        kept = []
        for j in (3, 4, 5):
            before = next(algebra._SERIALS)
            kept.append(kalman_monodromy(fly_word, j))
            assert next(algebra._SERIALS) - before - 1 <= 20

    @pytest.mark.parametrize("fly", [(19,), (21,), (45,), (21, 45), (3,), (3, 3)])
    def test_large_flies_without_expansion(self, fly, monkeypatch):
        # from the fly's DGA to tau, nothing is expanded, for the smallest
        # flies as for those whose l(W) = prod (F(n)^2 + F(n-1)) is far past
        # any expansion
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 0)
        dga, fly_word = family_dga(fly)
        mus = {j: kalman_monodromy(fly_word, j) for j in (1, 2, 3, 4)}
        _, f, _, f_prev = zip(*map(fibonacci_lengths, fly))
        l_w = math.prod(a * a + b for a, b in zip(f, f_prev))
        assert fly_word.length() == l_w
        for j, tau, ok, conclusion in (
            (1, 1, True, "nontrivial"),
            (2, 1, True, "nontrivial"),
            (3, 2 * l_w**2 + 1, True, "nontrivial"),
            (4, 2 * l_w**3, True, "inconclusive"),
        ):
            v = verdict(dga, mus[j], "b3", "b3")
            assert (v.tau_value, v.certificate_ok, v.conclusion) == (tau, ok, conclusion)
