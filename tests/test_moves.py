"""Unit tests for move holonomies, scripts, and the Kalman monodromy."""

from fractions import Fraction

import pytest

from legch import algebra
from legch.algebra import AlgebraMap, Poly, add, compose, mul, poly_from_str
from legch.builders import fibonacci_lengths, torus_knot_dga, torus_tangle
from legch.dga import Dga, Generator
from legch.moves import (
    FlyCollision,
    MalformedDifferential,
    MoveError,
    MoveScript,
    NotAnEndomorphism,
    RII,
    RIIGeneralHolonomyUnsupported,
    RIIInv,
    RIIIa,
    RIIIb,
    Relabel,
    StaleEvent,
    fly_fixed_check,
    holonomy,
    kalman_monodromy,
    run_script,
)


def P(text):
    return poly_from_str(text)


def degree_zero_dga(*names):
    return Dga(tuple(Generator(n, 0) for n in names), {}, True)


class TestHolonomy:
    def test_rii_inv(self):
        state = Dga(
            (
                Generator("x", 1),
                Generator("y", 0),
                Generator("u", 0),
                Generator("v", 0),
            ),
            {"x": P("y + u v")},
            True,
        )
        h, post = holonomy(RIIInv("x", "y"), state)
        assert h("x") == Poly.zero()
        assert h("y") == P("u v")
        assert post.names == frozenset({"u", "v"})

    def test_rii_inv_substitutes(self):
        state = Dga(
            (
                Generator("x", 1),
                Generator("y", 0),
                Generator("w", 0),
                Generator("z", 1),
            ),
            {"x": P("y + w"), "z": P("y w")},
            True,
        )
        h, post = holonomy(RIIInv("x", "y"), state)
        # chain-map consistency: the post-move differential is the image of
        # the pre-move one under the holonomy
        assert post.d("z") == h.apply(state.d("z")) == P("w w")

    def test_rii_inv_long_summand(self, monkeypatch):
        # d(x) = y + (y + u) v + y v, with two product nodes, so h(y) =
        # d(x) + y is a symbolic sum whose alphabet still lists y although y
        # cancelled
        monkeypatch.setattr(algebra, "LAZY_THRESHOLD", 0)
        dx = add(P("y"), add(mul(P("y + u"), P("v")), mul(P("y"), P("v"))))
        state = Dga(
            (Generator("x", 1), Generator("y", 0), Generator("a", 1))
            + (Generator("u", 0), Generator("v", 0)),
            {"x": dx, "a": P("y")},
            True,
        )
        h, post = holonomy(RIIInv("x", "y"), state)
        assert "y" in h("y").alphabet()
        assert post.d("a") == h("y") == P("u v")
        assert "y" not in post.names

    def test_rii_inv_malformed(self):
        state = Dga((Generator("x", 1), Generator("y", 0)), {"x": Poly.zero()}, True)
        with pytest.raises(MalformedDifferential):
            holonomy(RIIInv("x", "y"), state)

    def test_riii_b(self):
        state = degree_zero_dga("x", "y", "z")
        h, _ = holonomy(RIIIb("x", "y", "z"), state)
        assert h("x") == P("x + z y")
        assert h("y") == P("y")

    def test_riii_b_image_is_one_explicit_node(self):
        h, _ = holonomy(RIIIb("x", "y", "z"), degree_zero_dga("x", "y", "z"))
        (image,) = h.assignments.values()
        assert image.is_explicit
        assert image == P("x + z y")

    def test_riii_b_rewrites_state(self):
        state = Dga(
            (
                Generator("c", 1),
                Generator("x", 0),
                Generator("y", 0),
                Generator("z", 0),
            ),
            {"c": P("x z")},
            True,
        )
        _, post = holonomy(RIIIb("x", "y", "z"), state)
        assert post.d("c") == P("x z + z y z")

    def test_riii_b_keeps_state_without_x(self):
        state = Dga(
            (
                Generator("c", 1),
                Generator("x", 0),
                Generator("y", 0),
                Generator("z", 0),
            ),
            {"c": P("y z")},
            True,
        )
        _, post = holonomy(RIIIb("x", "y", "z"), state)
        assert post == state
        assert post is state

    def test_riii_a(self):
        state = degree_zero_dga("p", "q")
        h, post = holonomy(RIIIa(), state)
        assert not h.normalized()
        assert post == state

    def test_relabel(self):
        state = degree_zero_dga("p", "q")
        h, post = holonomy(Relabel({"p": "q", "q": "p"}), state)
        assert h("p") == P("q")
        assert post.names == frozenset({"p", "q"})

    def test_relabel_not_injective(self):
        state = degree_zero_dga("p", "q", "r")
        with pytest.raises(MoveError):
            holonomy(Relabel({"p": "r", "q": "r"}), state)

    def test_relabel_collides_with_unmoved(self):
        state = degree_zero_dga("p", "q", "r")
        with pytest.raises(MoveError):
            holonomy(Relabel({"p": "q"}), state)

    def test_relabel_keeps_certificates(self, monkeypatch):
        dga = torus_knot_dga(61)
        perm = {"a2": "c", "b1": "b0"}
        _, post = holonomy(Relabel(perm), dga)
        _, f61, _, f60 = fibonacci_lengths(61)
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 0)
        assert post.d("c").length() == f61 * f61 + f60 - 1
        assert post.d("c").alphabet() == dga.d("a2").rename(perm).alphabet()

    def test_rii_birth_ok(self):
        state = degree_zero_dga("p")
        event = RII(
            Generator("x", 1),
            Generator("y", 0),
            {"x": P("y")},
        )
        h, post = holonomy(event, state)
        assert not h.normalized()
        assert post.names == frozenset({"p", "x", "y"})

    def test_rii_survivor_unsupported(self):
        state = Dga((Generator("p", 1), Generator("q", 0)), {}, True)
        event = RII(
            Generator("x", 1),
            Generator("y", 0),
            {"x": P("y"), "p": P("q")},
        )
        with pytest.raises(RIIGeneralHolonomyUnsupported):
            holonomy(event, state)

    def test_rii_survivor_height_exemption(self):
        state = Dga(
            (Generator("p", 1, Fraction(1)), Generator("q", 0, Fraction(1, 2))),
            {"p": P("q")},
            True,
        )
        event = RII(
            Generator("x", 1, Fraction(10)),
            Generator("y", 0, Fraction(5)),
            {"x": P("y")},
        )
        h, post = holonomy(event, state)
        assert post.d("p") == P("q")

    def test_stale_event(self):
        state = degree_zero_dga("p", "q", "r")
        with pytest.raises(StaleEvent):
            holonomy(RIIIb("p", "q", "missing"), state)
        with pytest.raises(StaleEvent):
            holonomy(
                RII(Generator("p", 1), Generator("y", 0), {}),
                state,
            )


class TestRunScript:
    def test_unknown_mode_rejected(self):
        with pytest.raises(MoveError):
            MoveScript(degree_zero_dga("p"), (), "verifed")

    def test_empty(self):
        script = MoveScript(degree_zero_dga("p"), (), "verified")
        assert not run_script(script).map.normalized()

    def test_single_riii_b(self):
        script = MoveScript(
            degree_zero_dga("b2", "y", "z"),
            (RIIIb("b2", "y", "z"),),
            "verified",
        )
        mono = run_script(script)
        assert mono.map("b2") == P("b2 + z y")

    def test_composition_order(self):
        base = degree_zero_dga("x", "y", "z")
        script = MoveScript(
            base,
            (RIIIb("x", "y", "z"), Relabel({"x": "y", "y": "x"})),
            "verified",
        )
        mono = run_script(script)
        # later relabel applies on top of the earlier substitution
        assert mono.map("x") == P("y + z x")

    def test_not_endomorphism(self):
        state = Dga(
            (Generator("x", 1), Generator("y", 0)),
            {"x": P("y")},
            True,
        )
        script = MoveScript(state, (RIIInv("x", "y"),), "verified")
        with pytest.raises(NotAnEndomorphism):
            run_script(script)

    def test_image_of_wrong_degree(self):
        dga = Dga((Generator("x", 0), Generator("y", 0), Generator("z", 1)), {}, True)
        script = MoveScript(dga, (RIIIb("x", "y", "z"),), "verified")
        with pytest.raises(NotAnEndomorphism, match="x -> word z y of degree 1, expected 0"):
            run_script(script)

    def test_formal_mode_allows_shrinking_state(self):
        state = Dga(
            (Generator("x", 1), Generator("y", 0)),
            {"x": P("y")},
            True,
        )
        script = MoveScript(state, (RIIInv("x", "y"),), "formal")
        mono = run_script(script)
        assert mono.map("x") == Poly.zero()

    def test_born_generator_cancelled_from_symbolic_image(self, monkeypatch):
        # y is born by RII and substituted away by RIIInv; the symbolic image
        # of g2 may still list y in its alphabet, with count 0
        monkeypatch.setattr(algebra, "LAZY_THRESHOLD", 0)
        script = MoveScript(
            degree_zero_dga("g0", "g1", "g2", "g3"),
            (
                RII(Generator("x", 1), Generator("y", 0), {"x": P("y + g0 g1")}),
                RIIIb("g2", "y", "g3"),
                RIIInv("x", "y"),
            ),
            "verified",
        )
        assert run_script(script).map("g2") == P("g2 + g3 g0 g1")


# RIIIb events and a Relabel between an RII birth and its RIIInv death, and
# one RIIIb after the death
WINDOW_SCRIPT = (
    RII(Generator("x", 1), Generator("y", 0), {"x": P("y + a b")}),
    RIIIb("c", "y", "d"),
    RIIIb("a", "b", "c"),
    RIIIb("d", "a", "b"),
    Relabel({"a": "b", "b": "a"}),
    RIIInv("x", "y"),
    RIIIb("b", "c", "d"),
)


class TestWindowScript:
    def run(self, events):
        return run_script(MoveScript(degree_zero_dga("a", "b", "c", "d"), events, "verified"))

    def test_images(self):
        # d(x) is y + b a + c a a when x dies, so y goes to b a + c a a
        mono = self.run(WINDOW_SCRIPT[:-1]).map
        assert mono.normalized() == {
            "a": P("b + c a"),
            "b": P("a"),
            "c": P("c + d b a + a b b a + d c a a + a b c a a"),
            "d": P("d + a b"),
        }

    @pytest.mark.parametrize("cut", [0, 6, 7])
    def test_halves_compose(self, cut):
        first, second = self.run(WINDOW_SCRIPT[:cut]), self.run(WINDOW_SCRIPT[cut:])
        assert compose(second.map, first.map).normalized() == self.run(WINDOW_SCRIPT).map.normalized()


# twelve events over five generators: two Relabels, and two RIIIb events
# that substitute with the RII-born y before RIIInv sends y to a b
LONG_SCRIPT = (
    RIIIb("a", "b", "c"),
    RII(Generator("x", 1), Generator("y", 0), {"x": P("y + a b")}),
    RIIIb("c", "y", "d"),
    Relabel({"a": "b", "b": "a"}),
    RIIIb("e", "y", "a"),
    RIIIb("d", "c", "e"),
    RIIIa(),
    RIIInv("x", "y"),
    RIIIb("b", "e", "d"),
    Relabel({"c": "d", "d": "e", "e": "c"}),
    RIIIb("c", "a", "b"),
    RIIIb("e", "d", "a"),
)


class TestBackToFrontFold:
    def test_long_script(self):
        script = MoveScript(degree_zero_dga("a", "b", "c", "d", "e"), LONG_SCRIPT, "verified")
        mono = run_script(script).map
        assert mono("b") == P("a")
        assert mono("d") == P("e + a d + c d + b a d")
        assert mono("e") == P("c + b a + a b a + a e c a + a a d c a + a e b a a + a a d b a a")

    def test_running_map_applied_once_per_event(self, monkeypatch):
        # k RIIIb events over five generators, none with a differential to
        # rewrite: folded from the last event back, each earlier event
        # applies the running map to the one image it moves, k - 1 times in
        # all; folded front to back, each holonomy is applied to every
        # image gathered so far, up to five.  Formal mode: the images grow
        # doubly exponentially, and only the fold is counted
        names = ("a", "b", "c", "d", "e")
        k = 8
        events = tuple(RIIIb(*(names[(i + s) % 5] for s in (0, 1, 3))) for i in range(k))
        calls = []
        apply = AlgebraMap.apply
        monkeypatch.setattr(AlgebraMap, "apply", lambda m, p: calls.append(m) or apply(m, p))
        run_script(MoveScript(degree_zero_dga(*names), events, "formal"))
        assert len(calls) == k - 1
        calls.clear()
        total = AlgebraMap.identity()
        for event in events:
            total = compose(AlgebraMap({event.x: P(f"{event.x} + {event.z} {event.y}")}), total)
        assert len(calls) == 1 + 2 + 3 + 4 + 5 * (k - 5)

    def test_verified_degree_check_never_expands(self, monkeypatch):
        # nine RIIIb events over five generators of degree 0: the images'
        # size bounds reach 3 285 033 words, yet every letter has degree 0,
        # so the letters' degree bounds settle the check with no word
        # counted
        names = ("a", "b", "c", "d", "e")
        events = tuple(RIIIb(*(names[(i + s) % 5] for s in (0, 1, 3))) for i in range(9))
        calls = []
        expanded = Poly._expanded
        monkeypatch.setattr(Poly, "_expanded", lambda p: calls.append(p) or expanded(p))
        mono = run_script(MoveScript(degree_zero_dga(*names), events, "verified")).map
        assert calls == []
        assert max(mono(g).size_bound() for g in names) == 3_285_033


class TestFlyFixed:
    def test_riii_a_only(self):
        script = MoveScript(degree_zero_dga("f", "g"), (RIIIa(), RIIIa()), "verified")
        assert fly_fixed_check(script, {"f", "g"}).ok

    def test_violation(self):
        script = MoveScript(
            degree_zero_dga("f", "y", "z"),
            (RIIIb("f", "y", "z"),),
            "verified",
        )
        report = fly_fixed_check(script, {"f"})
        assert not report.ok
        assert "moves f" in report.violations[0]

    def test_fly_generator_missing(self):
        script = MoveScript(degree_zero_dga("f"), (RIIIa(),), "verified")
        report = fly_fixed_check(script, {"f", "q"})
        assert report.violations == ["fly generators not in initial DGA: ['q']"]

    def test_non_fly_moves_allowed(self):
        script = MoveScript(
            degree_zero_dga("f", "x", "y", "z"),
            (RIIIb("x", "y", "z"),),
            "verified",
        )
        assert fly_fixed_check(script, {"f"}).ok


class TestKalman:
    def w(self):
        return torus_tangle(3, "k").word

    def test_j1(self):
        mu = kalman_monodromy(self.w(), 1)
        assert mu("b3") == P("b1")

    def test_j2(self):
        w = self.w()
        mu = kalman_monodromy(w, 2)
        assert mu("b3") == add(w, mul(P("b1 b2"), w))

    def test_j3(self):
        w = self.w()
        mu = kalman_monodromy(w, 3)
        b2b3 = P("b2 b3")
        b1b2 = P("b1 b2")
        expected = add(
            add(w, mul(w, w)),
            add(
                mul(mul(w, b2b3), w),
                add(mul(b1b2, mul(w, w)), mul(mul(mul(b1b2, w), b2b3), w)),
            ),
        )
        assert mu("b3") == expected

    def test_power_additivity(self):
        w = self.w()
        lhs = kalman_monodromy(w, 3)
        rhs = compose(kalman_monodromy(w, 1), kalman_monodromy(w, 2))
        assert lhs == rhs

    def test_trivial_fly(self):
        mu = kalman_monodromy(Poly.one(), 1)
        assert mu("b3") == P("b1")
        assert mu("b1") == P("1 + b1 b2")
        assert mu("b2") == P("1 + b2 b3")

    def test_fly_letters_fixed(self):
        mu = kalman_monodromy(self.w(), 2)
        assert "k.b1" not in mu.moved()

    def test_power_below_one(self):
        with pytest.raises(MoveError, match="j >= 1 required, got 0"):
            kalman_monodromy(self.w(), 0)

    def test_fly_collision(self):
        with pytest.raises(FlyCollision):
            kalman_monodromy(P("b1 + x"), 1)
