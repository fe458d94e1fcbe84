"""Unit tests for the DGA container and its validators."""

from fractions import Fraction

import pytest

from legch import algebra
from legch.algebra import AlgebraMap, Poly, add, mul, poly_from_str
from legch.builders import path_matrix, torus_knot_dga
from legch.dga import (
    Dga,
    DgaError,
    Generator,
    MissingHeights,
    NotQuarterOdd,
    UnknownGenerator,
    apply_endomorphism,
    check_dga,
    degree_from_rotation,
    dga_from_dict,
    dga_to_dict,
    shrink,
)


def P(text):
    return poly_from_str(text)


class TestDegreeFromRotation:
    def test_values(self):
        assert degree_from_rotation(Fraction(-1, 4)) == 0
        assert degree_from_rotation(Fraction(-3, 4)) == 1
        assert degree_from_rotation(Fraction(1, 4)) == -1

    def test_not_quarter_odd(self):
        with pytest.raises(NotQuarterOdd):
            degree_from_rotation(Fraction(1, 2))
        with pytest.raises(NotQuarterOdd):
            degree_from_rotation(Fraction(1))
        # 4r is not an integer
        for r in (Fraction(1, 3), Fraction(1, 8)):
            with pytest.raises(NotQuarterOdd):
                degree_from_rotation(r)

    def test_bijection_on_window(self):
        # r = (2k+1)/4 sweeps each integer degree exactly once
        degrees = [
            degree_from_rotation(Fraction(2 * k + 1, 4)) for k in range(-10, 11)
        ]
        assert len(set(degrees)) == len(degrees)
        assert set(range(-10, 10)) <= set(degrees)


class TestWordDegree:
    def test_examples(self):
        dga = torus_knot_dga(3)
        assert dga.word_degree(()) == 0
        assert dga.word_degree(("b1", "b2", "b3")) == 0
        assert dga.word_degree(("a1", "b2")) == 1

    def test_unknown(self):
        dga = torus_knot_dga(3)
        with pytest.raises(UnknownGenerator):
            dga.word_degree(("zzz",))


class TestCheckDga:
    def test_trefoil_valid(self):
        report = check_dga(torus_knot_dga(3))
        assert report.ok

    def test_degree_drop_violation(self):
        dga = Dga((Generator("a", 1),), {"a": Poly.gen("a")}, True)
        report = check_dga(dga)
        assert not report.ok
        assert any("degree" in v for v in report.violations)

    def test_action_violation(self):
        dga = Dga(
            (Generator("x", 0, Fraction(2)), Generator("y", 1, Fraction(1))),
            {"y": Poly.gen("x")},
            True,
        )
        report = check_dga(dga)
        assert not report.ok
        assert any("height" in v for v in report.violations)

    def test_d_squared_violation(self):
        dga = Dga(
            (Generator("x", 2), Generator("y", 1), Generator("z", 0)),
            {"x": Poly.gen("y"), "y": Poly.gen("z")},
            True,
        )
        report = check_dga(dga)
        assert any("d(d(" in v for v in report.violations)

    def test_rotation_flag(self):
        dga = Dga((Generator("b", 0),), {}, rotation_zero=False)
        assert not check_dga(dga).ok

    def test_heights_skipped_when_absent(self):
        report = check_dga(torus_knot_dga(3))
        assert any("height" in s for s in report.skipped)

    def test_symbolic_image_past_the_cap(self, monkeypatch):
        # d(x) = (y + z)(y + z y), words y y, y z y, z y, z z y of degrees
        # 0, 1, 1, 2: only bounded against the target 1, and its d^2 and
        # heights need its words; d(z) = y is explicit and checked in full
        monkeypatch.setattr(algebra, "LAZY_THRESHOLD", 0)
        image = mul(P("y + z"), P("y + z y"))
        assert not image.is_explicit
        gens = (
            Generator("x", 2, Fraction(9)),
            Generator("y", 0, Fraction(1)),
            Generator("z", 1, Fraction(2)),
        )
        dga = Dga(gens, {"x": image, "z": P("y")}, True)
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 0)
        report = check_dga(dga)
        assert report.violations == []
        assert report.skipped == [
            "degree check on symbolic d(x) only bounded to [0,2]",
            "d^2 check on x: expansion too large",
            "height check on x: expansion too large",
        ]


def wrong_degree_dga(monkeypatch):
    """d(x) symbolic with word degrees in [0, 2] against a target of 3, and
    d(w) = w y explicit with degree 1 against a target of 0."""
    monkeypatch.setattr(algebra, "LAZY_THRESHOLD", 0)
    y_or_z = add(Poly.gen("y"), Poly.gen("z"))
    square = mul(y_or_z, y_or_z)
    assert not square.is_explicit
    gens = (Generator("x", 4), Generator("w", 1), Generator("y", 0), Generator("z", 1))
    return Dga(gens, {"x": square, "w": P("w y")}, True), square


class TestDegreeMessages:
    def test_check_dga(self, monkeypatch):
        dga, _ = wrong_degree_dga(monkeypatch)
        report = check_dga(dga)
        assert report.violations == [
            "d(x): word degrees in [0,2], expected 3",
            "d(w): word w y has degree 1, expected 0",
            "d(d(w)) != 0",
        ]
        assert report.skipped == ["height monotonicity: heights absent"]

    def test_apply_endomorphism(self, monkeypatch):
        dga, square = wrong_degree_dga(monkeypatch)
        report = apply_endomorphism(dga, AlgebraMap({"y": square, "z": P("y")}))
        assert report.violations == [
            "y -> symbolic image with degree bounds [0,2], expected exactly 0",
            "z -> word y of degree 0, expected 1",
        ]

    def test_apply_endomorphism_symbolic_zero_image(self, monkeypatch):
        # (y + z) y + y y + z y: three symbolic products that cancel, with
        # degree bounds [0,1] against the target 0 of y: tested for zero
        monkeypatch.setattr(algebra, "LAZY_THRESHOLD", 0)
        dga, _ = wrong_degree_dga(monkeypatch)
        zero = add(add(mul(P("y + z"), P("y")), mul(P("y"), P("y"))), mul(P("z"), P("y")))
        assert not zero.is_explicit and zero.size_bound() == 4
        assert apply_endomorphism(dga, AlgebraMap({"y": zero})).ok


class TestWordDegreeBounds:
    def test_unknown_letter(self):
        with pytest.raises(UnknownGenerator, match="^unknown generator 'zz'$"):
            torus_knot_dga(3).word_degree_bounds(Poly.gen("zz"))

    def test_symbolic_with_negative_degree(self, monkeypatch):
        monkeypatch.setattr(algebra, "LAZY_THRESHOLD", 0)
        p = mul(P("x + y"), P("y z + z"))
        assert not p.is_explicit
        dga = Dga((Generator("x", 1), Generator("y", -1), Generator("z", 0)), {}, True)
        # words x y z, x z, y y z, y z of degrees 0, 1, -2, -1
        degrees = [dga.word_degree(w) for w in p.words()]
        assert dga.word_degree_bounds(p) == (min(degrees), max(degrees)) == (-2, 1)


class TestShrink:
    def base(self):
        return Dga(
            (Generator("x", 1, Fraction(8)), Generator("y", 0, Fraction(2))),
            {"x": Poly.gen("y")},
            True,
        )

    def test_identity(self):
        assert shrink(self.base(), Fraction(1)) == self.base()

    def test_quarter(self):
        out = shrink(self.base(), Fraction(1, 2))
        assert out.generator("x").height == Fraction(2)
        assert out.generator("y").height == Fraction(1, 2)

    def test_composition(self):
        u, v = Fraction(1, 2), Fraction(3, 4)
        assert shrink(shrink(self.base(), u), v) == shrink(self.base(), u * v)

    def test_missing_heights(self):
        with pytest.raises(MissingHeights):
            shrink(torus_knot_dga(3), Fraction(1, 2))

    def test_bad_factor(self):
        with pytest.raises(DgaError):
            shrink(self.base(), Fraction(2))

    def test_preserves_validity(self):
        assert check_dga(shrink(self.base(), Fraction(1, 3))).ok


class TestApplyEndomorphism:
    def test_identity(self):
        assert apply_endomorphism(torus_knot_dga(3), AlgebraMap.identity()).ok

    def test_degree_zero_image(self):
        m = AlgebraMap({"b3": Poly.gen("b1")})
        assert apply_endomorphism(torus_knot_dga(3), m).ok

    def test_violation(self):
        m = AlgebraMap({"b1": Poly.gen("a1")})
        report = apply_endomorphism(torus_knot_dga(3), m)
        assert not report.ok

    def test_unknown(self):
        with pytest.raises(UnknownGenerator):
            apply_endomorphism(torus_knot_dga(3), AlgebraMap({"q": Poly.one()}))


class TestJson:
    def test_round_trip(self):
        dga = torus_knot_dga(3)
        assert dga_from_dict(dga_to_dict(dga)) == dga

    def test_zero_image_round_trip(self):
        # a zero image is stored as no image, so writing drops nothing
        doc = {"generators": [{"name": "x", "degree": 1}], "differential": {"x": "0"}}
        dga = dga_from_dict(doc)
        assert dga.differential == {}
        assert dga_from_dict(dga_to_dict(dga)) == dga

    def test_heights_serialized_as_strings(self):
        dga = Dga((Generator("x", 1, Fraction(1, 3)),), {}, True)
        doc = dga_to_dict(dga)
        assert doc["generators"][0]["height"] == "1/3"
        assert dga_from_dict(doc).generator("x").height == Fraction(1, 3)

    def test_malformed(self):
        with pytest.raises(DgaError):
            dga_from_dict({"schema": "dga.v2", "generators": []})

    def test_rotation_zero_must_be_boolean(self):
        doc = dga_to_dict(torus_knot_dga(3))
        doc["rotation_zero"] = "false"
        with pytest.raises(DgaError, match="malformed dga.v1 document"):
            dga_from_dict(doc)

    def test_differential_must_be_an_object(self):
        doc = dga_to_dict(torus_knot_dga(3))
        doc["differential"] = ["a1"]
        with pytest.raises(DgaError, match="malformed dga.v1 document"):
            dga_from_dict(doc)


class TestInvariants:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DgaError):
            Dga((Generator("x", 0), Generator("x", 1)), {}, True)

    def test_rename_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            torus_knot_dga(3).rename({"q": "r"})

    def test_undeclared_differential_rejected(self):
        with pytest.raises(UnknownGenerator):
            Dga((Generator("x", 0),), {"y": Poly.one()}, True)

    def test_undeclared_letter_in_differential_rejected(self, monkeypatch):
        with pytest.raises(UnknownGenerator, match=r"d\(x\) mentions undeclared generators \['y'\]"):
            Dga((Generator("x", 1),), {"x": P("y")}, True)
        # symbolic images too
        monkeypatch.setattr(algebra, "LAZY_THRESHOLD", 0)
        image = mul(P("x + z"), P("x + y"))
        assert not image.is_explicit
        with pytest.raises(UnknownGenerator, match=r"\['y', 'z'\]"):
            Dga((Generator("x", 1),), {"x": image}, True)
        # a letter that cancelled out of every word is not mentioned
        cancelled = add(mul(P("1 + y"), P("x")), mul(P("y"), P("x")))
        assert "y" in cancelled.alphabet()
        assert Dga((Generator("x", 1),), {"x": cancelled}, True).d("x") == P("x")

    def test_zero_valued_images_dropped(self, monkeypatch):
        monkeypatch.setattr(algebra, "LAZY_THRESHOLD", 0)
        zero = add(mul(P("x"), P("x + y")), add(P("x x"), P("x y")))
        assert not zero.is_explicit and not zero
        gens = (Generator("x", 0), Generator("y", 0))
        assert Dga(gens, {"x": zero, "y": P("x")}).differential == {"y": P("x")}

    def test_zero_test_past_the_cap(self):
        # neither sum has a certificate and both expand past EXPANSION_CAP,
        # so whether the image is zero is decided without expanding
        a = path_matrix(41)[1, 1]
        x, y, z = map(Poly.gen, "xyz")
        gens = tuple(Generator(c, 0) for c in sorted(a.alphabet() | {"c", "x", "y", "z"}))
        kept = add(mul(a, x + y), mul(a, y + z))  # a x + a z
        assert kept.size_bound() > algebra.EXPANSION_CAP
        assert Dga(gens, {"c": kept}).differential == {"c": kept}
        zero = add(add(mul(a, x + y), mul(a, x)), mul(a, y))
        assert Dga(gens, {"c": zero}).differential == {}

    def test_nonpositive_height_rejected(self):
        with pytest.raises(DgaError):
            Generator("x", 0, Fraction(0))
