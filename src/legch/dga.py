"""Graded differential algebra container and its validity checks.

A Dga holds graded generators (with an optional positive height each), a
differential given as explicit polynomial data, and a rotation_zero flag.
Validation checks that the differential drops degree by one, squares to
zero, and decreases height; violations are collected into a report rather
than raised, so corpora can be triaged in one pass.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from .algebra import (
    AlgebraError,
    AlgebraMap,
    ExpansionTooLarge,
    Poly,
    _make_sum,
    check_name,
    poly_from_str,
    poly_to_str,
    word_to_str,
)


class DgaError(Exception):
    pass


class UnknownGenerator(DgaError):
    pass


class NotQuarterOdd(DgaError):
    pass


class MissingHeights(DgaError):
    pass


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    height: Fraction | None = None

    def __post_init__(self):
        check_name(self.name)
        if self.height is not None and self.height <= 0:
            raise DgaError(f"height of {self.name} must be positive")


def _undeclared(p: Poly, names: frozenset[str]) -> list[str]:
    """The letters outside `names` that occur in some word of p, sorted.  A
    symbolic alphabet is a superset: a letter that cancelled out of every
    word is not counted."""
    return sorted(c for c in p.alphabet() - names if p.max_count(c) > 0)


@dataclass(frozen=True)
class Dga:
    generators: tuple[Generator, ...]
    differential: Mapping[str, Poly]
    rotation_zero: bool = True
    # name -> generator and the name set, built once per DGA
    _index: dict[str, Generator] = field(init=False, repr=False, compare=False)
    names: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {g.name: g for g in self.generators}
        if len(index) != len(self.generators):
            raise DgaError("duplicate generator names")
        names = frozenset(index)
        for name, image in self.differential.items():
            if name not in index:
                raise UnknownGenerator(f"differential given for undeclared {name!r}")
            extra = _undeclared(image, names)
            if extra:
                raise UnknownGenerator(f"d({name}) mentions undeclared generators {extra}")
        # the one place zero images are dropped: d(g) = 0 is stored by absence
        kept = MappingProxyType({n: p for n, p in self.differential.items() if p})
        object.__setattr__(self, "differential", kept)  # read-only: a DGA may be shared
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "names", names)

    def generator(self, name: str) -> Generator:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {name!r}") from None

    def degree(self, name: str) -> int:
        return self.generator(name).degree

    def d(self, name: str) -> Poly:
        self.generator(name)  # raises UnknownGenerator
        return self.differential.get(name, Poly.zero())

    def rename(self, mapping: Mapping[str, str]) -> Dga:
        """The DGA with generators renamed old -> new by `mapping`; the
        mapping must be injective and may not hit an unmoved generator.
        Every image goes through Poly.rename, which keeps certificates."""
        for old in mapping:
            self.generator(old)  # raises UnknownGenerator
        targets = set(mapping.values())
        if len(targets) != len(mapping):
            raise DgaError("renaming is not injective")
        clash = targets & (self.names - mapping.keys())
        if clash:
            raise DgaError(f"renaming targets collide with {sorted(clash)}")
        gens = tuple(
            Generator(mapping.get(g.name, g.name), g.degree, g.height)
            for g in self.generators
        )
        diff = {mapping.get(n, n): p.rename(mapping) for n, p in self.differential.items()}
        return Dga(gens, diff, self.rotation_zero)

    def has_heights(self) -> bool:
        return all(g.height is not None for g in self.generators)

    def word_degree(self, word: Iterable[str]) -> int:
        return sum(self.degree(c) for c in word)

    def word_degree_bounds(self, p: Poly) -> tuple[int, int]:
        """Bounds on the total degree of words of p (exact on explicit sets)."""
        lo, hi = self._letter_degree_bounds(p)
        if lo == hi or not p.is_explicit:
            return (lo, hi)
        degrees = [self.word_degree(w) for w in p.words()]
        return (min(degrees), max(degrees))

    def _letter_degree_bounds(self, p: Poly) -> tuple[int, int]:
        """Bounds on the total degree of words of p from the count bounds of
        its letters of nonzero degree: no word is walked."""
        index = self._index
        extra = _undeclared(p, self.names)
        if extra:
            raise UnknownGenerator(f"unknown generator {extra[0]!r}")
        lo = hi = 0
        nonzero = [c for c in p.alphabet() if c in index and index[c].degree != 0]
        for c in nonzero:
            clo, chi = p.count_bounds(c)
            d = index[c].degree
            if d > 0:
                lo += clo * d
                hi += chi * d
            else:
                lo += chi * d
                hi += clo * d
        return (lo, hi)


def _fraction(value) -> Fraction:
    """value as an exact Fraction.  fractions, and decimal with it, is
    imported on first use: only heights and rotations need it."""
    from fractions import Fraction

    return Fraction(value)


def degree_from_rotation(r: Fraction) -> int:
    """Degree of a crossing from its capping-path rotation number.

    The rotation takes quarter-odd values (2k+1)/4; the degree is the
    integer -2r - 1/2 = -(k + 1).
    """
    r = _fraction(r)
    q = 4 * r
    if q.denominator != 1 or q % 2 == 0:
        raise NotQuarterOdd(f"rotation {r} is not of the form (2k+1)/4")
    return -(q.numerator + 1) // 2


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        lines = [f"violation: {v}" for v in self.violations]
        lines += [f"skipped: {s}" for s in self.skipped]
        return "\n".join(lines) or "valid"


def check_dga(dga: Dga) -> ValidationReport:
    """Exhaustive validity report: degree drop, d^2 = 0, and height
    monotonicity (skipped when heights are absent)."""
    report = ValidationReport()
    if not dga.rotation_zero:
        report.violations.append(
            "rotation_zero is false: the grading is not well-defined"
        )
    images = [(g, dga.differential[g.name]) for g in dga.generators if g.name in dga.differential]
    _check_degree_drop(dga, images, report)
    _check_d_squared(dga, images, report)
    _check_heights(dga, images, report)
    return report


def _wrong_degrees(dga: Dga, image: Poly, target: int):
    """(lo, hi, wrong): bounds on the word degrees of image from its
    letters, and its words whose degree is not target as (word, degree)
    pairs; the words are walked only when the bounds are not exactly
    target.  wrong is None for a symbolic image whose bounds are not
    exactly target; each caller has its own rule for that case."""
    lo, hi = dga._letter_degree_bounds(image)
    if lo == hi == target:
        return lo, hi, []
    if not image.is_explicit:
        return lo, hi, None
    return lo, hi, [(w, d) for w in image.words() if (d := dga.word_degree(w)) != target]


def _check_degree_drop(dga: Dga, images, report: ValidationReport) -> None:
    for g, image in images:
        target = g.degree - 1
        lo, hi, wrong = _wrong_degrees(dga, image, target)
        if wrong is None and lo <= target <= hi:
            report.skipped.append(
                f"degree check on symbolic d({g.name}) only bounded to [{lo},{hi}]"
            )
        elif wrong is None:
            report.violations.append(
                f"d({g.name}): word degrees in [{lo},{hi}], expected {target}"
            )
        for w, degree in wrong or ():
            report.violations.append(
                f"d({g.name}): word {word_to_str(w)} has degree "
                f"{degree}, expected {target}"
            )


def _check_d_squared(dga: Dga, images, report: ValidationReport) -> None:
    for g, image in images:
        # letters whose own differential vanishes contribute nothing
        if image.alphabet().isdisjoint(dga.differential):
            continue
        try:
            square = _leibniz(dga, image)
        except ExpansionTooLarge:
            report.skipped.append(f"d^2 check on {g.name}: expansion too large")
            continue
        if square:
            report.violations.append(f"d(d({g.name})) != 0")


def _leibniz(dga: Dga, p: Poly) -> Poly:
    """d(p) by the Leibniz rule on the words of p, its terms added in one
    _make_sum pass: the node of the add fold, in time linear in the words."""
    return _make_sum(
        Poly.word(*w[:i]) * dc * Poly.word(*w[i + 1 :])
        for w in p.words()
        for i, c in enumerate(w)
        if (dc := dga.differential.get(c)) is not None
    )


def _check_heights(dga: Dga, images, report: ValidationReport) -> None:
    if not dga.has_heights():
        if dga.differential:
            report.skipped.append("height monotonicity: heights absent")
        return
    for g, image in images:
        try:
            words = image.words()
        except ExpansionTooLarge:
            report.skipped.append(f"height check on {g.name}: expansion too large")
            continue
        for w in words:
            total = sum(dga.generator(c).height for c in w)
            if not g.height > total:
                report.violations.append(
                    f"d({g.name}): word {word_to_str(w)} has total height "
                    f"{total}, not below {g.height}"
                )


def shrink(dga: Dga, u: Fraction) -> Dga:
    """Uniform height rescaling by u^2 (0 < u <= 1); combinatorics unchanged."""
    u = _fraction(u)
    if not 0 < u <= 1:
        raise DgaError(f"shrink factor must lie in (0, 1], got {u}")
    if not dga.has_heights():
        missing = [g.name for g in dga.generators if g.height is None]
        raise MissingHeights(f"generators without heights: {missing}")
    factor = u * u
    gens = tuple(
        Generator(g.name, g.degree, g.height * factor) for g in dga.generators
    )
    return Dga(gens, dga.differential, dga.rotation_zero)


def apply_endomorphism(dga: Dga, m: AlgebraMap) -> ValidationReport:
    """Check that m preserves the grading: every word of m(g) has deg(g).
    A symbolic image is tested for zero, which may count its words, only
    when the degree bounds of its letters are not exactly deg(g)."""
    report = ValidationReport()
    for name in sorted(m.assignments):
        target = dga.degree(name)
        image = m.assignments[name]
        lo, hi, wrong = _wrong_degrees(dga, image, target)
        if wrong is None and image:
            report.violations.append(
                f"{name} -> symbolic image with degree bounds [{lo},{hi}], "
                f"expected exactly {target}"
            )
        for w, degree in wrong or ():
            report.violations.append(
                f"{name} -> word {word_to_str(w)} of degree "
                f"{degree}, expected {target}"
            )
    return report


# -- JSON (schema dga.v1) -----------------------------------------------------


def dga_to_dict(dga: Dga) -> dict:
    gens = []
    for g in dga.generators:
        entry: dict = {"name": g.name, "degree": g.degree}
        if g.height is not None:
            entry["height"] = str(g.height)
        gens.append(entry)
    return {
        "schema": "dga.v1",
        "generators": gens,
        "differential": {
            name: poly_to_str(p) for name, p in sorted(dga.differential.items())
        },
        "rotation_zero": dga.rotation_zero,
    }


@contextmanager
def reading(data, schema: str):
    """The one reader rule: rejects `data` unless it is a JSON object
    tagged `schema` or untagged, then reports any error raised while the
    block reads it, the DGA's own checks included, as a malformed
    `schema` document."""
    if not isinstance(data, dict):
        raise DgaError(f"malformed {schema} document: not a JSON object")
    if data.get("schema", schema) != schema:
        raise DgaError(f"unsupported schema {data.get('schema')!r}")
    try:
        yield
    except KeyError as exc:
        raise DgaError(f"malformed {schema} document: missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError, AlgebraError, DgaError) as exc:
        raise DgaError(f"malformed {schema} document: {exc}") from exc


def generator_from_dict(entry: Mapping) -> Generator:
    """A generator from its dga.v1 entry: name, degree and optional height."""
    height = _fraction(entry["height"]) if "height" in entry else None
    degree = entry["degree"]
    if type(degree) is not int:  # a JSON integer, and not a boolean
        raise TypeError(f"degree {degree!r} is not an integer")
    return Generator(entry["name"], degree, height)


def dga_from_dict(data: Mapping) -> Dga:
    with reading(data, "dga.v1"):
        gens = tuple(generator_from_dict(entry) for entry in data["generators"])
        diff = {
            name: poly_from_str(text)
            for name, text in data.get("differential", {}).items()
        }
        rotation_zero = data.get("rotation_zero", True)
        if not isinstance(rotation_zero, bool):
            raise TypeError(f"rotation_zero {rotation_zero!r} is not a boolean")
        return Dga(gens, diff, rotation_zero)
