"""Graded differential algebra container and its validity checks.

A Dga holds graded generators (with an optional positive height each), a
differential given as explicit polynomial data, and a rotation_zero flag.
Validation checks that the differential drops degree by one, squares to
zero, and decreases height; violations are collected into a report rather
than raised, so corpora can be triaged in one pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .algebra import (
    AlgebraError,
    AlgebraMap,
    ExpansionTooLarge,
    Poly,
    add,
    check_name,
    poly_from_str,
    poly_to_str,
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


@dataclass(frozen=True)
class Dga:
    generators: tuple[Generator, ...]
    differential: dict[str, Poly]
    rotation_zero: bool = True

    def __post_init__(self):
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise DgaError("duplicate generator names")
        declared = set(names)
        for name in self.differential:
            if name not in declared:
                raise UnknownGenerator(f"differential given for undeclared {name!r}")

    @property
    def names(self) -> frozenset[str]:
        return frozenset(g.name for g in self.generators)

    def generator(self, name: str) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise UnknownGenerator(name)

    def degree(self, name: str) -> int:
        return self.generator(name).degree

    def d(self, name: str) -> Poly:
        if name not in self.names:
            raise UnknownGenerator(name)
        return self.differential.get(name, Poly.zero())

    def has_heights(self) -> bool:
        return all(g.height is not None for g in self.generators)

    def word_degree(self, word: Iterable[str]) -> int:
        return sum(self.degree(c) for c in word)

    def word_degree_bounds(self, p: Poly) -> tuple[int, int]:
        """Bounds on the total degree of words of p (exact on explicit sets)."""
        degs = {g.name: g.degree for g in self.generators}
        # A symbolic alphabet is a superset: a letter that cancelled out of
        # every word contributes nothing.
        for c in p.alphabet():
            if c not in degs and p.max_count(c) > 0:
                raise UnknownGenerator(c)
        if p.is_explicit:
            ws = p.words()
            if not ws:
                return (0, 0)
            vals = [sum(degs[c] for c in w) for w in ws]
            return (min(vals), max(vals))
        lo = hi = 0
        nonzero = [c for c in p.alphabet() if degs.get(c, 0) != 0]
        for c in nonzero:
            clo, chi = p.count_bounds(c)
            d = degs[c]
            if d > 0:
                lo += clo * d
                hi += chi * d
            else:
                lo += chi * d
                hi += clo * d
        return (lo, hi)


def degree_from_rotation(r: Fraction) -> int:
    """Degree of a crossing from its capping-path rotation number.

    The rotation takes quarter-odd values (2k+1)/4; the degree is the
    integer -2r - 1/2.
    """
    r = Fraction(r)
    if (4 * r) % 2 == 0:
        raise NotQuarterOdd(f"rotation {r} is not of the form (2k+1)/4")
    value = -2 * r - Fraction(1, 2)
    assert value.denominator == 1
    return int(value)


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
    """Exhaustive validity report: declaredness, degree drop, d^2 = 0,
    and height monotonicity (skipped when heights are absent)."""
    report = ValidationReport()
    declared = dga.names
    if not dga.rotation_zero:
        report.violations.append(
            "rotation_zero is false: the grading is not well-defined"
        )
    for name, image in dga.differential.items():
        extra = image.alphabet() - declared
        if extra:
            report.violations.append(
                f"d({name}) mentions undeclared generators {sorted(extra)}"
            )
    _check_degree_drop(dga, report)
    _check_d_squared(dga, report)
    _check_heights(dga, report)
    return report


def _check_degree_drop(dga: Dga, report: ValidationReport) -> None:
    for g in dga.generators:
        image = dga.differential.get(g.name)
        if image is None or not image:
            continue
        if image.alphabet() - dga.names:
            continue
        target = g.degree - 1
        try:
            lo, hi = dga.word_degree_bounds(image)
        except UnknownGenerator:
            continue
        if lo == hi == target:
            continue
        if image.is_explicit:
            for w in image.words():
                if dga.word_degree(w) != target:
                    report.violations.append(
                        f"d({g.name}): word {' '.join(w) or '1'} has degree "
                        f"{dga.word_degree(w)}, expected {target}"
                    )
        elif not (lo <= target <= hi):
            report.violations.append(
                f"d({g.name}): word degrees in [{lo},{hi}], expected {target}"
            )
        else:
            report.skipped.append(
                f"degree check on symbolic d({g.name}) only bounded to [{lo},{hi}]"
            )


def _check_d_squared(dga: Dga, report: ValidationReport) -> None:
    for g in dga.generators:
        image = dga.differential.get(g.name)
        if image is None or not image:
            continue
        if image.alphabet() - dga.names:
            continue
        # letters whose own differential vanishes contribute nothing
        if all(not dga.differential.get(c, Poly.zero()) for c in image.alphabet()):
            continue
        try:
            square = _leibniz(dga, image)
        except ExpansionTooLarge:
            report.skipped.append(f"d^2 check on {g.name}: expansion too large")
            continue
        if square:
            report.violations.append(f"d(d({g.name})) != 0")


def _leibniz(dga: Dga, p: Poly) -> Poly:
    acc = Poly.zero()
    for w in p.words():
        for i, c in enumerate(w):
            dc = dga.differential.get(c)
            if not dc:
                continue
            term = Poly.word(*w[:i]) * dc * Poly.word(*w[i + 1 :])
            acc = add(acc, term)
    return acc


def _check_heights(dga: Dga, report: ValidationReport) -> None:
    heights = {g.name: g.height for g in dga.generators}
    if any(h is None for h in heights.values()):
        if any(dga.differential.get(g.name) for g in dga.generators):
            report.skipped.append("height monotonicity: heights absent")
        return
    for g in dga.generators:
        image = dga.differential.get(g.name)
        if image is None or not image:
            continue
        if image.alphabet() - dga.names:
            continue
        try:
            words = image.words()
        except ExpansionTooLarge:
            report.skipped.append(f"height check on {g.name}: expansion too large")
            continue
        for w in words:
            total = sum((heights[c] for c in w), Fraction(0))
            if not heights[g.name] > total:
                report.violations.append(
                    f"d({g.name}): word {' '.join(w) or '1'} has total height "
                    f"{total}, not below {heights[g.name]}"
                )


def shrink(dga: Dga, u: Fraction) -> Dga:
    """Uniform height rescaling by u^2 (0 < u <= 1); combinatorics unchanged."""
    u = Fraction(u)
    if not 0 < u <= 1:
        raise DgaError(f"shrink factor must lie in (0, 1], got {u}")
    if not dga.has_heights():
        missing = [g.name for g in dga.generators if g.height is None]
        raise MissingHeights(f"generators without heights: {missing}")
    factor = u * u
    gens = tuple(
        Generator(g.name, g.degree, g.height * factor) for g in dga.generators
    )
    return Dga(gens, dict(dga.differential), dga.rotation_zero)


@dataclass
class DegreeReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def apply_endomorphism(dga: Dga, m: AlgebraMap) -> DegreeReport:
    """Check that m preserves the grading: every word of m(g) has deg(g)."""
    report = DegreeReport()
    for name in sorted(m.assignments):
        if name not in dga.names:
            raise UnknownGenerator(name)
        image = m.assignments[name]
        if not image:
            continue
        target = dga.degree(name)
        lo, hi = dga.word_degree_bounds(image)
        if lo == hi == target:
            continue
        if image.is_explicit:
            for w in image.words():
                if dga.word_degree(w) != target:
                    report.violations.append(
                        f"{name} -> word {' '.join(w) or '1'} of degree "
                        f"{dga.word_degree(w)}, expected {target}"
                    )
        else:
            report.violations.append(
                f"{name} -> symbolic image with degree bounds [{lo},{hi}], "
                f"expected exactly {target}"
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
            name: poly_to_str(p) for name, p in sorted(dga.differential.items()) if p
        },
        "rotation_zero": dga.rotation_zero,
    }


def dga_from_dict(data: Mapping) -> Dga:
    if data.get("schema", "dga.v1") != "dga.v1":
        raise DgaError(f"unsupported schema {data.get('schema')!r}")
    try:
        gens = tuple(
            Generator(
                entry["name"],
                int(entry["degree"]),
                Fraction(entry["height"]) if "height" in entry else None,
            )
            for entry in data["generators"]
        )
        diff = {
            name: poly_from_str(text)
            for name, text in data.get("differential", {}).items()
        }
    except (KeyError, TypeError, ValueError, AlgebraError) as exc:
        raise DgaError(f"malformed dga.v1 document: {exc}") from exc
    return Dga(gens, diff, bool(data.get("rotation_zero", True)))


def dga_to_json(dga: Dga) -> str:
    return json.dumps(dga_to_dict(dga), sort_keys=True, separators=(",", ": "), indent=1)
