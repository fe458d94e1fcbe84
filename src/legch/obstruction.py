"""The tau-parity nontriviality certificate for loop monodromies.

For a marker generator g of degree 0, the certificate checks that
tau_g(d(c)) is even for every degree-1 generator c.  When it holds, an odd
value of tau_g(mu(witness) + witness) certifies that the monodromy mu acts
nontrivially on degree-0 homology; an even value is inconclusive (the
obstruction is one-directional).
"""

from __future__ import annotations

from typing import Literal, Sequence

from .algebra import AlgebraMap, Poly, add, compose
from .dga import Dga, DgaError, Record
from .builders import Tangle, connect_sum, torus_tangle
from .moves import kalman_monodromy


class ObstructionError(DgaError):
    pass


class NotDegreeZeroMarker(ObstructionError):
    pass


class BadSummand(ObstructionError):
    pass


class CertificateReport(Record):
    __slots__ = _fields = ("values",)

    def __init__(self, values: dict[str, int]):
        object.__setattr__(self, "values", values)

    def __str__(self) -> str:
        return ", ".join(f"tau(d({c})) = {v}" for c, v in sorted(self.values.items()))


def tau_parity_certificate(dga: Dga, marker: str) -> tuple[bool, CertificateReport]:
    """True iff tau_marker(d(c)) is even for every degree-1 generator c."""
    if dga.degree(marker) != 0:
        raise NotDegreeZeroMarker(
            f"marker {marker!r} has degree {dga.degree(marker)}"
        )
    values = {
        g.name: dga.d(g.name).tau(marker)
        for g in dga.generators
        if g.degree == 1
    }
    ok = all(v % 2 == 0 for v in values.values())
    return ok, CertificateReport(values)


class Verdict(Record):
    _fields = ("witness", "marker", "tau_value", "certificate_ok")
    __slots__ = _fields + ("image",)  # image: mu(witness), neither compared nor shown

    def __init__(
        self, witness: str, marker: str, tau_value: int, certificate_ok: bool, image: Poly
    ):
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "marker", marker)
        object.__setattr__(self, "tau_value", tau_value)
        object.__setattr__(self, "certificate_ok", certificate_ok)
        object.__setattr__(self, "image", image)

    @property
    def conclusion(self) -> Literal["nontrivial", "inconclusive"]:
        if self.certificate_ok and self.tau_value % 2 == 1:
            return "nontrivial"
        return "inconclusive"


def verdict(dga: Dga, mu: AlgebraMap, witness: str, marker: str) -> Verdict:
    """Evaluate tau_marker(mu(witness) + witness) against the certificate."""
    if dga.degree(witness) != 0:
        raise NotDegreeZeroMarker(f"witness {witness!r} has degree {dga.degree(witness)}")
    ok, _ = tau_parity_certificate(dga, marker)
    image = mu(witness)
    value = add(image, Poly.gen(witness)).tau(marker)
    return Verdict(witness, marker, value, ok, image)


def _fly_tangles(summands: Sequence[int]) -> list[Tangle]:
    tangles = []
    for i, n in enumerate(summands, start=1):
        if n % 2 == 0 or n % 3 == 2 or n < 3:
            raise BadSummand(
                f"summand {n} is not an odd torus parameter with n mod 3 != 2"
            )
        tangles.append(torus_tangle(n, f"k{i}"))
    return tangles


def family_dga(summands: Sequence[int]) -> tuple[Dga, Poly]:
    """The connected sum fly # K_{3,2} with the trefoil unprefixed, plus
    the fly's associated word (the product of the summand words)."""
    tangles = _fly_tangles(summands)
    fly_word = Poly.one()
    for t in tangles:
        fly_word = fly_word * t.word
    trefoil = torus_tangle(3, "")
    return connect_sum(tangles + [trefoil]), fly_word


def family_verdicts(
    summands: Sequence[int],
    powers: Sequence[int],
    witness: str = "b3",
    marker: str = "b3",
) -> dict[int, Verdict]:
    """Verdicts for the Kalman loop raised to each power j, acting on the
    connected sum of the K_{n,2} summand tangles with a trefoil.  The
    smallest power is built by kalman_monodromy, which checks j and the fly;
    each later power is the one-pass map composed onto the power before."""
    dga, fly_word = family_dga(summands)
    out = {}
    built = 0  # the power mu holds
    for j in sorted(set(powers)):
        if not built:
            mu = kalman_monodromy(fly_word, j)
            one_pass = mu if j == 1 else kalman_monodromy(fly_word, 1)
        else:
            for _ in range(j - built):
                mu = compose(one_pass, mu)
        built = j
        out[j] = verdict(dga, mu, witness, marker)
    return out
