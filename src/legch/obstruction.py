"""The tau-parity nontriviality certificate for loop monodromies.

For a marker generator g of degree 0, the certificate checks that
tau_g(d(c)) is even for every degree-1 generator c.  When it holds, an odd
value of tau_g(mu(witness) + witness) certifies that the monodromy mu acts
nontrivially on degree-0 homology; an even value is inconclusive (the
obstruction is one-directional).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

from .algebra import AlgebraMap, Poly, add
from .dga import Dga, DgaError
from .builders import Tangle, connect_sum, torus_tangle
from .moves import kalman_monodromy


class ObstructionError(DgaError):
    pass


class NotDegreeZeroMarker(ObstructionError):
    pass


class BadSummand(ObstructionError):
    pass


@dataclass
class CertificateReport:
    values: dict[str, int]

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


@dataclass(frozen=True)
class Verdict:
    witness: str
    marker: str
    tau_value: int
    certificate_ok: bool
    image: Poly = field(compare=False, repr=False)  # mu(witness)

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
    connected sum of the K_{n,2} summand tangles with a trefoil."""
    dga, fly_word = family_dga(summands)
    out = {}
    for j in sorted(set(powers)):
        mu = kalman_monodromy(fly_word, j)
        out[j] = verdict(dga, mu, witness, marker)
    return out
