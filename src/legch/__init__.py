"""Exact symbolic calculator for Chekanov-Eliashberg DGAs of Legendrian
knots in standard position: torus-knot builders, connected sums, Reidemeister
holonomy composition, and the tau-parity monodromy obstruction."""

from .algebra import (
    AlgebraMap,
    ExpansionTooLarge,
    Poly,
    add,
    compose,
    mul,
    poly_from_str,
    poly_to_str,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraMap",
    "ExpansionTooLarge",
    "Poly",
    "add",
    "compose",
    "mul",
    "poly_from_str",
    "poly_to_str",
    "__version__",
]
