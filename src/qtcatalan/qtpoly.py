"""Sparse q,t-polynomials with exact integer coefficients.

The two combinatorial generating polynomials over m-Dyck paths live here,
together with the conversion of a polynomial into a normalized discrete
measure on the plane (atom at (i/m, j/m) with weight coeff / m^(n-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .discrete import _bounce_stat, _check_size, _dinv_vector, _enumerate_area_vectors

__all__ = [
    "QtPolynomial",
    "DiscreteMeasure",
    "qt_catalan_dinv_area",
    "qt_catalan_area_bounce",
    "transpose",
    "to_normalized_measure",
]


@dataclass(frozen=True)
class QtPolynomial:
    """Sparse bivariate polynomial keyed by (q-exponent, t-exponent)."""

    coeffs: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        pruned = {k: int(c) for k, c in self.coeffs.items() if c != 0}
        object.__setattr__(self, "coeffs", pruned)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QtPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def evaluate(self, q: int | Fraction, t: int | Fraction):
        return sum(c * q**i * t**j for (i, j), c in self.coeffs.items())

    def canonical_terms(self) -> list[tuple[int, int, int]]:
        """Terms as (q, t, coeff), sorted t-major then q."""
        return [(i, j, self.coeffs[(i, j)]) for j, i in sorted((j, i) for i, j in self.coeffs)]

    def to_json_dict(self, n: int, m: int) -> dict:
        return {
            "n": n,
            "m": m,
            "terms": [{"q": i, "t": j, "c": str(c)} for i, j, c in self.canonical_terms()],
        }

    def to_csv(self) -> str:
        lines = ["q,t,coeff"]
        lines += [f"{i},{j},{c}" for i, j, c in self.canonical_terms()]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point masses on the plane, with exact rational data."""

    atoms: tuple[tuple[tuple[Fraction, Fraction], Fraction], ...]

    def total_weight(self) -> Fraction:
        return sum((w for _, w in self.atoms), start=Fraction(0))


def _accumulate(pairs: Iterable[tuple[int, int]]) -> QtPolynomial:
    coeffs: dict[tuple[int, int], int] = {}
    for key in pairs:
        coeffs[key] = coeffs.get(key, 0) + 1
    return QtPolynomial(coeffs)


def qt_catalan_dinv_area(n: int, m: int, budget: int | None = None) -> QtPolynomial:
    """Sum of q^dinv(D) t^area(D) over all m-Dyck paths of height n."""
    _check_size(n, m, budget)
    return _accumulate(
        (_dinv_vector(av, m), sum(av)) for av in _enumerate_area_vectors(n, m)
    )


def qt_catalan_area_bounce(n: int, m: int, budget: int | None = None) -> QtPolynomial:
    """Sum of q^area(D) t^bounce(D) over all m-Dyck paths of height n."""
    _check_size(n, m, budget)
    return _accumulate(
        (sum(av), _bounce_stat(av, m)) for av in _enumerate_area_vectors(n, m)
    )


def transpose(p: QtPolynomial) -> QtPolynomial:
    return QtPolynomial({(j, i): c for (i, j), c in p.coeffs.items()})


def to_normalized_measure(p: QtPolynomial, n: int, m: int) -> DiscreteMeasure:
    """Scale supports by 1/m and weights by 1/m^(n-1)."""
    scale = Fraction(1, m ** (n - 1))
    atoms = tuple(
        ((Fraction(i, m), Fraction(j, m)), c * scale)
        for i, j, c in p.canonical_terms()
    )
    return DiscreteMeasure(atoms)
