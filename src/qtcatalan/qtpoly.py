"""Sparse q,t-polynomials with exact integer coefficients.

The two combinatorial generating polynomials over m-Dyck paths live here,
together with the conversion of a polynomial into a normalized discrete
measure on the plane (atom at (i/m, j/m) with weight coeff / m^(n-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .discrete import (BudgetExceededError, _area_vector_blocks, _bounce_block, _check_size,
                       _dinv_block, catalan_number_m)

__all__ = [
    "QtPolynomial",
    "DiscreteMeasure",
    "qt_catalan_dinv_area",
    "qt_catalan_area_bounce",
    "transpose",
    "to_normalized_measure",
]

_MAX_TERMS = 2**20  # most terms, and most table cells or path keys _count_pairs holds (8 MiB)


@dataclass(frozen=True, eq=False)
class QtPolynomial:
    """Sparse bivariate polynomial as read-only int64 rows (q-exponent, t-exponent, coeff), sorted
    t-major then q, repeated exponent pairs merged, then zeros dropped: equal means equal arrays."""

    terms: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.terms, dtype=np.int64).reshape(-1, 3)
        rows = rows[np.lexsort((rows[:, 0], rows[:, 1]))]
        first = np.ones(len(rows), dtype=bool)  # the first row of each exponent pair
        first[1:] = (rows[1:, 0] != rows[:-1, 0]) | (rows[1:, 1] != rows[:-1, 1])
        rows[first, 2] = np.add.reduceat(rows[:, 2], np.flatnonzero(first))
        rows = rows[first & (rows[:, 2] != 0)]
        rows.flags.writeable = False
        object.__setattr__(self, "terms", rows)

    def __eq__(self, other):
        return isinstance(other, QtPolynomial) and np.array_equal(self.terms, other.terms)

    @property
    def coeffs(self) -> dict[tuple[int, int], int]:
        """{(q, t): c}, built from terms on each read."""
        return {(i, j): c for i, j, c in self.terms.tolist()}

    def evaluate(self, q: int | Fraction, t: int | Fraction):
        return sum(c * q**i * t**j for i, j, c in self.terms.tolist())

    def to_json_dict(self, n: int, m: int) -> dict:
        return {
            "n": n,
            "m": m,
            "terms": [{"q": i, "t": j, "c": str(c)} for i, j, c in self.terms.tolist()],
        }

    def to_csv(self) -> str:
        return "q,t,coeff\n" + "".join(f"{i},{j},{c}\n" for i, j, c in self.terms.tolist())


@dataclass(frozen=True)
class DiscreteMeasure:
    """Point masses given by integers: one row (i, j, c) of ``atoms`` puts
    weight c / weight_den at (i / den, j / den)."""

    atoms: np.ndarray  # int64, shape (k, 3)
    den: int
    weight_den: int

    def total_weight(self) -> Fraction:
        return Fraction(sum(self.atoms[:, 2].tolist()), self.weight_den)


def _count_pairs(
    n: int,
    m: int,
    budget: int | None,
    stats: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> QtPolynomial:
    """Sum of q^x t^y over all area vectors of (n, m), for (x, y) = stats(block).

    _check_terms refuses first, and its answer picks the counter, so memory
    stays within _MAX_TERMS int64s: one (D + 1)^2 table when it fits, or else
    the key y (D + 1) + x of each of the at most _MAX_TERMS paths, counted
    once by np.unique.  Keys ascend, so the terms come out t-major then q.
    """
    width = m * n * (n - 1) // 2 + 1  # every statistic lies in [0, D]
    if _check_terms(n, m, budget):
        table = np.zeros(width * width, dtype=np.int64)
        for block in _area_vector_blocks(n, m):
            x, y = stats(block)
            np.add.at(table, y * width + x, 1)
        keys = np.flatnonzero(table)
        counts = table[keys]
    else:
        keys = np.concatenate([y * width + x for x, y in map(stats, _area_vector_blocks(n, m))])
        keys, counts = np.unique(keys, return_counts=True)
    t, q = divmod(keys, width)
    return QtPolynomial(np.column_stack((q, t, counts)))


def _check_terms(n: int, m: int, budget: int | None) -> bool:
    """_check_size, then refuse (BudgetExceededError) more than _MAX_TERMS terms:
    at most one per path, and at most (D + 1)^2, as every dinv, area and bounce
    lies in [0, D], D = m n (n - 1) / 2.  The paths are counted at most once,
    and not when 2^(n-1) <= C^(m)_n decides.  Return True when the (D + 1)^2
    table of every pair fits in _MAX_TERMS cells, False when the paths do."""
    paths = _check_size(n, m, budget)
    if (m * n * (n - 1) // 2 + 1) ** 2 <= _MAX_TERMS:
        return True
    if paths is None and n - 1 <= _MAX_TERMS.bit_length():
        paths = catalan_number_m(n, m)
    if paths is None or paths > _MAX_TERMS:
        raise BudgetExceededError(
            f"term cap exceeded: C^(m)_n may have more than 2^{_MAX_TERMS.bit_length() - 1} terms"
        )
    return False


def qt_catalan_dinv_area(n: int, m: int, budget: int | None = None) -> QtPolynomial:
    """Sum of q^dinv(D) t^area(D) over all m-Dyck paths of height n."""
    return _count_pairs(n, m, budget, lambda b: (_dinv_block(b, m), b.sum(axis=1)))


def qt_catalan_area_bounce(n: int, m: int, budget: int | None = None) -> QtPolynomial:
    """Sum of q^area(D) t^bounce(D) over all m-Dyck paths of height n."""
    return _count_pairs(n, m, budget, lambda b: (b.sum(axis=1), _bounce_block(b, m)))


def transpose(p: QtPolynomial) -> QtPolynomial:
    return QtPolynomial(p.terms[:, [1, 0, 2]])


def to_normalized_measure(p: QtPolynomial, n: int, m: int) -> DiscreteMeasure:
    """Atoms at (i/m, j/m) with weight coeff / m^(n-1): the terms themselves."""
    return DiscreteMeasure(p.terms, den=m, weight_den=m ** (n - 1))
