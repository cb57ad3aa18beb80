"""Sparse q,t-polynomials with exact integer coefficients.

The two combinatorial generating polynomials over m-Dyck paths live here,
together with the conversion of a polynomial into a normalized discrete
measure on the plane (atom at (i/m, j/m) with weight coeff / m^(n-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

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

_MAX_TERMS = 2**20  # most terms a polynomial may have (bounds the memory of its dict)


@dataclass(frozen=True)
class QtPolynomial:
    """Sparse bivariate polynomial keyed by (q-exponent, t-exponent)."""

    coeffs: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        pruned = {k: int(c) for k, c in self.coeffs.items() if c != 0}
        object.__setattr__(self, "coeffs", pruned)

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
    """Point masses given by integers: one row (i, j, c) of ``atoms`` puts
    weight c / weight_den at (i / den, j / den)."""

    atoms: np.ndarray  # int64, shape (k, 3)
    den: int
    weight_den: int

    def total_weight(self) -> Fraction:
        return Fraction(sum(self.atoms[:, 2].tolist()), self.weight_den)


def _merge(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys with their summed counts, in int64."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(counts[order], starts)


def _count_pairs(
    n: int,
    m: int,
    stats: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> QtPolynomial:
    """Sum of q^x t^y over all area vectors of (n, m), for (x, y) = stats(block).

    Each block is counted by _merge.  The block counts wait in a list and
    are merged into the running totals once they hold more entries than
    the totals, so memory follows the number of distinct (x, y), never a
    dense table of every possible pair.
    """
    width = m * n * n  # each statistic is below m * n^2
    totals = (np.zeros(0, dtype=np.int64),) * 2
    pending: list[tuple[np.ndarray, np.ndarray]] = []
    size = 0
    for block in _area_vector_blocks(n, m):
        x, y = stats(block)
        pending.append(_merge(x * width + y, np.ones(len(block), dtype=np.int64)))
        size += len(pending[-1][0])
        if size > len(totals[0]):
            totals = _merge(*(np.concatenate(parts) for parts in zip(totals, *pending)))
            pending, size = [], 0
    keys, counts = _merge(*(np.concatenate(parts) for parts in zip(totals, *pending)))
    q, t = divmod(keys, width)
    return QtPolynomial(dict(zip(zip(q.tolist(), t.tolist()), counts.tolist())))


def _check_terms(n: int, m: int, budget: int | None) -> None:
    """_check_size, then refuse (BudgetExceededError) more than _MAX_TERMS terms:
    at most one per path, and at most (D + 1)^2, as every dinv, area and bounce
    lies in [0, D], D = m n (n - 1) / 2."""
    _check_size(n, m, budget)
    most = min(catalan_number_m(n, m), (m * n * (n - 1) // 2 + 1) ** 2)
    if most > _MAX_TERMS:
        raise BudgetExceededError(f"(n={n}, m={m}) may have {most} terms, cap is {_MAX_TERMS}")


def qt_catalan_dinv_area(n: int, m: int, budget: int | None = None) -> QtPolynomial:
    """Sum of q^dinv(D) t^area(D) over all m-Dyck paths of height n."""
    _check_terms(n, m, budget)
    return _count_pairs(n, m, lambda b: (_dinv_block(b, m), b.sum(axis=1)))


def qt_catalan_area_bounce(n: int, m: int, budget: int | None = None) -> QtPolynomial:
    """Sum of q^area(D) t^bounce(D) over all m-Dyck paths of height n."""
    _check_terms(n, m, budget)
    return _count_pairs(n, m, lambda b: (b.sum(axis=1), _bounce_block(b, m)))


def transpose(p: QtPolynomial) -> QtPolynomial:
    return QtPolynomial({(j, i): c for (i, j), c in p.coeffs.items()})


def to_normalized_measure(p: QtPolynomial, n: int, m: int) -> DiscreteMeasure:
    """Atoms at (i/m, j/m) with weight coeff / m^(n-1), in canonical order."""
    atoms = np.array(p.canonical_terms(), dtype=np.int64).reshape(-1, 3)
    return DiscreteMeasure(atoms, den=m, weight_den=m ** (n - 1))
