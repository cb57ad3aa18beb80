"""Exact terms of the limit measure mu_n, one fixed-point term per partition.

mu_n is a Duistermaat-Heckman measure (the paper's geometric theorem), so its
Laplace transform sums over the partitions mu of n, the torus-fixed monomial
ideals, in the fixed-point form of Garsia-Haiman (1996):

    int e^(-(s x + u y)) dmu_n = sum_mu e^(-(s n(mu') + u n(mu))) R_mu(s, u),
    R_mu = n s u prod_{c != (0,0)} (i u + j s) / prod_c ((l+1) u - a s) ((a+1) s - l u),

over the cells c = (i, j) of mu (row i, column j) with arm a and leg l, where
n(mu) = sum_c i and n(mu') = sum_c j.  R_mu / (s u) transforms the CDF
F(x, y) = mu_n([0, x] x [0, y]).  In r = s / u it is a proper fraction over
u^(n+1) with poles r0 = (l+1)/a and l/(a+1), all >= 0, and each partial-fraction
term A / ((s - r0 u)^j u^(n+1-j)) transforms the cone function
A t1^(j-1) t2^(n-j) / ((j-1)! (n-j)!) on t1 = x - n(mu') >= 0 and
t2 = y - n(mu) + r0 t1 >= 0.  All terms converge on s > max(r0) u > 0.
Pure int and Fraction arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterator

__all__ = ["cdf_cones"]

Cone = tuple[int, int, Fraction]  # (x0, y0, r0) = (n(mu'), n(mu), pole)


def _partitions(n: int, most: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts of at most `most`, as nonincreasing row lengths."""
    if n == 0:
        yield ()
    for first in range(min(n, most), 0, -1):
        for tail in _partitions(n - first, first):
            yield (first,) + tail


def _arms_legs(mu: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
    """(i, j, arm, leg) for every cell of the partition mu, row by row from (0, 0)."""
    cols = [sum(1 for row in mu if row > j) for j in range(mu[0])]
    return [(i, j, row - j - 1, cols[j] - i - 1) for i, row in enumerate(mu) for j in range(row)]


def _series(factors: list[tuple[Fraction, Fraction]], order: int) -> list[Fraction]:
    """First `order` Taylor coefficients in h of the product of the c0 + c1 h."""
    out = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for c0, c1 in factors:
        out = [c0 * out[0]] + [c0 * out[k] + c1 * out[k - 1] for k in range(1, order)]
    return out


def cdf_cones(n: int) -> dict[Cone, list[Fraction]]:
    """The CDF of mu_n as F(x, y) = sum over cones (x0, y0, r0) of
    [t1 >= 0 and t2 >= 0] * sum_e c_e t1^(n-1-e) t2^e, with t1 = x - x0 and
    t2 = y - y0 + r0 t1; the lists hold c_0, ..., c_(n-1).
    """
    if n < 2:
        raise ValueError("the limit measure needs n >= 2")
    cones: dict[Cone, list[Fraction]] = {}
    for mu in _partitions(n, n):
        cells = _arms_legs(mu)
        x0, y0 = sum(c[1] for c in cells), sum(c[0] for c in cells)
        # R_mu / (s u) = N(r) / (lead * prod_roots (r - root) * u^(n+1)), N(r) = n prod (i + j r)
        lead, roots = 1, Counter()
        for _, _, a, l in cells:
            if a:
                roots[Fraction(l + 1, a)] += 1
            lead *= (-a if a else l + 1) * (a + 1)
            roots[Fraction(l, a + 1)] += 1
        for r0, mult in roots.items():
            # Taylor series at r0 of prod (i + j r) / prod_(roots other than r0) (r - root),
            # over every cell but the first, (0, 0)
            num = _series([(i + j * r0, Fraction(j)) for i, j, _, _ in cells[1:]], mult)
            den = _series([(r0 - rho, Fraction(1)) for rho, k in roots.items() if rho != r0
                           for _ in range(k)], mult)
            g: list[Fraction] = []
            for k in range(mult):
                g.append((num[k] - sum(den[t] * g[k - t] for t in range(1, k + 1))) / den[0])
            for j in range(1, mult + 1):  # the coefficient A of (r - r0)^-j is g[mult - j]
                if g[mult - j]:
                    coeffs = cones.setdefault((x0, y0, r0), [Fraction(0)] * n)
                    coeffs[n - j] += n * g[mult - j] / (lead * math.factorial(j - 1) * math.factorial(n - j))
    return cones
