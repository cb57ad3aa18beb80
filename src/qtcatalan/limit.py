"""The limit measure mu_n exactly: its CDF, one fixed-point term per partition, and its cells.

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

cell_masses evaluates F in Python ints (numpy object arrays) at grid corners, so
each cell mass is one int / int; only this module reads the cone format.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

__all__ = ["cdf_cones", "cell_masses"]

_STRIP_CORNERS = 1 << 16  # grid corners per column strip of the corner lattice (memory)

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


def _check_grid(resolution: Sequence[int]) -> None:
    if min(resolution) < 1:
        raise ValueError("grid sizes must be positive")


def cell_masses(n: int, resolution: tuple[int, int]) -> tuple[np.ndarray, Fraction]:
    """The floats nearest the masses of mu_n on the cx x cy cells of [0, D]^2,
    D = n(n-1)/2, and the exact mass of that box.

    F is evaluated at the corners (i, k) = (D i / cx, D k / cy), in column strips of
    about _STRIP_CORNERS corners that share their edge rows.  For a cone (x0, y0, r0 =
    p/q), T1 = D i - x0 cx = cx t1 and T2 = q cx (D k - y0 cy) + p cy T1 = q cx cy t2,
    so its polynomial is an integer form in (T1, T2) over the lcm `scale` of all scaled
    coefficients: Horner in T2 where t1 >= 0 and y >= y0 - r0 (D - x0), masked by
    T2 >= 0.  A cell is the inclusion-exclusion of its corners over scale."""
    _check_grid(resolution)
    cx, cy = resolution
    d = n * (n - 1) // 2
    cones = {(x0, y0, r0): [c / (cx ** (n - 1 - e) * (r0.denominator * cx * cy) ** e)
                            for e, c in enumerate(coeffs)]
             for (x0, y0, r0), coeffs in cdf_cones(n).items()}
    scale = math.lcm(*(c.denominator for coeffs in cones.values() for c in coeffs))
    cells = np.empty(resolution)
    width = max(1, _STRIP_CORNERS // (cy + 1))
    for lo in range(0, cx, width):
        hi = min(lo + width, cx)
        rows = np.zeros((hi - lo + 1, cy + 1), dtype=object)
        for (x0, y0, r0), coeffs in cones.items():
            start = max(lo, -(-x0 * cx // d))
            k0 = max(0, math.ceil((y0 - r0 * (d - x0)) * cy / d))
            t1 = d * np.arange(start, hi + 1, dtype=np.int64)[:, None] - x0 * cx
            t2 = (r0.denominator * cx * (d * np.arange(k0, cy + 1, dtype=np.int64) - y0 * cy)
                  + r0.numerator * cy * t1)
            big1, big2 = t1.astype(object), t2.astype(object)
            ints = [int(c * scale) for c in coeffs]
            acc = ints[-1]
            for e in range(n - 2, -1, -1):
                acc = acc * big2
                if ints[e]:
                    acc = acc + ints[e] * big1 ** (n - 1 - e)
            rows[start - lo:, k0:] += np.where(t2 >= 0, acc, 0)
        block = np.diff(np.diff(rows, axis=0), axis=1).tolist()
        cells[lo:hi] = [[v / scale for v in row] for row in block]
    # the last strip ends at the corner (D, D)
    return cells, Fraction(rows[-1, -1], scale)
