"""Measures built from continuous Dyck paths.

This is the floating-point layer of the library: uniform sampling of the
area polytope, vectorized path statistics, 2D histograms of the pushforward
measures, the exact piecewise-linear density for height 4, and the two
experiment drivers (convergence of normalized discrete measures, and
invariance of the sampling measure under the sorting transform).

Everything is seeded and byte-deterministic; exact rational arithmetic is
used for volumes and the height-4 density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .discrete import BudgetExceededError, _check_size, catalan_number_m
from . import qtpoly

__all__ = [
    "SampleBatch",
    "Histogram2D",
    "polytope_volume",
    "sample_area_polytope",
    "batch_area",
    "batch_dinv",
    "batch_bounce_vector",
    "batch_bounce",
    "batch_transform_T",
    "pushforward_histogram",
    "bin_discrete_measure",
    "l1_distance",
    "exact_density_n4",
    "density_n4_cell_integrals",
    "density_n4_total_integral",
    "convergence_report",
    "measure_preservation_check",
]

MapChoice = Literal["dinv-area", "area-bounce"]

_BLOCK_ROWS = 1 << 14  # proposals per rejection round
_MAX_PROPOSALS = 10**10  # expected proposals allowed per sample_area_polytope call
_MAX_COORDINATES = 5 * 10**7  # count * n allowed per sample_area_polytope call (memory)


def polytope_volume(n: int) -> Fraction:
    """Volume of the area polytope as a full-dimensional polytope: n^(n-2)/(n-1)!."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return Fraction(1)
    return Fraction(n ** (n - 2), math.factorial(n - 1))


@dataclass(frozen=True)
class SampleBatch:
    """Uniform samples of the area polytope, with rejection bookkeeping."""

    n: int
    points: np.ndarray  # shape (count, n), first column identically 0
    proposed: int
    accepted: int

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def acceptance_ratio(self) -> float:
        return self.accepted / self.proposed


def _accept_mask(block: np.ndarray) -> np.ndarray:
    """Rows of a (k, c) block with a_{i+1} <= a_i + 1 for every pair of
    consecutive columns.

    The sampler passes the free coordinates a_1, ..., a_{n-1}; criterion 9
    passes zero-prefixed full rows (a_0 = 0, a_1, ...), whose extra test
    a_1 <= 1 holds for every proposal, so both layouts give the same mask.
    """
    ok = np.ones(block.shape[0], dtype=bool)
    for i in range(block.shape[1] - 1):
        ok &= block[:, i + 1] <= block[:, i] + 1
    return ok


def sample_area_polytope(n: int, count: int, seed: int | np.random.Generator) -> SampleBatch:
    """Rejection-sample uniform points of the area polytope.

    Proposals are uniform in the box prod_i [0, i] for the free coordinates
    a_1, ..., a_{n-1} (a_i <= i holds on the polytope by induction), so the
    acceptance ratio estimates vol(A_n) / (n-1)!.  Blocks of _BLOCK_ROWS
    proposals are drawn in order from one stream, so the points do not depend
    on the block size; ``proposed`` and ``accepted`` count whole blocks.
    One (_BLOCK_ROWS, n-1) block is refilled each round by ``rng.random``,
    which gives the same doubles and leaves the same generator state as
    ``uniform(0.0, 1.0)`` (that computes 0.0 + 1.0 * x), and accepted rows
    are copied straight into the preallocated points.
    ``seed`` is an int or a Generator, which is drawn from as given.  Raises
    BudgetExceededError, before drawing, when the expected proposal count
    count * (n-1)! / vol(A_n) exceeds _MAX_PROPOSALS or the points would
    hold more than _MAX_COORDINATES floats.
    """
    if n < 2:
        raise ValueError("sampling needs n >= 2")
    if count < 1:
        raise ValueError("count must be positive")
    if count * n > _MAX_COORDINATES:
        raise BudgetExceededError(
            f"{count} samples at n={n} need more than {_MAX_COORDINATES:,} coordinates"
        )
    # exact: the float ratio overflows for large n
    if count * math.factorial(n - 1) > _MAX_PROPOSALS * polytope_volume(n):
        raise BudgetExceededError(
            f"{count} samples at n={n} need more than {_MAX_PROPOSALS:,} proposals"
        )
    rng = np.random.default_rng(seed)
    highs = np.arange(1, n, dtype=float)
    block = np.empty((_BLOCK_ROWS, n - 1))  # free coordinates, refilled each round
    points = np.zeros((count, n))
    accepted = 0
    proposed = 0
    while accepted < count:
        rng.random(out=block)
        block *= highs
        good = block[_accept_mask(block)]
        take = min(good.shape[0], count - accepted)
        points[accepted:accepted + take, 1:] = good[:take]
        proposed += _BLOCK_ROWS
        accepted += good.shape[0]
    return SampleBatch(n=n, points=points, proposed=proposed, accepted=accepted)


def batch_area(points: np.ndarray) -> np.ndarray:
    return points.sum(axis=1)


def batch_dinv(points: np.ndarray) -> np.ndarray:
    n = points.shape[1]
    out = np.zeros(points.shape[0])
    for i in range(n):
        for j in range(i + 1, n):
            out += np.maximum(1.0 - np.abs(points[:, i] - points[:, j]), 0.0)
    return out


def batch_bounce_vector(points: np.ndarray) -> np.ndarray:
    """Vectorized bounce vector (float), by inverting the identity

        a_j = sum_{i<j} sc(b_j - b_i) = sum_{i<j} max(1 + b_i - b_j, 0)

    that area_vector_from_bounce and batch_transform_T evaluate.  The right
    side is nonincreasing and piecewise linear in b_j, so b_1, ..., b_{n-1}
    are solved in turn.  On the piece where the last k earlier coordinates
    contribute, the root is (sum_{i >= j-k} (1 + b_i) - a_j) / k, valid when
    b_{j-k-1} + 1 <= root <= b_{j-k} + 1.  Taking the smallest valid root
    matches the north-step-first tie rule of continuous.bounce_vector.
    """
    points = np.asarray(points, dtype=float)
    count, n = points.shape
    b = np.zeros((count, n))
    for j in range(1, n):
        root = np.full(count, np.inf)
        window = np.zeros(count)
        for k in range(1, j + 1):
            window += 1.0 + b[:, j - k]
            cand = (window - points[:, j]) / k
            ok = cand <= b[:, j - k] + (1.0 + 1e-12)
            if k < j:
                ok &= cand >= b[:, j - k - 1] + (1.0 - 1e-12)
            root = np.where(ok, np.minimum(root, cand), root)
        if not np.isfinite(root).all():
            raise ValueError("no bounce vector solves the area identity; input is outside A_n")
        b[:, j] = root
    return b


def batch_bounce(points: np.ndarray) -> np.ndarray:
    return batch_bounce_vector(points).sum(axis=1)


def batch_transform_T(points: np.ndarray) -> np.ndarray:
    """Vectorized sorting transform: sorted area vector reinterpreted as a
    bounce vector, converted back to area coordinates."""
    b = np.sort(np.asarray(points, dtype=float), axis=1)
    count, n = b.shape
    out = np.zeros((count, n))
    for j in range(1, n):
        out[:, j] = np.maximum(1.0 - (b[:, j : j + 1] - b[:, :j]), 0.0).sum(axis=1)
    return out


@dataclass(frozen=True)
class Histogram2D:
    """Dense 2D histogram with half-open cells (last cell closed)."""

    bounds: tuple[Fraction, Fraction, Fraction, Fraction]  # x_lo, x_hi, y_lo, y_hi
    resolution: tuple[int, int]
    cells: np.ndarray  # shape resolution, weights
    total_weight: float

    def cell_edges(self) -> tuple[np.ndarray, np.ndarray]:
        x_lo, x_hi, y_lo, y_hi = (float(v) for v in self.bounds)
        return (
            np.linspace(x_lo, x_hi, self.resolution[0] + 1),
            np.linspace(y_lo, y_hi, self.resolution[1] + 1),
        )

    def to_csv(self) -> str:
        # plain Python floats: numpy >= 2 spells its scalars np.float64(...)
        xs, ys = (edges.tolist() for edges in self.cell_edges())
        cells = self.cells.tolist()
        lines = ["x_lo,x_hi,y_lo,y_hi,weight"]
        for i in range(self.resolution[0]):
            for j in range(self.resolution[1]):
                lines.append(f"{xs[i]!r},{xs[i + 1]!r},{ys[j]!r},{ys[j + 1]!r},{cells[i][j]!r}")
        return "\n".join(lines) + "\n"

    def transpose_deviation(self) -> float:
        """L1 distance between the histogram and its reflection across y = x."""
        if self.resolution[0] != self.resolution[1]:
            raise ValueError("transpose deviation needs a square grid")
        return float(np.abs(self.cells - self.cells.T).sum())


def default_bounds(n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Support box [0, n(n-1)/2]^2 from the staircase maximum of the statistics."""
    hi = Fraction(n * (n - 1), 2)
    return (Fraction(0), hi, Fraction(0), hi)


def pushforward_histogram(
    batch: SampleBatch,
    map_choice: MapChoice,
    resolution: tuple[int, int] = (60, 60),
) -> Histogram2D:
    """Histogram the image of a sample batch on default_bounds(n); each sample
    carries weight vol(A_n) / count so the total weight is the polytope volume."""
    if map_choice == "dinv-area":
        xs = batch_dinv(batch.points)
        ys = batch_area(batch.points)
    elif map_choice == "area-bounce":
        xs = batch_area(batch.points)
        ys = batch_bounce(batch.points)
    else:
        raise ValueError(f"unknown map choice {map_choice!r}")
    bounds = default_bounds(batch.n)
    hi = float(bounds[1])
    cells, _, _ = np.histogram2d(xs, ys, bins=resolution, range=[[0.0, hi], [0.0, hi]])
    weight = float(polytope_volume(batch.n)) / batch.count
    cells *= weight
    return Histogram2D(
        bounds=bounds,
        resolution=resolution,
        cells=cells,
        total_weight=weight * batch.count,
    )


def _cell_index(num: np.ndarray, den: int, hi: int, cells: int) -> np.ndarray:
    """Cell of each int64 coordinate num/den on [0, hi] cut into ``cells``
    equal cells, half-open except the last; -1 outside."""
    top = den * hi
    if max(int(np.abs(num).max(initial=0)), top) * cells >= 2**62:
        raise ValueError("atom coordinates too large for int64 cell indices")
    inside = (num >= 0) & (num <= top)
    return np.where(inside, np.minimum(num * cells // top, cells - 1), -1)


def bin_discrete_measure(
    measure: qtpoly.DiscreteMeasure,
    resolution: tuple[int, int],
    n: int,
) -> Histogram2D:
    """Bin the atoms onto the grid over default_bounds(n) with exact integer
    cell indices.

    Cells are half-open on the right except the last cell, which is closed, so
    atoms on the outer boundary are retained.  Each weight is the float
    nearest c / weight_den, and the weights are summed in atom order.
    """
    hi = int(default_bounds(n)[1])
    cx, cy = resolution
    i = _cell_index(measure.atoms[:, 0], measure.den, hi, cx)
    j = _cell_index(measure.atoms[:, 1], measure.den, hi, cy)
    keep = (i >= 0) & (j >= 0)
    weights = np.array([c / measure.weight_den for c in measure.atoms[keep, 2].tolist()], dtype=float)
    cells = np.bincount(i[keep] * cy + j[keep], weights=weights, minlength=cx * cy)
    total = float(np.cumsum(weights)[-1]) if weights.size else 0.0  # sequential, as the cells
    return Histogram2D(bounds=default_bounds(n), resolution=resolution,
                       cells=cells.reshape(resolution), total_weight=total)


def l1_distance(h1: Histogram2D, h2: Histogram2D) -> float:
    if h1.resolution != h2.resolution or h1.bounds != h2.bounds:
        raise ValueError("histograms must share grid and bounds")
    return float(np.abs(h1.cells - h2.cells).sum())


# ---------------------------------------------------------------------------
# Exact density for height 4.
#
# The support is the quadrilateral with corners (6,0), (3,1), (1,3), (0,6)
# (the lower boundary runs along x + y = 4), subdivided by the chords from
# (6,0) and (0,6) to (2,2) into three triangles carrying linear pieces.  The
# piecewise-linear function vanishing on the outer boundary with kinks only
# on those chords is determined up to scale; the scale is fixed by the total
# mass vol(A_4) = 8/3, giving the pieces below.

_DENSITY_N4_TRIANGLES: list[tuple[list[tuple[Fraction, Fraction]], tuple[Fraction, Fraction, Fraction]]] = [
    # vertices, coefficients (alpha, beta, gamma) of f = alpha*x + beta*y + gamma
    (
        [(Fraction(0), Fraction(6)), (Fraction(1), Fraction(3)), (Fraction(2), Fraction(2))],
        (Fraction(3, 2), Fraction(1, 2), Fraction(-3)),
    ),
    (
        [(Fraction(6), Fraction(0)), (Fraction(2), Fraction(2)), (Fraction(0), Fraction(6))],
        (Fraction(-1, 2), Fraction(-1, 2), Fraction(3)),
    ),
    (
        [(Fraction(6), Fraction(0)), (Fraction(3), Fraction(1)), (Fraction(2), Fraction(2))],
        (Fraction(1, 2), Fraction(3, 2), Fraction(-3)),
    ),
]


def _inward_edges(
    tri: list[tuple[Fraction, Fraction]],
) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Coefficients (A, B, C) of the three edge lines A*x + B*y + C of a
    triangle, signed so that the closed triangle is where all three are >= 0."""
    (x0, y0), (x1, y1), (x2, y2) = tri
    sign = 1 if (x1 - x0) * (y2 - y0) > (x2 - x0) * (y1 - y0) else -1
    return [(sign * (ay - by), sign * (bx - ax), sign * (ax * by - ay * bx))
            for (ax, ay), (bx, by) in zip(tri, tri[1:] + tri[:1])]


_DENSITY_N4_EDGES = [_inward_edges(tri) for tri, _ in _DENSITY_N4_TRIANGLES]


def exact_density_n4(x: float, y: float) -> float:
    """Density of the height-4 pushforward measure at (x, y), from the first
    closed triangle of _DENSITY_N4_TRIANGLES that holds the exact value of
    the point.  Only the lower support edge x + y = 4, where the density
    jumps, depends on the closed convention.
    """
    X, Y = Fraction(x), Fraction(y)
    for (_, (alpha, beta, gamma)), edges in zip(_DENSITY_N4_TRIANGLES, _DENSITY_N4_EDGES):
        if all(a * X + b * Y + c >= 0 for a, b, c in edges):
            return float(alpha * X + beta * Y + gamma)
    return 0.0


def _clip_polygon(
    poly: list[tuple[Fraction, Fraction]],
    axis: int,
    lo: Fraction,
    hi: Fraction,
) -> list[tuple[Fraction, Fraction]]:
    """Sutherland-Hodgman clip of a convex polygon to lo <= coord[axis] <= hi."""
    for bound, keep_ge in ((lo, True), (hi, False)):
        if not poly:
            return []
        out: list[tuple[Fraction, Fraction]] = []
        for k in range(len(poly)):
            cur, nxt = poly[k], poly[(k + 1) % len(poly)]
            cur_in = cur[axis] >= bound if keep_ge else cur[axis] <= bound
            nxt_in = nxt[axis] >= bound if keep_ge else nxt[axis] <= bound
            if cur_in:
                out.append(cur)
            if cur_in != nxt_in:
                frac = (bound - cur[axis]) / (nxt[axis] - cur[axis])
                pt = (
                    cur[0] + frac * (nxt[0] - cur[0]),
                    cur[1] + frac * (nxt[1] - cur[1]),
                )
                out.append(pt)
        poly = out
    return poly


def _integrate_linear_over_polygon(
    poly: list[tuple[Fraction, Fraction]],
    coeffs: tuple[Fraction, Fraction, Fraction],
) -> Fraction:
    """Exact integral of alpha*x + beta*y + gamma over a convex polygon."""
    alpha, beta, gamma = coeffs
    total = Fraction(0)
    for k in range(1, len(poly) - 1):
        (x0, y0), (x1, y1), (x2, y2) = poly[0], poly[k], poly[k + 1]
        twice_area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        area = abs(twice_area) / 2
        cx = (x0 + x1 + x2) / 3
        cy = (y0 + y1 + y2) / 3
        total += area * (alpha * cx + beta * cy + gamma)
    return total


def density_n4_total_integral() -> Fraction:
    """Exact integral of the height-4 density over the plane."""
    return sum(
        (_integrate_linear_over_polygon(tri, coeffs) for tri, coeffs in _DENSITY_N4_TRIANGLES),
        start=Fraction(0),
    )


def _all_corners(mask: np.ndarray) -> np.ndarray:
    """Cells of a corner lattice whose four corners are all set in mask."""
    return mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]


def density_n4_cell_integrals(resolution: tuple[int, int] = (60, 60)) -> Histogram2D:
    """Exact per-cell integrals of the height-4 density over default_bounds(4)
    = [0, 6]^2, as a histogram.

    Scaled by cx * cy, grid corner (i, j) is the integer point
    (6 * cy * i, 6 * cx * j), so each triangle's inward edge lines are
    evaluated at every grid corner in int64.  A cell whose four corners lie in
    the closed triangle lies in it, so its integral is its area times the
    density at its centre.  A cell whose four corners lie on the outer side of
    one edge meets the triangle in at most a segment, which carries no mass.
    Only the cells left, those an edge crosses (or that only an axis
    separates from the triangle), are clipped.  Each cell weight is the float
    nearest its exact integral, added triangle by triangle; the total is
    summed exactly.
    """
    cx, cy = resolution
    dx, dy = Fraction(6, cx), Fraction(6, cy)
    xs = 6 * cy * np.arange(cx + 1, dtype=np.int64)[:, None]
    ys = 6 * cx * np.arange(cy + 1, dtype=np.int64)[None, :]
    mid_x = xs[:-1] + xs[1:]  # twice the scaled cell centres
    mid_y = ys[:, :-1] + ys[:, 1:]
    cells = np.zeros(resolution)
    total = Fraction(0)
    for (tri, coeffs), edges in zip(_DENSITY_N4_TRIANGLES, _DENSITY_N4_EDGES):
        sides = [int(a) * xs + int(b) * ys + int(c) * cx * cy for a, b, c in edges]
        interior = np.logical_and.reduce([_all_corners(side >= 0) for side in sides])
        disjoint = np.logical_or.reduce([_all_corners(side <= 0) for side in sides])
        # interior cells: area * f(centre) = 36 * num / den, with f(centre) = num / (2 g cx cy)
        g = math.lcm(*(v.denominator for v in coeffs))
        alpha, beta, gamma = (int(v * g) for v in coeffs)
        num = alpha * mid_x + beta * mid_y + 2 * gamma * cx * cy
        den = 2 * g * (cx * cy) ** 2
        inner = num[interior].tolist()
        cells[interior] += [36 * v / den for v in inner]  # int / int is correctly rounded, as float(Fraction)
        total += Fraction(36 * sum(inner), den)
        # the cells an edge crosses, clipped one column at a time
        crossed = ~interior & ~disjoint
        for i in np.flatnonzero(crossed.any(axis=1)).tolist():
            col = _clip_polygon(tri, 0, i * dx, (i + 1) * dx)
            if not col:
                continue
            for j in np.flatnonzero(crossed[i]).tolist():
                cell_poly = _clip_polygon(col, 1, j * dy, (j + 1) * dy)
                if len(cell_poly) >= 3:
                    val = _integrate_linear_over_polygon(cell_poly, coeffs)
                    cells[i, j] += float(val)
                    total += val
    return Histogram2D(
        bounds=default_bounds(4),
        resolution=resolution,
        cells=cells,
        total_weight=float(total),
    )


# ---------------------------------------------------------------------------
# Experiment drivers.


def convergence_report(
    n: int,
    m_list: Sequence[int],
    resolution: tuple[int, int] = (60, 60),
    mc_count: int = 1_000_000,
    seed: int = 0,
    budget: int | None = None,
) -> dict:
    """L1 distance of binned normalized discrete measures to the continuous
    pushforward, for each m, plus the exact total-weight sequence."""
    if not m_list:
        raise ValueError("m_list must be nonempty")
    for m in m_list:
        _check_size(n, m, budget)
    if n == 1:
        distances = [0.0 for _ in m_list]
    else:
        if n == 4:
            reference = density_n4_cell_integrals(resolution)
        else:
            batch = sample_area_polytope(n, mc_count, seed)
            reference = pushforward_histogram(batch, "dinv-area", resolution)
        distances = []
        for m in m_list:
            # looked up on the module, so that a wrapper installed there sees the calls
            poly = qtpoly.qt_catalan_dinv_area(n, m, budget=budget)
            mu = qtpoly.to_normalized_measure(poly, n, m)
            binned = bin_discrete_measure(mu, resolution, n)
            distances.append(l1_distance(binned, reference))
    total_weights = [Fraction(catalan_number_m(n, m), m ** (n - 1)) for m in m_list]
    return {
        "n": n,
        "m_list": list(m_list),
        "seed": seed,
        "grid": list(resolution),
        "distances": distances,
        "total_weights": [str(w) for w in total_weights],
        "limit_weight": str(polytope_volume(n)),
    }


def measure_preservation_check(
    n: int,
    count: int = 1_000_000,
    seed: int = 0,
    resolution: int = 10,
) -> dict:
    """Empirical invariance of the uniform measure under the sorting
    transform.

    Two independent substreams are drawn from the seed; one batch is pushed
    through the transform, and both are histogrammed over the bounding box of
    the polytope in area coordinates.  Per-cell z-scores use the two-sample
    binomial noise floor sqrt(c1 + c2).  The L1 budget is the null mean of
    the aggregate L1 plus five null standard deviations (_null_l1_moments).
    """
    seq = np.random.SeedSequence(seed)
    rng_direct, rng_transported = (np.random.default_rng(s) for s in seq.spawn(2))
    direct = sample_area_polytope(n, count, rng_direct)
    source = sample_area_polytope(n, count, rng_transported)
    transported = batch_transform_T(source.points)

    edges = [np.linspace(0.0, float(i), resolution + 1) for i in range(1, n)]
    c_direct, _ = np.histogramdd(direct.points[:, 1:], bins=edges)
    c_trans, _ = np.histogramdd(transported[:, 1:], bins=edges)
    occupied = (c_direct + c_trans) > 0
    z = np.zeros_like(c_direct)
    z[occupied] = (c_direct[occupied] - c_trans[occupied]) / np.sqrt(
        c_direct[occupied] + c_trans[occupied]
    )
    vol = polytope_volume(n)
    weight = float(vol) / count
    aggregate_l1 = float(np.abs(c_direct - c_trans).sum()) * weight
    mean, var = _null_l1_moments(c_direct + c_trans)
    l1_budget = (mean + 5.0 * math.sqrt(var)) * weight
    return {
        "n": n,
        "count": count,
        "seed": seed,
        "resolution": resolution,
        "volume": str(vol),
        "aggregate_l1": aggregate_l1,
        "l1_budget": l1_budget,
        "max_abs_z": float(np.abs(z).max()),
        "frac_cells_z_gt3": float((np.abs(z) > 3).sum() / max(occupied.sum(), 1)),
        "ok": aggregate_l1 <= l1_budget,
    }


def _null_l1_moments(pooled: np.ndarray) -> tuple[float, float]:
    """Mean and variance of sum |c1 - c2| over cells when each cell's pooled
    count s splits as Binomial(s, 1/2), as it does when both batches share
    one law: with h = ceil(s/2), E|c1 - c2| = 2h C(s, h) / 2^s exactly, and
    the variance is s - E^2."""
    mean = var = 0.0
    values, cells = np.unique(pooled.astype(np.int64), return_counts=True)
    for s, k in zip(values.tolist(), cells.tolist()):
        if s == 0:
            continue
        h = (s + 1) // 2
        e = 2 * h * math.exp(math.lgamma(s + 1) - math.lgamma(h + 1) - math.lgamma(s - h + 1)
                             - s * math.log(2))
        mean += k * e
        var += k * (s - e * e)
    return mean, var
