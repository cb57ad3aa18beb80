"""Measures built from continuous Dyck paths.

This is the floating-point layer of the library: uniform sampling of the
area polytope, vectorized path statistics, 2D histograms of the pushforward
measures, the exact cell masses of the limit measure mu_n at every n, and
the two experiment drivers (convergence of normalized discrete measures,
and invariance of the sampling measure under the sorting transform).

Everything is seeded and byte-deterministic.  Volumes are exact rationals,
and the limit cell masses are evaluated in integers from the partition sum
of limit.py, with no float before the last division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .discrete import BudgetExceededError, catalan_number_m
from . import limit, qtpoly

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
    "limit_cell_integrals",
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
    count * (n-1)! / vol(A_n) = count * ((n-1)!)^2 / n^(n-2) exceeds
    _MAX_PROPOSALS (it grows with n, so it is built one height at a time and
    never far past the cap) or the points would hold more than
    _MAX_COORDINATES floats.
    """
    if n < 2:
        raise ValueError("sampling needs n >= 2")
    if count < 1:
        raise ValueError("count must be positive")
    if count * n > _MAX_COORDINATES:
        raise BudgetExceededError(f"sampling needs more than {_MAX_COORDINATES:,} coordinates")
    proposals = Fraction(count)  # at height 2; exact, as floats overflow for large n
    for k in range(2, n):
        if proposals > _MAX_PROPOSALS:
            break
        proposals *= Fraction(k**k, (k + 1) ** (k - 1))  # from height k to k + 1
    if proposals > _MAX_PROPOSALS:
        raise BudgetExceededError(f"sampling needs more than {_MAX_PROPOSALS:,} proposals")
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
    """Bounce vectors of rows of area coordinates, one pickup time per north
    step: the float twin of discrete._bounce_block.

    The bounce path moves east at the number of north steps taken in the
    trailing unit of time, so at time t >= b_{j-1} it stands at
    sum_{i<j} min(t - b_i, 1), the least of the lines (j - k) + sum_{i>=j-k} (t - b_i)
    for k = 0, ..., j.  It first reaches x_j = j - a_j at their largest root,
    b_j = max_{k>=1} (sum_{i>=j-k} (1 + b_i) - a_j) / k: the north-step-first
    tie rule of continuous.bounce_vector.  The line k = 0 stands at j, so x_j is
    reached only if a_j >= 0; negative, NaN and infinite coordinates are refused.
    """
    points = np.asarray(points, dtype=float)
    if not ((points >= 0) & (points < np.inf)).all():
        raise ValueError("area coordinates must be finite and nonnegative; input is outside A_n")
    count, n = points.shape
    b = np.zeros((count, n))
    for j in range(1, n):
        window = 1.0 + b[:, j - 1]  # sum_{i >= j-k} (1 + b_i), k = 1, 2, ...
        best = window - points[:, j]
        for k in range(2, j + 1):
            window += 1.0 + b[:, j - k]
            np.maximum(best, (window - points[:, j]) / k, out=best)
        b[:, j] = best
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
    """Dense 2D histogram on default_bounds(n) with half-open cells (last cell closed)."""

    n: int
    cells: np.ndarray  # weights, one per cell of the grid
    total_weight: float

    @property
    def bounds(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return default_bounds(self.n)

    @property
    def resolution(self) -> tuple[int, int]:
        return self.cells.shape

    def to_csv(self) -> str:
        # plain Python floats: numpy >= 2 spells its scalars np.float64(...)
        hi = float(self.bounds[1])
        xs, ys = (np.linspace(0.0, hi, k + 1).tolist() for k in self.resolution)
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


def _check_grid(resolution: Sequence[int]) -> None:
    if min(resolution) < 1:
        raise ValueError("grid sizes must be positive")


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
    _check_grid(resolution)
    if map_choice == "dinv-area":
        xs = batch_dinv(batch.points)
        ys = batch_area(batch.points)
    elif map_choice == "area-bounce":
        xs = batch_area(batch.points)
        ys = batch_bounce(batch.points)
    else:
        raise ValueError(f"unknown map choice {map_choice!r}")
    hi = float(default_bounds(batch.n)[1])
    cells, _, _ = np.histogram2d(xs, ys, bins=resolution, range=[[0.0, hi], [0.0, hi]])
    weight = float(polytope_volume(batch.n)) / batch.count
    cells *= weight
    return Histogram2D(n=batch.n, cells=cells, total_weight=weight * batch.count)


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
    _check_grid(resolution)
    hi = int(default_bounds(n)[1])
    cx, cy = resolution
    i = _cell_index(measure.atoms[:, 0], measure.den, hi, cx)
    j = _cell_index(measure.atoms[:, 1], measure.den, hi, cy)
    keep = (i >= 0) & (j >= 0)
    weights = np.array([c / measure.weight_den for c in measure.atoms[keep, 2].tolist()], dtype=float)
    cells = np.bincount(i[keep] * cy + j[keep], weights=weights, minlength=cx * cy)
    total = float(np.cumsum(weights)[-1]) if weights.size else 0.0  # sequential, as the cells
    return Histogram2D(n=n, cells=cells.reshape(resolution), total_weight=total)


def l1_distance(h1: Histogram2D, h2: Histogram2D) -> float:
    if (h1.n, h1.cells.shape) != (h2.n, h2.cells.shape):
        raise ValueError("histograms must share grid and bounds")
    return float(np.abs(h1.cells - h2.cells).sum())


# ---------------------------------------------------------------------------
# Exact cell masses of the limit measure.

_STRIP_CORNERS = 1 << 16  # grid corners per column strip of the corner lattice (memory)


def _limit_cdf_strips(n: int, resolution: tuple[int, int]):
    """Yield (lo, rows, scale) over strips of grid corners (i, k) = (D i / cx, D k / cy)
    of default_bounds(n), D = n(n-1)/2: rows holds scale * F, as Python ints in
    an object array, at lo <= i < lo + len(rows) and every k, where F is the
    exact CDF of limit.cdf_cones.  Consecutive strips share a row of corners.

    For a cone (x0, y0, r0 = p/q), T1 = D i - x0 cx = cx t1 and
    T2 = q cx (D k - y0 cy) + p cy T1 = q cx cy t2, so its polynomial is an
    integer form in (T1, T2) over the lcm of all scaled coefficients.  It is
    evaluated by Horner in T2 on the corner block with t1 >= 0 and
    y >= y0 - r0 (D - x0), masked by T2 >= 0.
    """
    cx, cy = resolution
    d = n * (n - 1) // 2
    cones = {(x0, y0, r0): [c / (cx ** (n - 1 - e) * (r0.denominator * cx * cy) ** e)
                            for e, c in enumerate(coeffs)]
             for (x0, y0, r0), coeffs in limit.cdf_cones(n).items()}
    scale = math.lcm(*(c.denominator for coeffs in cones.values() for c in coeffs))
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
        yield lo, rows, scale


def limit_cell_integrals(n: int, resolution: tuple[int, int]) -> Histogram2D:
    """Exact per-cell masses of the limit measure mu_n over default_bounds(n).
    Each cell is an inclusion-exclusion of the integer CDF corners divided by
    their scale, a correctly rounded int / int: the float nearest the exact mass."""
    _check_grid(resolution)
    cells = np.empty(resolution)
    for lo, rows, scale in _limit_cdf_strips(n, resolution):
        block = np.diff(np.diff(rows, axis=0), axis=1).tolist()
        cells[lo:lo + len(block)] = [[v / scale for v in row] for row in block]
    # the last strip ends at the corner (D, D)
    return Histogram2D(n=n, cells=cells, total_weight=rows[-1, -1] / scale)


def density_n4_cell_integrals(resolution: tuple[int, int] = (60, 60)) -> Histogram2D:
    """Exact per-cell masses of the height-4 limit measure over [0, 6]^2."""
    return limit_cell_integrals(4, resolution)


def density_n4_total_integral() -> Fraction:
    """Exact mass of the height-4 limit measure on its support box [0, 6]^2."""
    _, rows, scale = next(_limit_cdf_strips(4, (1, 1)))
    return Fraction(rows[-1, -1], scale)


# ---------------------------------------------------------------------------
# Experiment drivers.


def convergence_report(
    n: int,
    m_list: Sequence[int],
    resolution: tuple[int, int] = (60, 60),
    budget: int | None = None,
) -> dict:
    """L1 distance of binned normalized discrete measures to the exact cell
    masses of the limit measure, for each m, plus the exact total-weight
    sequence."""
    if not m_list:
        raise ValueError("m_list must be nonempty")
    _check_grid(resolution)
    for m in m_list:
        qtpoly._check_terms(n, m, budget)
    if n == 1:
        distances = [0.0 for _ in m_list]
    else:
        reference = limit_cell_integrals(n, resolution)
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
    Raises BudgetExceededError, before drawing, when a histogram would hold
    more than _MAX_COORDINATES cells; resolution^(n-1) >= 2^(n-1) decides
    that at once past n - 1 > _MAX_COORDINATES.bit_length().
    """
    _check_grid((resolution,))
    if resolution > 1 and (n - 1 > _MAX_COORDINATES.bit_length()
                           or resolution ** (n - 1) > _MAX_COORDINATES):
        raise BudgetExceededError(f"the check needs more than {_MAX_COORDINATES:,} histogram cells")
    seq = np.random.SeedSequence(seed)
    rng_direct, rng_transported = (np.random.default_rng(s) for s in seq.spawn(2))
    direct = sample_area_polytope(n, count, rng_direct)
    source = sample_area_polytope(n, count, rng_transported)
    transported = batch_transform_T(source.points)

    edges = [np.linspace(0.0, float(i), resolution + 1) for i in range(1, n)]
    c_direct, _ = np.histogramdd(direct.points[:, 1:], bins=edges)
    c_trans, _ = np.histogramdd(transported[:, 1:], bins=edges)
    pooled = c_direct + c_trans
    occupied = pooled > 0
    z = np.zeros_like(c_direct)
    z[occupied] = (c_direct - c_trans)[occupied] / np.sqrt(pooled[occupied])
    vol = polytope_volume(n)
    weight = float(vol) / count
    aggregate_l1 = float(np.abs(c_direct - c_trans).sum()) * weight
    mean, var = _null_l1_moments(pooled)
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
