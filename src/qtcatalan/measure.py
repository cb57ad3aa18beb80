"""Measures built from continuous Dyck paths.

This is the floating-point layer of the library: uniform sampling of the
area polytope, vectorized path statistics, 2D histograms of the pushforward
and discrete measures, and the two experiment drivers (convergence of
normalized discrete measures to limit.cell_masses, and invariance of the
sampling measure under the sorting transform).

Everything is seeded and byte-deterministic.  Volumes are exact rationals,
and a binned discrete cell is its int64 coefficient sum divided once.

SampleStream picks its sampler by n.  For n <= 6 it rejects uniform points
of the box prod_i [0, i], which keeps at least 9 % of them.  For n >= 7,
where rejection would need ((n-1)!)^2 / n^(n-2) proposals per point (97 at
n = 8), it maps a uniform point of [0, n)^(n-1) onto A_n: sorted, A_n is the
union of the unit cubes over the parking functions of length n - 1, and by
Pollak's cyclic lemma exactly one cyclic shift of each point lands there
(Foata-Riordan 1974; Stanley-Pitman 2002), so every draw is kept.  The
two are different streams of one law: for a fixed seed, the n >= 7 points,
and so the `measure` and `preserve` outputs, are not those rejection draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from typing import Iterator, Literal, Sequence

import numpy as np

from .discrete import BudgetExceededError, catalan_number_m
from . import limit, qtpoly
from .limit import _check_grid

__all__ = [
    "SampleStream",
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
_KERNEL_ROWS = 1 << 12  # points per block of the float kernels (fits in cache)
_PARKING_FROM_N = 7  # SampleStream parks from here up, and rejects below
_MAX_PROPOSALS = 10**10  # expected proposals allowed per SampleStream
_MAX_BLOCK_COORDINATES = 1 << 21  # floats in one SampleStream block, 16 MiB (memory)
_MAX_COORDINATES = 5 * 10**7  # points held by sample_area_polytope, cells by preserve (memory)


def polytope_volume(n: int) -> Fraction:
    """Volume of the area polytope as a full-dimensional polytope: n^(n-2)/(n-1)!."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return Fraction(1)
    return Fraction(n ** (n - 2), math.factorial(n - 1))


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


def _park(y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Write into a, and return it, the free coordinates a_1, ..., a_{n-1} of
    the points of A_n that the rows of y, each uniform in [0, n)^(n-1), map
    to; y is sorted in place, row by row.

    With x_i = i - a_i, A_n is {0 <= x_1 <= ... <= x_{n-1}, x_i <= i}: up to a
    null set, the sorted points of the unit cubes p + [0, 1)^(n-1) over the
    parking functions p of length n - 1.  By Pollak's cyclic lemma exactly one
    shift c in Z_n of a point of Z_n^(n-1) is a parking function (Foata-Riordan
    1974; Stanley-Pitman 2002), so y + c mod n, sorted, is uniform on that set.
    On a sorted row (0-based j) the shift subtracts f = floor(y_j*), at the
    first j* that minimises j - floor(y_j), from y_j*, ..., y_{n-2} and adds
    n - f to the ones before; a row whose minimum is not negative already
    parks, c = 0.  Each a_i = i - x_i is then an integer minus one y_j, with
    one rounding, so a row is the float nearest its exact image.
    """
    rows, width = y.shape
    y.sort(axis=1)
    np.subtract(np.arange(width), np.floor(y), out=a)  # j - floor(y_j)
    start = np.where(a.min(axis=1) < 0, a.argmin(axis=1), 0)
    cols = start[:, None] + np.arange(width)
    wrapped = cols >= width
    cols -= width * wrapped
    # a_{k+1} = (k + 1 + f - n [wrapped]) - y_{cols_k}: an exact integer minus one y,
    # built in place, so that a block holds few temporaries
    np.multiply(wrapped, -(width + 1), out=a)
    a += np.arange(1, width + 1)
    a += np.floor(y[np.arange(rows), start])[:, None]
    a -= np.take_along_axis(y, cols, axis=1)
    return a


class SampleStream:
    """Uniform points of the area polytope A_n, one block at a time: memory
    does not grow with the count.  Two samplers, chosen by n alone:

    - n <= 6, rejection.  Proposals are uniform in the box prod_i [0, i] for
      the free coordinates a_1, ..., a_{n-1} (a_i <= i holds on the polytope
      by induction), and the acceptance ratio, at least 0.09, estimates
      vol(A_n) / (n-1)!.  Rounds of _BLOCK_ROWS proposals, refilled by
      ``rng.random`` (the doubles and generator state of ``uniform(0.0,
      1.0)``), are drawn in order from one stream, so the rows do not depend
      on the round size; ``proposed`` and ``accepted`` count the whole rounds
      drawn so far.
    - n >= 7, where rejection keeps fewer than 1 proposal in 30, parking: each
      block draws its rows' n - 1 doubles with one ``rng.random`` call, scales
      them by n and maps them onto A_n by the cyclic lemma (_park).  Every row
      drawn is kept, so ``proposed == accepted`` and the acceptance ratio is 1.
      The rows do not depend on the block size either.

    The split is where parking starts to win.  Draining 10^6 points takes
    0.09 s by rejection and 0.26 s by parking at n = 4, 0.38 s either way at
    n = 6, and 1.16 s against 0.32 s at n = 7 (2-vCPU x86-64 VM).

    ``seed`` is an int or a Generator, drawn from as given.  Raises
    BudgetExceededError at construction, before drawing, when one block of
    _KERNEL_ROWS rows would pass _MAX_BLOCK_COORDINATES floats (so n <= 512,
    where vol(A_n) is still a float; it overflows from n = 721), or when the
    expected proposal count, count * ((n-1)!)^2 / n^(n-2) for rejection
    (at most 11.1 per point) and count for parking, passes _MAX_PROPOSALS.
    """

    def __init__(self, n: int, count: int, seed: int | np.random.Generator) -> None:
        if n < 2:
            raise ValueError("sampling needs n >= 2")
        if count < 1:
            raise ValueError("count must be positive")
        if _KERNEL_ROWS * n > _MAX_BLOCK_COORDINATES:
            raise BudgetExceededError(
                f"sampling needs more than {_MAX_BLOCK_COORDINATES:,} coordinates per block")
        # proposals per point: (n-1)! / vol(A_n) = ((n-1)!)^2 / n^(n-2) by rejection, 1 by parking
        num, den = (math.factorial(n - 1) ** 2, n ** (n - 2)) if n < _PARKING_FROM_N else (1, 1)
        if count * num > _MAX_PROPOSALS * den:
            raise BudgetExceededError(f"sampling needs more than {_MAX_PROPOSALS:,} proposals")
        self.n, self.count, self.proposed, self.accepted = n, count, 0, 0
        self._rng = np.random.default_rng(seed)

    @property
    def acceptance_ratio(self) -> float:
        return self.accepted / self.proposed

    def blocks(self) -> Iterator[np.ndarray]:
        """Yield the accepted zero-prefixed rows in stream order, _KERNEL_ROWS at a
        time and then the rest, in one staging buffer that the next block reuses.
        A stream is read once: a drawn stream raises ValueError at the first block."""
        if self.proposed:
            raise ValueError("this SampleStream has already been drawn from; build a new one")
        staged = np.zeros((_KERNEL_ROWS, self.n))  # first column stays 0
        if self.n >= _PARKING_FROM_N:
            y = np.empty((_KERNEL_ROWS, self.n - 1))
            while self.accepted < self.count:
                take = min(_KERNEL_ROWS, self.count - self.accepted)
                self._rng.random(out=y[:take])
                y[:take] *= self.n
                _park(y[:take], staged[:take, 1:])
                self.proposed = self.accepted = self.accepted + take
                yield staged[:take]
            return
        highs = np.arange(1, self.n, dtype=float)
        block = np.empty((_BLOCK_ROWS, self.n - 1))  # free coordinates, refilled each round
        filled = 0
        while self.accepted < self.count:
            self._rng.random(out=block)
            block *= highs
            good = block[_accept_mask(block)]
            good, self.accepted = good[:self.count - self.accepted], self.accepted + good.shape[0]
            self.proposed += _BLOCK_ROWS
            while good.shape[0]:
                take = min(good.shape[0], _KERNEL_ROWS - filled)
                staged[filled:filled + take, 1:], good = good[:take], good[take:]
                filled = (filled + take) % _KERNEL_ROWS
                if not filled:
                    yield staged
        if filled:
            yield staged[:filled]


def sample_area_polytope(n: int, count: int, seed: int | np.random.Generator) -> np.ndarray:
    """The (count, n) points of SampleStream(n, count, seed) in one array.  Raises
    BudgetExceededError, before drawing, past _MAX_COORDINATES floats, or as SampleStream does."""
    if n >= 2 and count * n > _MAX_COORDINATES:
        raise BudgetExceededError(f"sampling needs more than {_MAX_COORDINATES:,} coordinates")
    stream = SampleStream(n, count, seed)
    points = np.empty((count, n))
    for i, rows in enumerate(stream.blocks()):
        points[i * _KERNEL_ROWS:(i + 1) * _KERNEL_ROWS] = rows
    return points


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
    """Bounce vectors of rows of area coordinates: the max-of-lines recurrence
    of continuous.bounce_vector in floats, the twin of discrete._bounce_block.

    Negative, NaN and infinite coordinates are refused, and so is a row with
    a_{i+1} > a_i + 1, whose vector would fall outside B_n.  A row that
    _accept_mask refuses may still rise one float above 1, as the nearest
    floats to a row of A_n can: float(5/3) > float(2/3) + 1.
    """
    points = np.asarray(points, dtype=float)
    steep = points[~_accept_mask(points)]
    if not (((points >= 0) & (points < np.inf)).all()
            and (np.nextafter(steep[:, 1:], 0.0) <= steep[:, :-1] + 1.0).all()):
        raise ValueError("area coordinates must be finite, nonnegative and rise by at most 1;"
                         " input is outside A_n")
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
        xs, ys = ([f"{lo!r},{up!r}" for lo, up in pairwise(np.linspace(0.0, hi, k + 1).tolist())]
                  for k in self.resolution)  # each cell's "lo,hi", formatted once per grid
        lines = ["x_lo,x_hi,y_lo,y_hi,weight"]
        for x, row in zip(xs, self.cells.tolist()):
            lines.extend(f"{x},{y},{w!r}" for y, w in zip(ys, row))
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
    stream: SampleStream,
    map_choice: MapChoice,
    resolution: tuple[int, int] = (60, 60),
) -> Histogram2D:
    """Histogram the image of a sample stream on default_bounds(n); each sample
    carries weight vol(A_n) / count so the total weight is the polytope volume.

    One pass over stream.blocks(): the batch kernels score each block row by
    row, and _add_counts adds it to one int64 count per cell.  The cells,
    count * weight, are those of np.histogram2d on the whole statistic arrays
    of the stream's points, bit for bit: half-open, with the last one closed.
    """
    _check_grid(resolution)
    if map_choice not in ("dinv-area", "area-bounce"):
        raise ValueError(f"unknown map choice {map_choice!r}")
    hi = float(default_bounds(stream.n)[1])
    counts = np.zeros(resolution[0] * resolution[1], dtype=np.int64)
    for rows in stream.blocks():
        # module globals, so that a wrapper installed there sees the calls
        xs, ys = ((batch_dinv(rows), batch_area(rows)) if map_choice == "dinv-area"
                  else (batch_area(rows), batch_bounce(rows)))
        _add_counts(counts, (xs, ys), (hi, hi), resolution)
    weight = float(polytope_volume(stream.n)) / stream.count
    cells = counts.reshape(resolution).astype(float) * weight
    return Histogram2D(n=stream.n, cells=cells, total_weight=weight * stream.count)


def _cell_index(num: np.ndarray, den: int, hi: int, cells: int) -> np.ndarray:
    """Cell of each int64 coordinate num/den on [0, hi] cut into ``cells``
    equal cells, half-open except the last; -1 outside."""
    top = den * hi
    if max(int(np.abs(num).max(initial=0)), top) * cells >= 2**62:
        raise ValueError("atom coordinates too large for int64 cell indices")
    inside = (num >= 0) & (num <= top)
    return np.where(inside, np.minimum(num * cells // top, cells - 1), -1)


def _float_cell_index(v: np.ndarray, hi: float, cells: int) -> np.ndarray:
    """Cell of each float v on [0, hi] cut at np.linspace(0, hi, cells + 1),
    half-open except the last; -1 outside and for NaN.

    The guess floor(v * cells / hi) is at most one cell off the edge search
    np.searchsorted(edges, v, "right") - 1 that np.histogramdd makes, and one
    step each way against the edges makes it equal; v == hi joins the last cell.
    """
    edges = np.linspace(0.0, hi, cells + 1)
    i = np.minimum(np.fmax(np.floor(v * (cells / hi)), 0.0), cells - 1).astype(np.intp)
    i -= v < edges[i]
    i += v >= edges[i + 1]
    return np.where((v >= 0.0) & (v <= hi), np.minimum(i, cells - 1), -1)


def _add_counts(counts: np.ndarray, columns, his, cells) -> None:
    """Add one to the flat C-order cell of each row whose every coordinate
    (columns[d], on [0, his[d]] cut into cells[d]) is inside its range."""
    flat, keep = 0, True
    for v, hi, k in zip(columns, his, cells):
        i = _float_cell_index(v, hi, k)
        flat, keep = flat * k + i, keep & (i >= 0)
    np.add.at(counts, flat[keep], 1)


def bin_discrete_measure(measure: qtpoly.DiscreteMeasure, resolution: tuple[int, int],
                         n: int) -> Histogram2D:
    """Bin the atoms onto the grid over default_bounds(n) with exact integer
    cell indices, half-open except the last, closed cell, which keeps the atoms
    on the outer boundary.  The coefficients are added per cell in int64, and
    each cell and the total is one int / int: the float nearest its exact mass.
    Raises ValueError, before adding, when the sum could pass int64."""
    _check_grid(resolution)
    hi = int(default_bounds(n)[1])
    cx, cy = resolution
    i = _cell_index(measure.atoms[:, 0], measure.den, hi, cx)
    j = _cell_index(measure.atoms[:, 1], measure.den, hi, cy)
    keep = (i >= 0) & (j >= 0)
    c = measure.atoms[keep, 2]
    if int(np.abs(c).max(initial=0)) * c.size >= 2**63:
        raise ValueError("atom coefficients too large for int64 cell sums")
    sums = np.zeros(cx * cy, dtype=np.int64)
    np.add.at(sums, i[keep] * cy + j[keep], c)
    cells = np.array([s / measure.weight_den for s in sums.tolist()]).reshape(resolution)
    return Histogram2D(n=n, cells=cells, total_weight=int(sums.sum()) / measure.weight_den)


def l1_distance(h1: Histogram2D, h2: Histogram2D) -> float:
    if (h1.n, h1.cells.shape) != (h2.n, h2.cells.shape):
        raise ValueError("histograms must share grid and bounds")
    return float(np.abs(h1.cells - h2.cells).sum())


def limit_cell_integrals(n: int, resolution: tuple[int, int]) -> Histogram2D:
    """The exact cell masses of the limit measure mu_n, limit.cell_masses, as a Histogram2D."""
    cells, total = limit.cell_masses(n, resolution)
    return Histogram2D(n=n, cells=cells, total_weight=float(total))


def density_n4_cell_integrals(resolution: tuple[int, int] = (60, 60)) -> Histogram2D:
    """Exact per-cell masses of the height-4 limit measure over [0, 6]^2."""
    return limit_cell_integrals(4, resolution)


def density_n4_total_integral() -> Fraction:
    """Exact mass of the height-4 limit measure on its support box [0, 6]^2."""
    return limit.cell_masses(4, (1, 1))[1]


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

    Two independent SampleStreams are drawn from the seed and read side by
    side, block by block, so no points are held; one is pushed through the
    transform, and both are counted by _add_counts on the bounding box of the
    polytope in the free area coordinates.  Per-cell z-scores use the two-sample
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
    direct, source = SampleStream(n, count, rng_direct), SampleStream(n, count, rng_transported)
    his, cells = [float(i) for i in range(1, n)], (resolution,) * (n - 1)
    c_direct = np.zeros(resolution ** (n - 1), dtype=np.int64)
    c_trans = np.zeros_like(c_direct)
    for kept, moved in zip(direct.blocks(), source.blocks()):
        _add_counts(c_direct, kept[:, 1:].T, his, cells)
        _add_counts(c_trans, batch_transform_T(moved)[:, 1:].T, his, cells)
    pooled = c_direct + c_trans
    occupied = pooled > 0
    z = np.zeros(pooled.shape)
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
    values, cells = np.unique(pooled, return_counts=True)
    for s, k in zip(values.tolist(), cells.tolist()):
        if s == 0:
            continue
        h = (s + 1) // 2
        e = 2 * h * math.exp(math.lgamma(s + 1) - math.lgamma(h + 1) - math.lgamma(s - h + 1)
                             - s * math.log(2))
        mean += k * e
        var += k * (s - e * e)
    return mean, var
