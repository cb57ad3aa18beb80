import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qtcatalan import limit, measure, qtpoly
from qtcatalan.continuous import (
    BounceVector,
    ContinuousPath,
    area,
    area_vector_from_bounce,
    bounce_vector,
    dinv,
    transform_T,
)
from qtcatalan.discrete import BudgetExceededError, catalan_number_m, enumerate_m_dyck
from qtcatalan.measure import (
    batch_area,
    batch_bounce,
    batch_bounce_vector,
    batch_dinv,
    batch_transform_T,
    bin_discrete_measure,
    convergence_report,
    default_bounds,
    density_n4_cell_integrals,
    density_n4_total_integral,
    l1_distance,
    limit_cell_integrals,
    measure_preservation_check,
    polytope_volume,
    pushforward_histogram,
    sample_area_polytope,
)
from qtcatalan.qtpoly import DiscreteMeasure, qt_catalan_dinv_area, to_normalized_measure


def _measure(*rows, den=1, weight_den=1):
    return DiscreteMeasure(np.array(rows, dtype=np.int64).reshape(-1, 3), den, weight_den)


@st.composite
def discrete_measures(draw):
    rows = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(1, 10**15)),
                         max_size=30))
    return _measure(*rows, den=draw(st.integers(1, 12)), weight_den=draw(st.integers(1, 10**18)))


@st.composite
def bin_grids(draw):
    """A resolution and a height n, whose support box [0, n(n-1)/2]^2 has
    small integer ends, so that atoms often fall on cell edges and on the
    outer boundary."""
    return (draw(st.integers(1, 9)), draw(st.integers(1, 9))), draw(st.integers(2, 8))


def _bin_with_fractions(mu, resolution, n):
    """Reference binning: one Fraction location and weight per atom."""
    _, hi, _, _ = default_bounds(n)
    cx, cy = resolution
    cells = np.zeros(resolution)
    total = 0.0
    for i, j, c in mu.atoms.tolist():
        x, y, w = F(i, mu.den), F(j, mu.den), float(F(c, mu.weight_den))
        if 0 <= x <= hi and 0 <= y <= hi:
            cells[min(int(x * cx / hi), cx - 1), min(int(y * cy / hi), cy - 1)] += w
            total += w
    return cells, total


# The height-4 limit density, derived by hand: its support is the
# quadrilateral with corners (6,0), (3,1), (1,3), (0,6) (the lower boundary
# runs along x + y = 4), subdivided by the chords from (6,0) and (0,6) to
# (2,2) into three triangles carrying linear pieces.  The piecewise-linear
# function vanishing on the outer boundary with kinks only on those chords is
# determined up to scale; the scale is fixed by the total mass vol(A_4) = 8/3.
DENSITY_N4_TRIANGLES = [
    # vertices, coefficients (alpha, beta, gamma) of f = alpha*x + beta*y + gamma
    ([(F(0), F(6)), (F(1), F(3)), (F(2), F(2))], (F(3, 2), F(1, 2), F(-3))),
    ([(F(6), F(0)), (F(2), F(2)), (F(0), F(6))], (F(-1, 2), F(-1, 2), F(3))),
    ([(F(6), F(0)), (F(3), F(1)), (F(2), F(2))], (F(1, 2), F(3, 2), F(-3))),
]


def _clip_polygon(poly, axis, lo, hi):
    """Sutherland-Hodgman clip of a convex polygon to lo <= coord[axis] <= hi."""
    for bound, keep_ge in ((lo, True), (hi, False)):
        if not poly:
            return []
        out = []
        for k in range(len(poly)):
            cur, nxt = poly[k], poly[(k + 1) % len(poly)]
            cur_in = cur[axis] >= bound if keep_ge else cur[axis] <= bound
            nxt_in = nxt[axis] >= bound if keep_ge else nxt[axis] <= bound
            if cur_in:
                out.append(cur)
            if cur_in != nxt_in:
                frac = (bound - cur[axis]) / (nxt[axis] - cur[axis])
                out.append((cur[0] + frac * (nxt[0] - cur[0]), cur[1] + frac * (nxt[1] - cur[1])))
        poly = out
    return poly


def _integrate_linear_over_polygon(poly, coeffs):
    """Exact integral of alpha*x + beta*y + gamma over a convex polygon."""
    alpha, beta, gamma = coeffs
    total = F(0)
    for k in range(1, len(poly) - 1):
        (x0, y0), (x1, y1), (x2, y2) = poly[0], poly[k], poly[k + 1]
        area = abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2
        total += area * (alpha * (x0 + x1 + x2) / 3 + beta * (y0 + y1 + y2) / 3 + gamma)
    return total


def _cell_integrals_by_clipping(resolution):
    """Reference cell integrals on [0, 6]^2: every cell of each triangle's
    bounding box clipped against the triangle in Fractions and integrated;
    each cell's exact sum over the triangles is rounded once."""
    cx, cy = resolution
    dx, dy = F(6, cx), F(6, cy)
    exact = {}
    for tri, coeffs in DENSITY_N4_TRIANGLES:
        txs = [p[0] for p in tri]
        tys = [p[1] for p in tri]
        i_min, i_max = int(min(txs) / dx), min(int(max(txs) / dx) + 1, cx)
        j_min, j_max = int(min(tys) / dy), min(int(max(tys) / dy) + 1, cy)
        for i in range(i_min, i_max):
            col = _clip_polygon(tri, 0, i * dx, (i + 1) * dx)
            if not col:
                continue
            for j in range(j_min, j_max):
                cell_poly = _clip_polygon(col, 1, j * dy, (j + 1) * dy)
                if len(cell_poly) >= 3:
                    exact[i, j] = exact.get((i, j), F(0)) + _integrate_linear_over_polygon(cell_poly, coeffs)
    cells = np.zeros(resolution)
    for (i, j), val in exact.items():
        cells[i, j] = float(val)
    return cells, float(sum(exact.values()))


@st.composite
def coarse_paths(draw, max_n=7):
    """Paths on a coarse grid, where a_j = a_{j-1} + 1, a_j = 0 and equal
    coordinates are frequent."""
    n = draw(st.integers(2, max_n))
    den = draw(st.integers(1, 4))
    av = [F(0)]
    for _ in range(n - 1):
        av.append(F(draw(st.integers(0, int(av[-1] * den) + den)), den))
    return ContinuousPath(av)


@st.composite
def unit_gap_paths(draw, max_n=7):
    """Paths whose bounce vector has some b_j - b_i = 1."""
    n = draw(st.integers(3, max_n))
    den = draw(st.integers(1, 4))
    b = [F(0)]
    for _ in range(n - 1):
        b.append(b[-1] + F(draw(st.integers(0, den)), den))
    assume(any(y - x == 1 for i, x in enumerate(b) for y in b[i + 1 :]))
    return area_vector_from_bounce(BounceVector(b))


def _sample_oracle(n, count, seed, rows):
    """The rejection loop as it stood before the sampler reused one block:
    a fresh zero-prefixed (rows, n) block per round from uniform(0, 1), the
    full-row mask, and one concatenate of the kept rows at the end."""
    rng = np.random.default_rng(seed)
    highs = np.arange(1, n, dtype=float)
    kept = []
    accepted = 0
    proposed = 0
    while accepted < count:
        block = np.zeros((rows, n))
        block[:, 1:] = rng.uniform(0.0, 1.0, size=(rows, n - 1)) * highs
        ok = np.ones(block.shape[0], dtype=bool)
        for i in range(1, block.shape[1] - 1):
            ok &= block[:, i + 1] <= block[:, i] + 1
        good = block[ok]
        proposed += rows
        accepted += good.shape[0]
        kept.append(good)
    points = np.concatenate(kept, axis=0)[:count]
    return points, proposed, accepted


@st.composite
def box_proposals(draw):
    """Free coordinates a_1..a_{n-1} with a_i in [0, i], often on the
    half-integer grid so that a_{i+1} = a_i + 1 ties are frequent."""
    n = draw(st.integers(2, 9))
    coordinate = [st.one_of(st.integers(0, 2 * i).map(lambda k: k / 2),
                            st.floats(0.0, float(i))) for i in range(1, n)]
    rows = draw(st.lists(st.tuples(*coordinate), min_size=1, max_size=20))
    return np.array(rows, dtype=float).reshape(len(rows), n - 1)


class TestVolume:
    def test_small_values(self):
        assert polytope_volume(1) == 1
        assert polytope_volume(2) == 1
        assert polytope_volume(3) == F(3, 2)
        assert polytope_volume(4) == F(8, 3)

    def test_n3_by_direct_integration(self):
        # vol(A_3) = int_0^1 (a_1 + 1) da_1 = 3/2
        assert polytope_volume(3) == F(3, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            polytope_volume(0)


class TestEhrhart:
    """Scaled by m, the 1/m-integral points of the area polytope are the
    area vectors of the m-Dyck paths of height n."""

    def test_height_two(self):
        for m in (1, 2, 7):
            found = sum(1 for _ in enumerate_m_dyck(2, m))
            assert found == catalan_number_m(2, m) == m + 1

    def test_small_cases(self):
        for n, m in [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1)]:
            assert sum(1 for _ in enumerate_m_dyck(n, m)) == catalan_number_m(n, m)


class TestSampling:
    def test_deterministic(self):
        b1 = sample_area_polytope(4, 5000, seed=42)
        b2 = sample_area_polytope(4, 5000, seed=42)
        assert np.array_equal(b1.points, b2.points)
        assert b1.proposed == b2.proposed

    def test_points_in_polytope(self):
        b = sample_area_polytope(5, 20000, seed=1)
        pts = b.points
        assert np.all(pts[:, 0] == 0.0)
        for i in range(4):
            assert np.all(pts[:, i + 1] <= pts[:, i] + 1)
        assert np.all(pts >= 0.0)

    def test_n2_everything_accepted(self):
        b = sample_area_polytope(2, 10000, seed=3)
        assert b.acceptance_ratio == 1.0

    def test_acceptance_estimates_volume(self):
        b = sample_area_polytope(4, 200000, seed=7)
        est = b.acceptance_ratio * 6  # box volume (n-1)! = 6
        assert abs(est - 8 / 3) < 0.03

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("rows", [1000, 1 << 20])
    def test_points_independent_of_block_size(self, n, rows, monkeypatch):
        default = sample_area_polytope(n, 30000, seed=5).points
        monkeypatch.setattr(measure, "_BLOCK_ROWS", rows)
        assert np.array_equal(sample_area_polytope(n, 30000, seed=5).points, default)

    @given(n=st.integers(2, 9), count=st.integers(1, 40), rows=st.sampled_from([7, 64, 1000]),
           seed=st.integers(0, 2**32 - 1), on_boundary=st.booleans(), as_generator=st.booleans())
    @example(n=2, count=21, rows=7, seed=0, on_boundary=False, as_generator=True)
    @example(n=9, count=40, rows=7, seed=1, on_boundary=True, as_generator=True)
    @settings(deadline=None, max_examples=60)
    def test_matches_pre_block_reuse_loop(self, n, count, rows, seed, on_boundary, as_generator):
        if on_boundary:  # the last row taken is the last row its block accepted
            count = _sample_oracle(n, count, seed, rows)[2]
        points, proposed, accepted = _sample_oracle(n, count, seed, rows)
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if as_generator:
            _sample_oracle(n, count, ref_rng, rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measure, "_BLOCK_ROWS", rows)
            b = sample_area_polytope(n, count, rng if as_generator else seed)
        assert b.points.tobytes() == points.tobytes() and b.points.shape == points.shape
        assert (b.proposed, b.accepted) == (proposed, accepted)
        if as_generator:
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(box_proposals())
    @settings(max_examples=200)
    def test_accept_mask_free_rows_match_full_rows(self, free):
        full = np.hstack([np.zeros((free.shape[0], 1)), free])
        assert np.array_equal(measure._accept_mask(free), measure._accept_mask(full))

    def test_budget_checked_before_drawing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        # about 5.6e10 proposals; 8e7 coordinates (memory)
        for n, count in [(20, 1), (4, 20_000_000)]:
            with pytest.raises(BudgetExceededError):
                sample_area_polytope(n, count, rng)
            assert rng.bit_generator.state == state


class TestBatchKernels:
    def _random_batch(self, n, count, seed):
        return sample_area_polytope(n, count, seed).points

    def test_agree_with_exact_statistics(self):
        pts = self._random_batch(5, 200, seed=11)
        a = batch_area(pts)
        d = batch_dinv(pts)
        bv = batch_bounce_vector(pts)
        b = batch_bounce(pts)
        t = batch_transform_T(pts)
        for k in range(pts.shape[0]):
            p = ContinuousPath([F(x).limit_denominator(10**12) for x in pts[k]])
            # floats -> rationals loses a little, compare loosely
            assert abs(a[k] - float(area(p))) < 1e-9
            assert abs(d[k] - float(dinv(p))) < 1e-9
            exact_bv = [float(v) for v in bounce_vector(p).b]
            assert np.allclose(bv[k], exact_bv, atol=1e-9)
            assert abs(b[k] - sum(exact_bv)) < 1e-8
            exact_t = [float(v) for v in transform_T(p).area_vector]
            assert np.allclose(t[k], exact_t, atol=1e-9)

    def test_worked_example_through_batch(self):
        pts = np.array([[0.0, 0.6, 1.2, 0.5]])
        assert abs(batch_area(pts)[0] - 2.3) < 1e-12
        assert abs(batch_dinv(pts)[0] - 2.5) < 1e-12
        assert np.allclose(batch_bounce_vector(pts)[0], [0, 0.4, 0.6, 1.25])
        assert np.allclose(batch_transform_T(pts)[0], [0, 0.5, 1.3, 0.7])

    @given(st.one_of(coarse_paths(), unit_gap_paths()))
    @example(ContinuousPath([0, F("0.6"), F("1.2"), F("0.5")]))
    @example(ContinuousPath([0, 1, 2, 3]))
    @example(ContinuousPath([0, 0, 0, 0]))
    @example(ContinuousPath([0, 1, 1, 1]))
    @example(area_vector_from_bounce(BounceVector([0, F(1, 2), 1, F(3, 2)])))
    # a tie: three lines reach x_4 together at b_4 = 4/3, and their rounded roots differ
    @example(area_vector_from_bounce(BounceVector([0, F(1, 3), F(1, 3), F(2, 3), F(4, 3)])))
    @settings(deadline=None, max_examples=300)
    def test_bounce_vector_matches_exact_on_ties(self, p):
        pts = np.array([[float(a) for a in p.area_vector]])
        exact = [float(b) for b in bounce_vector(p).b]
        assert np.allclose(batch_bounce_vector(pts)[0], exact, rtol=0.0, atol=1e-9)
        assert abs(batch_dinv(pts)[0] - float(dinv(p))) <= 1e-9
        exact_t = [float(a) for a in transform_T(p).area_vector]
        assert np.allclose(batch_transform_T(pts)[0], exact_t, rtol=0.0, atol=1e-9)

    def test_bounce_vector_rejects_points_outside_polytope(self):
        for row in ([0.0, 0.5, -0.25], [0.0, np.nan, 0.5], [0.0, 0.5, np.inf]):
            with pytest.raises(ValueError, match="outside A_n"):
                batch_bounce_vector(np.array([[0.0, 0.5, 1.0], row]))

    def test_transport_in_batch(self):
        pts = self._random_batch(6, 5000, seed=13)
        img = batch_transform_T(pts)
        assert np.allclose(batch_area(img), batch_dinv(pts), atol=1e-9)
        assert np.allclose(batch_bounce(img), batch_area(pts), atol=1e-9)


class TestHistogram:
    def test_total_weight_is_volume(self):
        b = sample_area_polytope(4, 10000, seed=5)
        h = pushforward_histogram(b, "dinv-area")
        assert abs(h.total_weight - 8 / 3) < 1e-12
        assert abs(h.cells.sum() - 8 / 3) < 1e-9  # nothing falls outside default bounds

    def test_bad_map_choice(self):
        b = sample_area_polytope(3, 100, seed=5)
        with pytest.raises(ValueError):
            pushforward_histogram(b, "area-dinv")

    def test_bin_discrete_boundary_inclusion(self):
        # atom exactly on the upper corner must land in the last (closed) cell
        m = _measure((3, 3, 1), (0, 0, 2))
        h = bin_discrete_measure(m, (6, 6), 3)
        assert h.cells[5, 5] == 1.0
        assert h.cells[0, 0] == 2.0
        assert h.total_weight == 3.0

    def test_l1_requires_matching_grids(self):
        m = _measure((0, 0, 1))
        h1 = bin_discrete_measure(m, (4, 4), 3)
        h2 = bin_discrete_measure(m, (5, 5), 3)
        with pytest.raises(ValueError):
            l1_distance(h1, h2)

    def test_l1_requires_matching_heights(self):
        # same grid, different support boxes [0, 3]^2 and [0, 6]^2
        m = _measure((0, 0, 1))
        with pytest.raises(ValueError, match="histograms must share grid and bounds"):
            l1_distance(bin_discrete_measure(m, (4, 4), 3), bin_discrete_measure(m, (4, 4), 4))

    def test_transpose_deviation_refuses_non_square_grid(self):
        with pytest.raises(ValueError, match="transpose deviation needs a square grid"):
            limit_cell_integrals(4, (3, 5)).transpose_deviation()

    def test_transpose_deviation_symmetric_input(self):
        m = _measure((1, 2, 1), (2, 1, 1))
        h = bin_discrete_measure(m, (6, 6), 3)
        assert h.transpose_deviation() == 0.0

    @settings(max_examples=200, deadline=None)
    @given(discrete_measures(), bin_grids())
    @example(_measure((0, 0, 1), (7, 3, 5), (3, 7, 2), den=10**12, weight_den=3), ((3, 2), 2))
    @example(_measure((5, 0, 1), (40, 40, 3), den=7), ((4, 4), 4))
    @example(_measure((1, 2, 10**15 - 1), (2, 1, 10**15 - 3), weight_den=10**18 - 11), ((3, 3), 3))
    def test_bin_discrete_matches_fraction_binning(self, mu, grid):
        resolution, n = grid
        h = bin_discrete_measure(mu, resolution, n)
        cells, total = _bin_with_fractions(mu, resolution, n)
        assert np.array_equal(h.cells, cells)  # same floats, added in the same order
        assert h.total_weight == total
        assert h.bounds == default_bounds(n)

    def test_bin_discrete_rejects_int64_overflow(self):
        # num * cells past 2**62 cannot be indexed in int64
        with pytest.raises(ValueError, match="int64"):
            bin_discrete_measure(_measure((1, 1, 1), den=2**60), (4, 4), 3)
        with pytest.raises(ValueError, match="int64"):
            bin_discrete_measure(_measure((2**61, 0, 1)), (2, 2), 3)

    def test_csv_shape(self):
        m = _measure((0, 0, 1))
        h = bin_discrete_measure(m, (2, 2), 2)
        lines = h.to_csv().strip().split("\n")
        assert lines[0] == "x_lo,x_hi,y_lo,y_hi,weight"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 5
            assert not any("np." in f for f in fields)
            for f in fields:
                float(f)


class TestDensityN4:
    def test_vanishes_outside_support(self):
        # the support is x + y <= 6, x + y >= 4, x + 3y >= 6 and 3x + y >= 6;
        # on the 12x12 grid cell (i, j) is [i/2, (i+1)/2] x [j/2, (j+1)/2]
        h = density_n4_cell_integrals((12, 12))
        i, j = np.indices(h.resolution) + 1  # twice the upper cell corner
        outside = (i + j - 2 >= 12) | (i + j <= 8) | (i + 3 * j <= 12) | (3 * i + j <= 12)
        assert (h.cells[outside] == 0.0).all() and (h.cells[~outside] > 0.0).all()

    def test_piece_values(self):
        # the exact limit's density, at points inside each triangle, is the table's piece
        assert _limit_density(4, F("1.1"), F("3.3")) == (3 * F("1.1") + F("3.3") - 6) / 2
        assert _limit_density(4, F("4.0"), F("1.2")) == (6 - F("4.0") - F("1.2")) / 2
        assert _limit_density(4, F("3.3"), F("1.1")) == (F("3.3") + 3 * F("1.1") - 6) / 2

    def test_symmetric(self):
        for x, y in [(F("1.1"), F("3.6")), (F("2.6"), F("2.1")), (F("0.6"), F("4.5"))]:
            assert _limit_density(4, x, y) == _limit_density(4, y, x) > 0

    def test_total_mass(self):
        assert density_n4_total_integral() == F(8, 3)

    def test_cell_integrals_sum_to_total(self):
        h = density_n4_cell_integrals((30, 30))
        assert h.total_weight == pytest.approx(8 / 3, abs=1e-12)
        assert h.cells.sum() == pytest.approx(8 / 3, abs=1e-9)

    def test_cell_integrals_match_mc(self):
        h = density_n4_cell_integrals((12, 12))
        b = sample_area_polytope(4, 400000, seed=17)
        mc = pushforward_histogram(b, "dinv-area", (12, 12))
        assert l1_distance(h, mc) < 0.05

    def test_density_symmetric_on_grid(self):
        h = density_n4_cell_integrals((20, 20))
        assert h.transpose_deviation() < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(st.integers(1, 40), st.integers(1, 40)))
    @example((60, 60))
    @example((1, 1))
    @example((6, 6))  # lines through (2,2), (1,3), (3,1)
    @example((7, 13))
    @example((13, 7))
    @example((17, 23))
    @example((40, 1))
    @example((1, 40))
    def test_cell_integrals_match_clipping_every_cell(self, resolution):
        h = density_n4_cell_integrals(resolution)
        cells, total = _cell_integrals_by_clipping(resolution)
        assert np.array_equal(h.cells.view(np.int64), cells.view(np.int64))
        assert h.total_weight == total
        assert h.bounds == default_bounds(4)

    def test_table_moments_match_discrete_limit(self):
        # S_ij(m) = sum of c * dinv^i * area^j over the terms of C^(m)_4 is a
        # polynomial in m of degree k = 3 + i + j, whose leading coefficient
        # is the moment of x^i y^j under the limit measure.
        coeffs = {m: qt_catalan_dinv_area(4, m).coeffs for m in range(1, 8)}
        expected = {(0, 0): F(8, 3), (1, 0): F(13, 2), (0, 1): F(13, 2),
                    (2, 0): F(56, 3), (1, 1): F(40, 3), (0, 2): F(56, 3)}
        for (i, j), moment in expected.items():
            k = 3 + i + j
            diffs = [sum(c * d**i * a**j for (d, a), c in coeffs[m].items()) for m in range(1, k + 3)]
            for _ in range(k):
                diffs = [v - u for u, v in zip(diffs, diffs[1:])]
            assert diffs[0] == diffs[1]  # the (k+1)-th difference vanishes
            assert F(diffs[0], math.factorial(k)) == _table_moment(i, j) == moment


def _limit_density(n, x, y):
    """Mixed derivative d^2 F / dx dy of the exact CDF of limit.cdf_cones at a
    point on no cone edge: with t1 = x - x0 and t2 = y - y0 + r0 t1, each cone
    polynomial P(t1, t2) contributes P_12 + r0 P_22."""
    total = F(0)
    for (x0, y0, r0), coeffs in limit.cdf_cones(n).items():
        t1 = x - x0
        t2 = y - y0 + r0 * t1
        assert t1 != 0 and t2 != 0, "the point lies on a cone edge"
        if t1 > 0 and t2 > 0:
            for e, c in enumerate(coeffs):
                a = n - 1 - e
                total += c * e * t1 ** (a - 1) * t2 ** (e - 2) * (a * t2 + r0 * (e - 1) * t1)
    return total


def _table_moment(i, j):
    """Exact integral of x^i y^j times the DENSITY_N4_TRIANGLES density, by
    the 4-point Strang-Fix rule, which is exact for cubics (i + j <= 2)."""
    a, b = F(3, 5), F(1, 5)
    rule = [(F(-27, 48), (F(1, 3),) * 3)] + [(F(25, 48), bary) for bary in [(a, b, b), (b, a, b), (b, b, a)]]
    total = F(0)
    for tri, (alpha, beta, gamma) in DENSITY_N4_TRIANGLES:
        (x0, y0), (x1, y1), (x2, y2) = tri
        tri_area = abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2
        for weight, (l0, l1, l2) in rule:
            x = l0 * x0 + l1 * x1 + l2 * x2
            y = l0 * y0 + l1 * y1 + l2 * y2
            total += tri_area * weight * x**i * y**j * (alpha * x + beta * y + gamma)
    return total


class TestLimitCells:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_support_box_mass_is_volume(self, n):
        _, rows, scale = next(measure._limit_cdf_strips(n, (1, 1)))
        assert F(rows[-1, -1], scale) == polytope_volume(n)

    @pytest.mark.parametrize("n, grid", [(3, 9), (4, 13), (5, 10), (6, 7), (7, 12)])
    def test_nonnegative_and_symmetric(self, n, grid):
        h = limit_cell_integrals(n, (grid, grid))
        assert (h.cells >= 0).all()
        assert h.cells.tobytes() == np.ascontiguousarray(h.cells.T).tobytes()
        assert h.total_weight == float(polytope_volume(n))

    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_sampler_at_noise_floor(self, n):
        # both pushforwards of the uniform measure are mu_n; the L1 distance of
        # N points has null mean sum_c vol * sqrt(2 p_c (1 - p_c) / (pi N))
        count = 200_000
        exact = limit_cell_integrals(n, (10, 10))
        vol = float(polytope_volume(n))
        p = exact.cells / vol
        null_mean = float((vol * np.sqrt(2 * p * (1 - p) / (math.pi * count))).sum())
        batch = sample_area_polytope(n, count, seed=n)
        for map_choice in ("dinv-area", "area-bounce"):
            mc = pushforward_histogram(batch, map_choice, (10, 10))
            assert l1_distance(mc, exact) < 2 * null_mean

    def test_rejects_n_below_2(self):
        with pytest.raises(ValueError):
            limit_cell_integrals(1, (4, 4))

    @pytest.mark.parametrize("corners", [1, 7, 64, 1000])
    def test_strips_join_bit_exactly(self, corners, monkeypatch):
        # the default strip holds every grid up to 255x255, so only a smaller
        # one makes consecutive strips share a row of corners
        grids = [(13, 7), (7, 13), (60, 60), (40, 1)]
        whole = {(n, g): limit_cell_integrals(n, g) for n in range(3, 7) for g in grids}
        monkeypatch.setattr(measure, "_STRIP_CORNERS", corners)
        for (n, g), h in whole.items():
            strips = limit_cell_integrals(n, g)
            assert np.array_equal(strips.cells.view(np.int64), h.cells.view(np.int64))
            assert strips.total_weight == h.total_weight


class TestGridSizes:
    @pytest.mark.parametrize("grid", [(0, 5), (5, 0), (-1, 4)])
    @pytest.mark.parametrize(
        "build",
        [
            lambda grid: limit_cell_integrals(4, grid),
            lambda grid: convergence_report(3, [2], resolution=grid),
            lambda grid: bin_discrete_measure(_measure((1, 1, 1)), grid, 3),
            lambda grid: pushforward_histogram(sample_area_polytope(3, 10, 0), "dinv-area", grid),
            lambda grid: measure_preservation_check(3, count=10, resolution=min(grid)),
        ],
        ids=["limit_cell_integrals", "convergence_report", "bin_discrete_measure",
             "pushforward_histogram", "measure_preservation_check"],
    )
    def test_grid_below_one_cell_refused(self, build, grid):
        with pytest.raises(ValueError, match="grid sizes must be positive"):
            build(grid)


class TestConvergenceReport:
    def test_n1_trivial(self):
        rep = convergence_report(1, [1, 2, 3])
        assert rep["distances"] == [0.0, 0.0, 0.0]
        assert rep["total_weights"] == ["1", "1", "1"]

    def test_n2_distances_shrink(self):
        rep = convergence_report(2, [1, 4, 16], resolution=(8, 8))
        assert rep["distances"] == [2.5, 1.75, 0.8125]
        assert rep["limit_weight"] == "1"

    def test_polynomials_come_from_qtpoly_module(self, monkeypatch):
        # per-layer tracing wraps the qtpoly module attributes
        seen = []
        for name in ("qt_catalan_dinv_area", "to_normalized_measure"):
            original = getattr(qtpoly, name)
            monkeypatch.setattr(qtpoly, name,
                                lambda *a, _f=original, _n=name, **k: seen.append(_n) or _f(*a, **k))
        convergence_report(4, [2, 3], resolution=(6, 6))
        assert seen == ["qt_catalan_dinv_area", "to_normalized_measure"] * 2

    def test_n5_distances_decrease(self):
        d = convergence_report(5, [1, 2, 4], (10, 10))["distances"]
        assert d[0] > d[1] > d[2]

    def test_rejects_empty_m_list(self):
        with pytest.raises(ValueError, match="m_list must be nonempty"):
            convergence_report(4, [])

    def test_term_cap_checked_before_any_work(self, monkeypatch):
        # m = 2500 passes the path budget but not the term cap; m = 400 would run first
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(measure, "limit_cell_integrals", refuse)
        monkeypatch.setattr(qtpoly, "_area_vector_blocks", refuse)
        with pytest.raises(BudgetExceededError, match="terms"):
            convergence_report(3, [400, 2500], budget=10**7)

    def test_n4_exact_reference(self):
        rep = convergence_report(4, [1, 3], resolution=(10, 10))
        assert rep["total_weights"] == ["14", "140/27"]
        assert rep["distances"][1] < rep["distances"][0]


class TestPreservation:
    def test_n2(self):
        rep = measure_preservation_check(2, count=100000, seed=0, resolution=8)
        assert rep["ok"]
        assert rep["volume"] == "1"

    def test_n3(self):
        rep = measure_preservation_check(3, count=200000, seed=1, resolution=6)
        assert rep["ok"]
        assert rep["max_abs_z"] < 6.0

    def test_null_moments_match_binomial_enumeration(self):
        pooled = np.array([0, 1, 2, 3, 7, 7, 12, 25])
        mean, var = measure._null_l1_moments(pooled)
        exp_mean = exp_var = F(0)
        for s in pooled.tolist():
            dist = [(abs(2 * k - s), F(math.comb(s, k), 2**s)) for k in range(s + 1)]
            e = sum((d * p for d, p in dist), F(0))
            exp_mean += e
            exp_var += sum((d * d * p for d, p in dist), F(0)) - e * e
        assert mean == pytest.approx(float(exp_mean), rel=1e-12)
        assert var == pytest.approx(float(exp_var), rel=1e-12)

    def test_small_sample_counts_pass(self):
        # a budget fixed at 0.03 vol failed all three seeds at 10^5 samples
        for seed in range(3):
            assert measure_preservation_check(4, count=100_000, seed=seed)["ok"]

    def test_shifted_transport_fails(self, monkeypatch):
        transform = measure.batch_transform_T

        def shifted(points):
            out = transform(points)
            out[:, -1] += 0.02
            return out

        monkeypatch.setattr(measure, "batch_transform_T", shifted)
        rep = measure_preservation_check(4, count=1_000_000, seed=0)
        assert rep["aggregate_l1"] > 1.2 * rep["l1_budget"]
        assert not rep["ok"]
