from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtcatalan.continuous import (
    BounceVector,
    ContinuousPath,
    DegenerateInputError,
    area,
    area_vector_from_bounce,
    bounce,
    bounce_vector,
    dinv,
    from_m_dyck,
    jacobian_count,
    normalized_m_stats,
    sc,
    sort_preimage_count,
    to_m_dyck,
    transform_T,
)
from qtcatalan import discrete
from qtcatalan.discrete import MDyckPath, enumerate_m_dyck

WORKED = ContinuousPath([0, F("0.6"), F("1.2"), F("0.5")])


@st.composite
def continuous_paths(draw, max_n=8, den=60):
    n = draw(st.integers(1, max_n))
    av = [F(0)]
    for _ in range(n - 1):
        av.append((av[-1] + 1) * F(draw(st.integers(0, den)), den))
    return ContinuousPath(av)


@st.composite
def bounce_vectors(draw, max_n=8, den=60):
    n = draw(st.integers(1, max_n))
    b = [F(0)]
    for _ in range(n - 1):
        b.append(b[-1] + F(draw(st.integers(0, den)), den))
    return BounceVector(b)


class TestValidation:
    def test_leading_zero_required(self):
        with pytest.raises(ValueError, match="a_0"):
            ContinuousPath([1, 0])

    def test_growth_bound_named(self):
        with pytest.raises(ValueError, match="a_1 <= a_0"):
            ContinuousPath([0, 2, 0])

    def test_negative(self):
        with pytest.raises(ValueError, match="a_2"):
            ContinuousPath([0, 1, F(-1, 2)])

    def test_bounce_vector_monotone(self):
        with pytest.raises(ValueError, match="b_2"):
            BounceVector([0, F(1, 2), F(1, 4)])
        with pytest.raises(ValueError, match="b_1 <= b_0"):
            BounceVector([0, F(3, 2)])

    def test_bounce_vector_empty_or_off_zero(self):
        with pytest.raises(ValueError, match="bounce vector must be nonempty"):
            BounceVector([])
        with pytest.raises(ValueError, match="b_0 = 1, must be 0"):
            BounceVector([1, 1])


class TestScalarStatistics:
    def test_sc(self):
        assert sc(F("0.6")) == F("0.4")
        assert sc(0) == 1
        assert sc(F("-1.2")) == 0
        assert sc(F("0.3")) == sc(F("-0.3"))

    def test_area_worked(self):
        assert area(WORKED) == F("2.3")
        assert area(ContinuousPath([0, 0, 0])) == 0
        assert area(ContinuousPath([0, 1, 1])) == 2

    def test_dinv_worked(self):
        assert dinv(WORKED) == F("2.5")
        assert dinv(ContinuousPath([0, 1, 1])) == 1
        assert dinv(ContinuousPath([0])) == 0

    @given(continuous_paths(max_n=6))
    def test_dinv_is_symmetric_in_coordinates(self, p):
        # dinv only sees pairwise absolute differences
        import itertools

        vals = sorted(p.area_vector)
        total = sum(
            sc(x - y) for x, y in itertools.combinations(vals, 2)
        )
        assert dinv(p) == total


class TestBounceVector:
    def test_worked_example(self):
        assert bounce_vector(WORKED).b == (F(0), F(2, 5), F(3, 5), F(5, 4))
        assert bounce(WORKED) == F("2.25")

    def test_staircase_instant(self):
        stair = ContinuousPath([0, 1, 2, 3, 4])
        assert bounce_vector(stair).b == (0, 0, 0, 0, 0)
        assert bounce(stair) == 0

    def test_flat_path_boundary_case(self):
        # two north steps at distance 1: the second lands exactly when the
        # first leaves the trailing window; north step is applied first
        assert bounce_vector(ContinuousPath([0, 0])).b == (0, 1)

    def test_example_height_three(self):
        assert bounce(ContinuousPath([0, 1, 1])) == F(1, 2)

    def test_round_trip_fixed(self):
        b = BounceVector([0, F(1, 2), F(3, 5), F(6, 5)])
        assert bounce_vector(area_vector_from_bounce(b)).b == b.b

    @given(bounce_vectors())
    @settings(deadline=None)
    def test_round_trip_random(self, b):
        assert bounce_vector(area_vector_from_bounce(b)).b == b.b


class TestAreaVectorFromBounce:
    def test_inverse_of_worked_example(self):
        b = BounceVector([0, F(2, 5), F(3, 5), F(5, 4)])
        assert area_vector_from_bounce(b).area_vector == WORKED.area_vector

    def test_paper_T_image(self):
        b = BounceVector([0, F(1, 2), F(3, 5), F(6, 5)])
        assert area_vector_from_bounce(b).area_vector == (F(0), F(1, 2), F(13, 10), F(7, 10))

    def test_zero_bounce_is_staircase(self):
        b = BounceVector([0] * 5)
        assert area_vector_from_bounce(b).area_vector == (0, 1, 2, 3, 4)

    def test_reflection_on_height_two(self):
        # on A_2 the transform is the reflection a_1 -> 1 - a_1
        for a1 in (F(0), F(1, 3), F(1, 2), F(9, 10)):
            img = area_vector_from_bounce(BounceVector([0, a1]))
            assert img.area_vector == (0, 1 - a1)


class TestTransformT:
    def test_worked_example(self):
        img = transform_T(WORKED)
        assert img.area_vector == (F(0), F(1, 2), F(13, 10), F(7, 10))
        assert area(img) == F(5, 2) == dinv(WORKED)
        assert bounce(img) == F(23, 10) == area(WORKED)

    def test_zero_vector_to_staircase(self):
        assert transform_T(ContinuousPath([0, 0, 0])).area_vector == (0, 1, 2)

    def test_staircase(self):
        stair = ContinuousPath([0, 1, 2])
        img = transform_T(stair)
        assert bounce_vector(img).b == stair.area_vector

    @given(continuous_paths())
    @settings(deadline=None)
    def test_statistic_transport(self, p):
        img = transform_T(p)
        assert area(img) == dinv(p)
        assert bounce(img) == area(p)

    @given(continuous_paths())
    def test_sorted_area_vector_lies_in_bounce_polytope(self, p):
        BounceVector(sorted(p.area_vector))  # must not raise


class TestJacobianCount:
    def test_height_two(self):
        assert jacobian_count(BounceVector([0, F(3, 10)])) == 1

    def test_worked_count(self):
        b = BounceVector([0, F(1, 2), F(3, 5), F(6, 5)])
        assert jacobian_count(b) == 4
        assert sort_preimage_count(b) == 4

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            jacobian_count(BounceVector([0, F(1, 2), F(1, 2)]))
        with pytest.raises(DegenerateInputError):
            jacobian_count(BounceVector([0, F(1, 3), F(4, 3)]))
        with pytest.raises(DegenerateInputError):
            jacobian_count(BounceVector([0, 0, F(1, 2)]))

    def test_oracle_agreement_random(self):
        import random

        rng = random.Random(7)
        for n in (3, 4, 5, 6):
            for _ in range(60):
                while True:
                    b = [F(0)]
                    for _ in range(n - 1):
                        b.append(b[-1] + F(rng.randint(0, 997), 997))
                    try:
                        bv = BounceVector(b)
                        expected = sort_preimage_count(bv)
                        break
                    except (ValueError, DegenerateInputError):
                        continue
                assert jacobian_count(bv) == expected


class TestMDyckBridge:
    def test_scaling(self):
        p = MDyckPath(n=5, m=2, area_vector=(0, 1, 0, 2, 3))
        c = from_m_dyck(p)
        assert c.area_vector == (0, F(1, 2), 0, 1, F(3, 2))
        assert to_m_dyck(c, 2) == p

    def test_image_set_is_lattice_intersection(self):
        n, m = 3, 2
        scaled = {from_m_dyck(p).area_vector for p in enumerate_m_dyck(n, m)}
        lattice = set()
        for a1 in range(2 * m + 1):
            for a2 in range(a1 + m + 1):
                av = (F(0), F(a1, m), F(a2, m))
                if av[1] <= 1 and av[2] <= av[1] + 1:
                    lattice.add(av)
        assert scaled == lattice

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError, match="multiple of 1/2"):
            to_m_dyck(ContinuousPath([0, F(1, 3)]), 2)


class TestNormalizedStatistics:
    def test_example_area_and_bounce(self):
        p = ContinuousPath([0, 1, 1])
        for m in range(1, 13):
            a, d, b = normalized_m_stats(p, m)
            assert a == 2
            expected_bounce = F(1, 2) if m % 2 == 0 else F(m + 1, 2 * m)
            assert b == expected_bounce

    def test_example_dinv_equals_continuous(self):
        # no pair of coordinates of (0,1,1) differs by a value in (0, 1],
        # so the discrete and continuous dinv coincide exactly at every m
        p = ContinuousPath([0, 1, 1])
        for m in range(1, 13):
            assert normalized_m_stats(p, m)[1] == dinv(p) == 1

    def test_area_always_agrees(self):
        for p in enumerate_m_dyck(4, 3):
            c = from_m_dyck(p)
            assert normalized_m_stats(c, 3)[0] == area(c)

    def test_dinv_bound(self):
        n = 4
        for m in range(1, 7):
            for p in enumerate_m_dyck(n, m):
                c = from_m_dyck(p)
                gap = abs(dinv(c) - normalized_m_stats(c, m)[1])
                assert gap <= F(n * (n - 1) // 2, m)

    @pytest.mark.parametrize("av", [(0, 1, 0, 1, 0, 1), (0, F(1, 2), F(1, 2), F(1, 2))])
    def test_bounce_at_large_m_matches_block_kernel(self, av):
        p = ContinuousPath(av)
        m = 10**5
        block = np.array([to_m_dyck(p, m).area_vector], dtype=np.int64)
        expected = discrete._bounce_block(block, m)[0]
        assert expected == discrete._bounce_stat(block[0].tolist(), m)
        assert normalized_m_stats(p, m)[2] == F(int(expected), m)

    def test_bounce_matches_scalar_walk(self):
        for p in enumerate_m_dyck(4, 3):
            c = from_m_dyck(p)
            assert normalized_m_stats(c, 3)[2] == F(discrete._bounce_stat(p.area_vector, 3), 3)

    def test_refuses_m_past_int64(self):
        # the all-zero path of height 8 has bounce m * 28, which overflows int64 here
        with pytest.raises(ValueError, match="2\\^62"):
            normalized_m_stats(ContinuousPath([0] * 8), 2**59 - 1)


@pytest.mark.parametrize("m", [0, -1])
def test_normalized_m_stats_rejects_m_below_1(m):
    with pytest.raises(ValueError):
        normalized_m_stats(ContinuousPath([0, 1, 1]), m)
