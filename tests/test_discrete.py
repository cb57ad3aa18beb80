import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qtcatalan import discrete
from qtcatalan.continuous import (BounceVector, ContinuousPath, DegenerateInputError,
                                  jacobian_count, to_m_dyck)
from qtcatalan.discrete import (
    BudgetExceededError,
    InvalidPathError,
    MDyckPath,
    area_m,
    bounce_m,
    bounce_path_m,
    catalan_number_m,
    dinv_m,
    enumerate_m_dyck,
    phi_m,
    sc_m,
)


@st.composite
def m_dyck_paths(draw, max_n=6, max_m=4):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    av = [0]
    for _ in range(n - 1):
        av.append(draw(st.integers(0, av[-1] + m)))
    return MDyckPath(n=n, m=m, area_vector=tuple(av))


class TestCatalanNumber:
    def test_small_values(self):
        assert catalan_number_m(4, 1) == 14
        assert catalan_number_m(1, 7) == 1
        assert catalan_number_m(3, 1) == 5

    def test_large_exact(self):
        assert catalan_number_m(4, 50) == math.comb(204, 4) // 201
        assert math.comb(204, 4) % 201 == 0

    def test_m1_matches_classical_catalan(self):
        classical = [1, 1, 2, 5, 14, 42, 132, 429]
        for n in range(1, 8):
            assert catalan_number_m(n, 1) == classical[n]


class TestValidation:
    def test_a0_must_be_zero(self):
        with pytest.raises(InvalidPathError):
            MDyckPath(n=2, m=1, area_vector=(1, 0))

    def test_growth_bound(self):
        with pytest.raises(InvalidPathError, match="a_1"):
            MDyckPath(n=3, m=2, area_vector=(0, 3, 0))

    def test_negative_entry(self):
        with pytest.raises(InvalidPathError):
            MDyckPath(n=2, m=1, area_vector=(0, -1))

    def test_length_must_match_height(self):
        with pytest.raises(InvalidPathError, match="area vector has length 2, expected 3"):
            MDyckPath(n=3, m=1, area_vector=(0, 1))

    @pytest.mark.parametrize(
        "make, exc, match",
        [
            pytest.param(lambda big: next(enumerate_m_dyck(20000, 1, budget=big)),
                         BudgetExceededError, "more than <a 16610-bit number> paths", id="budget"),
            pytest.param(lambda big: MDyckPath(n=big, m=1, area_vector=(0, 0)),
                         InvalidPathError, "expected <a 16610-bit number>", id="n"),
            pytest.param(lambda big: MDyckPath(n=2, m=big, area_vector=(0, -1)),
                         InvalidPathError, "m = <a 16610-bit number>", id="m"),
            pytest.param(lambda big: MDyckPath(n=2, m=1, area_vector=(big, 0)),
                         InvalidPathError, "a_0 = <a 16610-bit number>", id="a_0"),
            pytest.param(lambda big: MDyckPath(n=2, m=1, area_vector=(0, big)),
                         InvalidPathError, "a_1 = <a 16610-bit number>", id="a_1"),
            pytest.param(lambda big: ContinuousPath([0, Fraction(-1, big)]),
                         InvalidPathError, "a_1 = <a 16610-bit number>", id="fraction"),
            pytest.param(lambda big: to_m_dyck(ContinuousPath([0, Fraction(1, big)]), 2),
                         InvalidPathError, "not a multiple", id="to_m_dyck"),
            pytest.param(lambda big: BounceVector([Fraction(1, big)]),
                         ValueError, "b_0 = <a 16610-bit number>", id="b_0"),
            pytest.param(lambda big: BounceVector([0, Fraction(1, big), 0]),
                         ValueError, "b_2 = 0, b_1 = <a 16610-bit number>", id="b_1"),
            pytest.param(lambda big: jacobian_count(BounceVector([0] + [Fraction(1, big)] * 2)),
                         DegenerateInputError, "not distinct", id="degenerate"),
        ],
    )
    def test_huge_values_keep_the_typed_error(self, make, exc, match):
        # Python refuses to format integers past 4300 digits; no message may try
        with pytest.raises(exc, match=match):
            make(10**5000)


class TestEnumeration:
    def test_single_path(self):
        assert [p.area_vector for p in enumerate_m_dyck(1, 1)] == [(0,)]

    def test_count_n3_m1(self):
        assert len(list(enumerate_m_dyck(3, 1))) == 5

    @pytest.mark.parametrize("n,m", [(2, 3), (4, 1), (4, 2), (5, 2), (3, 4)])
    def test_count_matches_formula(self, n, m):
        assert sum(1 for _ in enumerate_m_dyck(n, m)) == catalan_number_m(n, m)

    def test_lexicographic_and_unique(self):
        vectors = [p.area_vector for p in enumerate_m_dyck(4, 2)]
        assert vectors == sorted(vectors)
        assert len(set(vectors)) == len(vectors)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_m_dyck(6, 3, budget=10))
        assert len(list(enumerate_m_dyck(3, 1, budget=5))) == 5

    def test_same_sequence_as_recursive_enumeration(self):
        # digest of the sequence the earlier recursive enumerator produced
        h = hashlib.sha256()
        for n in range(1, 7):
            for m in range(1, 4):
                for p in enumerate_m_dyck(n, m):
                    h.update(repr(p.area_vector).encode() + b"\n")
        assert h.hexdigest() == "8f5a4734c6a8ee95d9dfb92c9c1ff9b454e38ca004d24475bb8c2016b8308925"

    @pytest.mark.parametrize("n,m", [(2, 2500), (3, 40), (4, 9), (7, 1)])
    def test_blocks_are_bounded_and_in_order(self, n, m):
        blocks = list(discrete._area_vector_blocks(n, m))
        assert all(b.dtype == np.int64 and 1 <= len(b) <= discrete._BLOCK_ROWS for b in blocks)
        rows = [tuple(r) for b in blocks for r in b.tolist()]
        assert len(rows) == catalan_number_m(n, m)
        assert rows == sorted(set(rows))


class TestAreaAndDinv:
    def test_reference_path_area(self):
        assert area_m(MDyckPath(n=5, m=2, area_vector=(0, 1, 0, 2, 3))) == 6

    def test_zero_and_staircase(self):
        assert area_m(MDyckPath(n=4, m=3, area_vector=(0, 0, 0, 0))) == 0
        n, m = 5, 2
        stair = MDyckPath(n=n, m=m, area_vector=tuple(m * i for i in range(n)))
        assert area_m(stair) == m * n * (n - 1) // 2

    def test_sc_values(self):
        assert sc_m(-1, 2) == 1
        assert sc_m(0, 4) == 4
        assert sc_m(5, 3) == 0
        assert sc_m(1, 3) == 3
        assert sc_m(3, 3) == 1
        assert sc_m(-3, 3) == 0
        assert sc_m(-4, 3) == 0

    def test_reference_path_dinv(self):
        assert dinv_m(MDyckPath(n=5, m=2, area_vector=(0, 1, 0, 2, 3))) == 7

    def test_height_one(self):
        assert dinv_m(MDyckPath(n=1, m=3, area_vector=(0,))) == 0

    def test_m1_matches_classical_dinv(self):
        # independent oracle: pairs i < j with a_i - a_j in {0, 1}
        for p in enumerate_m_dyck(5, 1):
            av = p.area_vector
            classical = sum(
                1
                for i in range(len(av))
                for j in range(i + 1, len(av))
                if av[i] - av[j] in (0, 1)
            )
            assert dinv_m(p) == classical


class TestBounce:
    def test_reference_path(self):
        p = MDyckPath(n=5, m=2, area_vector=(0, 1, 0, 2, 3))
        bp = bounce_path_m(p)
        assert bp.v == (1, 1, 0, 2, 1, 0)
        assert bp.h == (1, 2, 1, 2, 3, 1)
        assert bounce_m(p) == 11

    def test_staircase_single_bounce(self):
        n, m = 4, 3
        stair = MDyckPath(n=n, m=m, area_vector=tuple(m * i for i in range(n)))
        bp = bounce_path_m(stair)
        assert bp.v[0] == n
        assert all(v == 0 for v in bp.v[1:])
        assert bp.h[0] == n
        assert bounce_m(stair) == 0

    def test_all_zero_vector(self):
        p = MDyckPath(n=3, m=1, area_vector=(0, 0, 0))
        bp = bounce_path_m(p)
        assert bp.v == (1, 1, 1)
        assert bp.h == (1, 1, 1)
        assert bounce_m(p) == 3

    @given(m_dyck_paths())
    def test_bounce_path_consistency(self, p):
        bp = bounce_path_m(p)
        assert sum(bp.v) == p.n
        assert sum(bp.h) == p.m * p.n
        v = bp.v
        for i, h in enumerate(bp.h):
            assert h == sum(v[max(0, i - p.m + 1) : i + 1])


@st.composite
def tie_area_vectors(draw, max_n=7, max_m=4):
    """Valid area vectors where some a_i - a_j lands on -m-1, -m, 0, 1, m or m+1."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(2, max_n))
    av = [0]
    for _ in range(n - 1):
        targets = [a - d for a in av for d in (-m - 1, -m, 0, 1, m, m + 1)]
        choices = [t for t in targets if 0 <= t <= av[-1] + m]
        av.append(draw(st.sampled_from(choices) if choices else st.integers(0, av[-1] + m)))
    return tuple(av), m


class TestBlockKernels:
    """The int64 block kernels against the scalar oracles _dinv_vector and _bounce_stat."""

    @staticmethod
    def check(vectors, m):
        block = np.array(vectors, dtype=np.int64)
        assert discrete._dinv_block(block, m).tolist() == [discrete._dinv_vector(v, m) for v in vectors]
        assert discrete._bounce_block(block, m).tolist() == [discrete._bounce_stat(v, m) for v in vectors]

    @given(m_dyck_paths(max_n=8, max_m=6))
    @example(MDyckPath(n=5, m=2, area_vector=(0, 1, 0, 2, 3)))  # a run of height 0
    @example(MDyckPath(n=4, m=3, area_vector=(0, 0, 0, 0)))  # runs of height 0 only
    @example(MDyckPath(n=4, m=3, area_vector=(0, 3, 6, 9)))  # one run
    @example(MDyckPath(n=3, m=1000, area_vector=(0, 999, 1)))
    def test_single_paths(self, p):
        self.check([p.area_vector], p.m)

    @given(tie_area_vectors())
    def test_tie_inputs(self, case):
        av, m = case
        self.check([av], m)

    def test_sc_closed_form(self):
        for m in range(1, 8):
            for d in range(-3 * m - 3, 3 * m + 4):
                assert max(0, 2 * m + 1 - abs(2 * d - 1)) // 2 == sc_m(d, m)

    @pytest.mark.parametrize("n,m", [(5, 3), (6, 2), (3, 30), (8, 2), (4, 20)])
    def test_whole_blocks(self, n, m):
        # rows of one block sit at different depths of the bounce walk
        for block in discrete._area_vector_blocks(n, m):
            self.check([tuple(r) for r in block.tolist()], m)


class TestPhi:
    def test_statistic_transport_exhaustive(self):
        for n in range(1, 6):
            for m in range(1, 4):
                for p in enumerate_m_dyck(n, m):
                    q = phi_m(p)
                    assert dinv_m(p) == area_m(q)
                    assert area_m(p) == bounce_m(q)

    def test_bijective_exhaustive(self):
        for n in range(1, 6):
            for m in range(1, 4):
                paths = list(enumerate_m_dyck(n, m))
                images = {phi_m(p).area_vector for p in paths}
                assert len(images) == len(paths)

    def test_bounce_runs_count_occurrences(self):
        # vertical runs of the image's bounce path count symbol occurrences
        p = MDyckPath(n=2, m=1, area_vector=(0, 1))
        q = phi_m(p)
        bp = bounce_path_m(q)
        assert bp.v[0] == 1 and bp.v[1] == 1

    @given(m_dyck_paths())
    def test_image_is_valid(self, p):
        q = phi_m(p)
        assert q.n == p.n and q.m == p.m  # construction validates invariants
