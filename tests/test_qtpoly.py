import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qtcatalan import qtpoly
from qtcatalan.discrete import (
    BudgetExceededError,
    area_m,
    bounce_m,
    catalan_number_m,
    dinv_m,
    enumerate_m_dyck,
)
from qtcatalan.qtpoly import (
    QtPolynomial,
    qt_catalan_area_bounce,
    qt_catalan_dinv_area,
    to_normalized_measure,
    transpose,
)

polys = st.dictionaries(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.integers(1, 10**12),
    max_size=12,
).map(QtPolynomial)


class TestPolynomialBasics:
    def test_zero_pruning(self):
        p = QtPolynomial({(0, 0): 1, (1, 2): 0})
        assert p.coeffs == {(0, 0): 1}

    def test_equality_is_structural(self):
        assert QtPolynomial({(1, 0): 1, (0, 1): 1}) == QtPolynomial({(0, 1): 1, (1, 0): 1})

    def test_transpose_swaps_exponents(self):
        assert transpose(QtPolynomial({(2, 1): 1})) == QtPolynomial({(1, 2): 1})

    @given(polys)
    def test_transpose_involution(self, p):
        assert transpose(transpose(p)) == p

    def test_canonical_order_t_major(self):
        p = QtPolynomial({(0, 1): 2, (1, 0): 3, (0, 0): 1})
        assert p.canonical_terms() == [(0, 0, 1), (1, 0, 3), (0, 1, 2)]

    def test_json_round_trip(self):
        p = qt_catalan_dinv_area(4, 2)
        data = json.loads(json.dumps(p.to_json_dict(4, 2)))
        assert data["n"] == 4 and data["m"] == 2
        assert QtPolynomial({(term["q"], term["t"]): int(term["c"]) for term in data["terms"]}) == p

    def test_csv(self):
        csv = qt_catalan_dinv_area(2, 1).to_csv()
        assert csv == "q,t,coeff\n1,0,1\n0,1,1\n"


class TestCatalanPolynomials:
    def test_n2_m1(self):
        assert qt_catalan_dinv_area(2, 1) == QtPolynomial({(1, 0): 1, (0, 1): 1})
        assert qt_catalan_area_bounce(2, 1) == QtPolynomial({(1, 0): 1, (0, 1): 1})

    def test_height_one(self):
        assert qt_catalan_dinv_area(1, 5) == QtPolynomial({(0, 0): 1})
        assert qt_catalan_area_bounce(1, 1) == QtPolynomial({(0, 0): 1})

    def test_value_at_one_one(self):
        assert qt_catalan_dinv_area(4, 1).evaluate(1, 1) == 14

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 1), (3, 3), (4, 2), (5, 1)])
    def test_definitions_agree(self, n, m):
        assert qt_catalan_dinv_area(n, m) == qt_catalan_area_bounce(n, m)

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 2), (5, 1)])
    def test_symmetry(self, n, m):
        p = qt_catalan_dinv_area(n, m)
        assert transpose(p) == p

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 1), (4, 3)])
    def test_max_degrees_are_staircase(self, n, m):
        p = qt_catalan_dinv_area(n, m)
        top = m * n * (n - 1) // 2
        assert max(i for i, _ in p.coeffs) == max(j for _, j in p.coeffs) == top

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            qt_catalan_dinv_area(6, 3, budget=100)

    def test_budget_checked_before_enumerating(self, monkeypatch):
        def refuse(n, m):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(qtpoly, "_area_vector_blocks", refuse)
        for construct in (qt_catalan_dinv_area, qt_catalan_area_bounce):
            with pytest.raises(BudgetExceededError):
                construct(6, 3, budget=10)

    @pytest.mark.parametrize(
        "n,m",
        [(n, m) for n in range(1, 7) for m in range(1, 4)]
        # the other six `poly` points of the benchmark; (6, 3) is above
        + [(7, 2), (5, 6), (5, 7), (8, 2), (7, 3), (4, 20)],
    )
    def test_block_kernels_match_scalar_sum(self, n, m):
        paths = list(enumerate_m_dyck(n, m))
        assert qt_catalan_dinv_area(n, m).coeffs == Counter((dinv_m(p), area_m(p)) for p in paths)
        assert qt_catalan_area_bounce(n, m).coeffs == Counter((area_m(p), bounce_m(p)) for p in paths)


def _marginal_q1(p):
    """Coefficients of p(1, t), indexed by the t-exponent."""
    out = [0] * (max(j for _, j in p.coeffs) + 1)
    for (_, j), c in p.coeffs.items():
        out[j] += c
    return out


class TestSpecialization:
    @pytest.mark.parametrize("n,m", [(3, 2), (4, 1), (5, 3)])
    def test_univariate_distributions_coincide(self, n, m):
        da = qt_catalan_dinv_area(n, m)
        ab = qt_catalan_area_bounce(n, m)
        dinv_marginal = _marginal_q1(transpose(da))
        area_marginal = _marginal_q1(da)
        bounce_marginal = _marginal_q1(ab)
        area_marginal_2 = _marginal_q1(transpose(ab))
        assert dinv_marginal == area_marginal == bounce_marginal
        assert area_marginal == area_marginal_2
        assert sum(area_marginal) == catalan_number_m(n, m)


class TestNormalizedMeasure:
    def test_n2_m1_atoms(self):
        mu = to_normalized_measure(qt_catalan_dinv_area(2, 1), 2, 1)
        assert mu.atoms.tolist() == [[1, 0, 1], [0, 1, 1]]
        assert (mu.den, mu.weight_den) == (1, 1)

    def test_total_weight_large_m(self):
        mu = to_normalized_measure(qt_catalan_dinv_area(4, 50), 4, 50)
        assert mu.total_weight() == Fraction(catalan_number_m(4, 50), 50**3)

    def test_height_one(self):
        mu = to_normalized_measure(qt_catalan_dinv_area(1, 9), 1, 9)
        assert mu.atoms.tolist() == [[0, 0, 1]]
        assert (mu.den, mu.weight_den) == (9, 1)

    def test_consolidation(self):
        # one atom per term, in canonical order: no location repeats
        p = qt_catalan_dinv_area(4, 3)
        atoms = to_normalized_measure(p, 4, 3).atoms
        assert [tuple(row) for row in atoms.tolist()] == list(p.canonical_terms())
        assert len({(i, j) for i, j, _ in atoms.tolist()}) == len(p.coeffs)
