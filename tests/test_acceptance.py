"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Criterion 8 expects the normalized dinv of the path (0,1,1) to be 1
for every m, not 1 + 2/m.  The path stands for the m-Dyck path (0, m, m) of
area 2m, and three reckonings agree:

* m = 1: C_3(q,t) = q^3 + q^2 t + q t^2 + t^3 + q t, and q^2 t is its only
  area-2 term, so the dinv of (0,1,1) is 1.
* every m: C^(m)_3(q,t) has total degree 3m, so a path of area 2m has dinv
  at most m, whatever the dinv statistic, and its normalized dinv is at
  most 1.
* the kernel sc_m scores the three pairs of (0, m, m) as
  sc_m(-m) + sc_m(-m) + sc_m(0) = 0 + 0 + m.
"""

from fractions import Fraction as F

import numpy as np

from qtcatalan import cli, continuous, discrete, measure, qtpoly


def _report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


WORKED_EXAMPLE_CHECKS = {
    "ref5-area", "ref5-dinv", "ref5-bounce", "ref5-bounce-path",
    "worked-area", "worked-dinv", "worked-bounce-vector", "worked-bounce",
    "worked-T", "worked-T-area", "worked-T-bounce",
}


def test_criterion_01_worked_example_exactness():
    # the expected values live once, in the CLI's verify registry
    checks = {
        name: passed
        for name, passed in cli._verify_checks("fast")
        if name.startswith(("ref5-", "worked-"))
    }
    ok = set(checks) == WORKED_EXAMPLE_CHECKS and all(checks.values())
    _report(1, "worked-example exactness", ok)


def test_criterion_02_count_identities():
    ok = True
    for n in range(1, 7):
        for m in range(1, 4):
            found = sum(1 for _ in discrete.enumerate_m_dyck(n, m))
            ok &= found == discrete.catalan_number_m(n, m)
    for m in (5, 10, 25, 50):
        ok &= sum(1 for _ in discrete.enumerate_m_dyck(4, m)) == discrete.catalan_number_m(4, m)
    _report(2, "count identities", bool(ok))


def test_criterion_03_definitional_equality():
    ok = True
    for n in range(1, 7):
        for m in range(1, 4):
            ok &= qtpoly.qt_catalan_dinv_area(n, m) == qtpoly.qt_catalan_area_bounce(n, m)
    _report(3, "dinv-area equals area-bounce", bool(ok))


def test_criterion_04_symmetry():
    ok = True
    for n in range(1, 7):
        for m in range(1, 4):
            poly = qtpoly.qt_catalan_dinv_area(n, m)
            ok &= qtpoly.transpose(poly) == poly
    _report(4, "q,t symmetry", bool(ok))


def test_criterion_05_phi_transport_and_bijectivity():
    # counts, phi transport and phi bijectivity live in the verify registry
    expected = {
        f"{kind}-n{n}-m{m}"
        for kind in ("count", "phi-transport", "phi-bijective")
        for n in range(1, 6)
        for m in range(1, 4)
    }
    checks = {
        name: passed
        for name, passed in cli._verify_checks("full")
        if name.startswith(("count-", "phi-"))
    }
    ok = set(checks) == expected and all(checks.values())
    _report(5, "phi transport and bijectivity", ok)


def test_criterion_06_jacobian_oracle():
    import random

    ok = True
    for n in range(3, 8):
        rng = random.Random(1000 + n)
        for _ in range(1000):
            bv = cli._random_generic_bounce_vector(n, rng)
            ok &= continuous.jacobian_count(bv) == continuous.sort_preimage_count(bv)
    _report(6, "jacobian count oracle", bool(ok))


def test_criterion_07_dinv_approximation_bound():
    ok = True
    for n in range(1, 5):
        bound_num = n * (n - 1) // 2
        for m in range(1, 7):
            for p in discrete.enumerate_m_dyck(n, m):
                c = continuous.from_m_dyck(p)
                d_m = continuous.normalized_m_stats(c, m)[1]
                ok &= abs(continuous.dinv(c) - d_m) <= F(bound_num, m)
    _report(7, "normalized dinv error bound", bool(ok))


def test_criterion_08_normalized_statistics_example():
    # The dinv of (0, m, m) is 0 + 0 + m, so the normalized dinv is 1 (see the
    # module docstring).  Independently of the dinv kernel, (area, dinv) must
    # be an exponent pair of C^(m)_3, which is symmetric in q and t; its q^(2m)
    # terms reach t^m and no further.
    p = continuous.ContinuousPath([0, 1, 1])
    ok = True
    for m in range(1, 13):
        a, d, b = continuous.normalized_m_stats(p, m)
        ok &= a == 2
        ok &= d == 1
        ok &= b == (F(1, 2) if m % 2 == 0 else F(m + 1, 2 * m))
        ok &= (m * a, m * d) in qtpoly.qt_catalan_area_bounce(3, m).coeffs
    _report(8, "normalized statistics of (0,1,1)", bool(ok))


def test_criterion_09_measure_totals():
    ok = True
    for n in range(2, 6):
        # keep proposing until at least 10^6 proposals for a stable ratio
        rng = np.random.default_rng(100 + n)
        proposed = 0
        accepted = 0
        import math

        highs = np.arange(1, n, dtype=float)
        while proposed < 1_000_000:
            block = np.empty((250_000, n))
            block[:, 0] = 0.0
            block[:, 1:] = rng.uniform(0.0, 1.0, size=(250_000, n - 1)) * highs
            accepted += int(measure._accept_mask(block).sum())
            proposed += 250_000
        mc_volume = accepted / proposed * math.factorial(n - 1)
        exact = float(measure.polytope_volume(n))
        ok &= abs(mc_volume - exact) <= 0.01 * exact
    ok &= measure.density_n4_total_integral() == F(8, 3)
    _report(9, "measure totals", bool(ok))


def test_criterion_10_exact_density_match():
    # two streams of one seed hold the same points (TestSampling.test_deterministic)
    grid = (60, 60)
    mc_da = measure.pushforward_histogram(measure.SampleStream(4, 1_000_000, 0), "dinv-area", grid)
    mc_ab = measure.pushforward_histogram(measure.SampleStream(4, 1_000_000, 0), "area-bounce", grid)
    exact = measure.density_n4_cell_integrals(grid)
    budget = 0.05 * 8 / 3
    ok = measure.l1_distance(mc_da, exact) <= budget
    ok &= measure.l1_distance(mc_da, mc_ab) <= budget
    _report(10, "height-4 exact density match", bool(ok))


def test_criterion_11_weak_convergence():
    rep = measure.convergence_report(4, [3, 10, 50], resolution=(60, 60))
    d = rep["distances"]
    ok = d[0] > d[1] > d[2]
    weights = [F(w) for w in rep["total_weights"]]
    ok &= abs(weights[-1] - F(8, 3)) <= F(8, 3) / 10
    _report(11, "weak convergence of normalized measures", bool(ok))


def test_criterion_12_measure_preservation():
    # per-cell 3-sigma is read statistically: <=1% of occupied cells beyond
    # 3 sigma and none beyond 6, plus the aggregate L1 budget
    ok = True
    for n in (3, 4):
        rep = measure.measure_preservation_check(n, count=1_000_000, seed=0, resolution=10)
        ok &= rep["aggregate_l1"] <= rep["l1_budget"]
        ok &= rep["frac_cells_z_gt3"] <= 0.01
        ok &= rep["max_abs_z"] < 6.0
    _report(12, "measure preservation of T", bool(ok))


def test_criterion_13_determinism(tmp_path):
    args = ["measure", "--n", "3", "--samples", "50000", "--seed", "11", "--grid", "20x20"]
    out1 = tmp_path / "h1.csv"
    out2 = tmp_path / "h2.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    ok = out1.read_bytes() == out2.read_bytes()
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    assert cli.main(["poly", "--n", "4", "--m", "2", "--out", str(p1)]) == 0
    assert cli.main(["poly", "--n", "4", "--m", "2", "--out", str(p2)]) == 0
    ok &= p1.read_bytes() == p2.read_bytes()
    _report(13, "byte determinism", bool(ok))
