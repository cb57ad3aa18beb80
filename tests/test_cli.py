import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from qtcatalan.cli import (EXIT_BUDGET, EXIT_CHECK_FAILURE, EXIT_OK, EXIT_USAGE, _dump_json, _parse_grid,
                           main)
from qtcatalan import discrete, measure, qtpoly
from qtcatalan.discrete import BudgetExceededError
from qtcatalan.continuous import ContinuousPath, normalized_m_stats
from qtcatalan.measure import measure_preservation_check
from test_measure import _histogram2d_oracle, _parking_oracle, _sample_oracle


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPoly:
    def test_json_output(self, capsys):
        code, out, _ = run(["poly", "--n", "2", "--m", "1"], capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["n"] == 2 and data["m"] == 1
        assert data["equal_definitions"] and data["symmetric"]
        assert data["value_at_1_1"] == "2"
        terms = {(t["q"], t["t"]): t["c"] for t in data["terms"]}
        assert terms == {(1, 0): "1", (0, 1): "1"}

    def test_csv_output(self, capsys):
        code, out, _ = run(["poly", "--n", "2", "--m", "1", "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert out == "q,t,coeff\n1,0,1\n0,1,1\n"

    def test_eval_n4(self, capsys):
        code, out, _ = run(["poly", "--n", "4", "--m", "1"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["value_at_1_1"] == "14"

    def test_budget_exit(self, capsys):
        code, _, err = run(["poly", "--n", "12", "--m", "3", "--budget", "1000"], capsys)
        assert code == EXIT_BUDGET
        assert "budget" in err.lower()

    def test_large_m_small_n(self, capsys):
        # a dense table of exponent pairs would hold (m n^2)^2 entries
        m = 10**6
        code, out, _ = run(["poly", "--n", "2", "--m", str(m), "--format", "csv"], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "q,t,coeff"
        assert lines[1:] == [f"{m - a},{a},1" for a in range(m + 1)]

    def test_term_cap_exit_3(self, capsys, monkeypatch):
        def refuse(n, m):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(qtpoly, "_area_vector_blocks", refuse)
        code, out, err = run(["poly", "--n", "3", "--m", "2500"], capsys)
        assert code == EXIT_BUDGET
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "poly.json"
        code, _, _ = run(["poly", "--n", "3", "--m", "2", "--out", str(dest)], capsys)
        assert code == EXIT_OK
        data = json.loads(dest.read_text())
        assert data["m"] == 2

    def test_json_encoded_into_one_buffer(self):
        # json.dumps with indent keeps every chunk in a list before joining them
        data = {"terms": [{"q": i, "t": 50_000 - i, "c": "1"} for i in range(50_000)]}
        tracemalloc.start()
        try:
            text = _dump_json(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert peak < 3 * len(text)


class TestStats:
    def test_worked_example(self, capsys):
        code, out, _ = run(["stats", "0,0.6,1.2,0.5"], capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["area"] == "23/10"
        assert data["dinv"] == "5/2"
        assert data["bounce_vector"] == ["0", "2/5", "3/5", "5/4"]
        assert data["bounce"] == "9/4"
        assert data["T_area_vector"] == ["0", "1/2", "13/10", "7/10"]
        assert data["T_area"] == "5/2"
        assert data["T_bounce"] == "23/10"

    def test_normalized_stats(self, capsys):
        code, out, _ = run(["stats", "0,1,1", "--m", "3"], capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["normalized_area"] == "2"
        assert data["normalized_dinv"] == "1"
        assert data["normalized_bounce"] == "2/3"

    def test_large_m_runs_in_linear_time(self, capsys):
        # the bounce walk has ~m runs, so a window sum recomputed per run took minutes
        code, out, _ = run(["stats", "0,1", "--m", "200000"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["m"] == 200000

    def test_huge_m_takes_at_most_n_steps(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(["stats", "0,1", "--m", "10000000"], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_OK
        assert json.loads(out)["normalized_bounce"] == "0"

    def test_invalid_vector_names_inequality(self, capsys):
        code, _, err = run(["stats", "0,2.5"], capsys)
        assert code == EXIT_CHECK_FAILURE
        assert "a_1" in err

    def test_unparseable(self, capsys):
        code, _, err = run(["stats", "0,banana"], capsys)
        assert code == EXIT_USAGE
        assert "parse" in err


class TestMeasure:
    def test_summary_and_determinism(self, capsys, tmp_path):
        argv = [
            "measure", "--n", "3", "--samples", "20000", "--seed", "9",
            "--grid", "12x12", "--out", str(tmp_path / "h.csv"),
        ]
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["volume"] == "3/2"
        assert abs(data["total_weight"] - 1.5) < 1e-12
        first = (tmp_path / "h.csv").read_bytes()
        run(argv, capsys)
        assert (tmp_path / "h.csv").read_bytes() == first

    def test_n4_reports_density_distance(self, capsys):
        code, out, _ = run(
            ["measure", "--n", "4", "--samples", "50000", "--seed", "1", "--grid", "8x8"],
            capsys,
        )
        assert code == EXIT_OK
        summary = json.loads(out[out.index('{'):])
        assert summary["l1_to_exact_density"] < 0.2

    def test_seed_from_environment(self, capsys, tmp_path, monkeypatch):
        argv = ["measure", "--n", "3", "--samples", "5000", "--grid", "8x8"]
        run(argv + ["--seed", "5", "--out", str(tmp_path / "flag.csv")], capsys)
        monkeypatch.setenv("CATALAN_SEED", "5")
        code, out, _ = run(argv + ["--out", str(tmp_path / "env.csv")], capsys)
        assert code == EXIT_OK and json.loads(out)["seed"] == 5
        assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()

    def test_bad_grid(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["measure", "--n", "3", "--grid", "60by60"], capsys)
        assert exc.value.code == EXIT_USAGE


# Run in a fresh process: the CLI command in argv, and then the growth of the
# peak RSS (KiB on Linux) over the import of the package, on stderr.
_RSS_GROWTH = """
import resource, sys
import qtcatalan.cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = qtcatalan.cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, file=sys.stderr)
"""


class TestStreamedMeasure:
    """`measure` and `preserve` score and bin SampleStream blocks as they are
    drawn, so they equal the whole batch and hold no points."""

    @pytest.mark.parametrize("map_choice", ["dinv-area", "area-bounce"])
    @pytest.mark.parametrize("n,count", [(4, 100), (4, 2 * 4096 - 1), (4, 2 * 4096), (4, 2 * 4096 + 1),
                                         (8, 100), (8, 4095), (8, 4096), (8, 4097)])
    def test_matches_whole_batch(self, n, count, map_choice, capsys, monkeypatch, tmp_path):
        histogram, seen = measure.pushforward_histogram, []

        def spy(batch, *rest):
            seen.append((type(batch), histogram(batch, *rest)))
            return seen[-1][1]

        monkeypatch.setattr(measure, "pushforward_histogram", spy)
        code, out, _ = run(["measure", "--n", str(n), "--samples", str(count), "--map", map_choice,
                            "--grid", "17x17", "--seed", str(count), "--out", str(tmp_path / "h.csv")],
                           capsys)
        if n < measure._PARKING_FROM_N:
            points, proposed, accepted = _sample_oracle(n, count, count, measure._BLOCK_ROWS)
        else:  # every row drawn is kept
            points, proposed, accepted = _parking_oracle(n, count, count), count, count
        whole = measure.Histogram2D(n, *_histogram2d_oracle(points, map_choice, (17, 17)))
        summary = json.loads(out)
        assert code == EXIT_OK and [kind for kind, _ in seen] == [measure.SampleStream]
        assert seen[0][1].cells.tobytes() == whole.cells.tobytes()
        assert (tmp_path / "h.csv").read_text() == whole.to_csv()
        assert summary["total_weight"] == whole.total_weight
        assert summary["acceptance_ratio"] == accepted / proposed

    @pytest.mark.parametrize("argv,text", [
        (["measure", "--n", "4", "--samples", "10000000000"], "proposals"),
        (["preserve", "--n", "9"], "histogram cells"),
        (["measure", "--n", "10000000", "--samples", "1"], "coordinates per block"),
        (["measure", "--n", "513", "--samples", "1"], "coordinates per block"),
    ])
    def test_refused_before_drawing(self, argv, text, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("drew before the cap was checked")

        monkeypatch.setattr(measure.SampleStream, "blocks", fail)
        monkeypatch.setattr(measure.np.random, "default_rng", fail)
        code, out, err = run(argv, capsys)
        assert code == EXIT_BUDGET and out == "" and text in err

    def test_unwritable_out_refused_before_drawing(self, capsys, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise AssertionError("drew before --out was opened")

        monkeypatch.setattr(measure.SampleStream, "blocks", fail)
        code, out, err = run(["measure", "--n", "4", "--samples", "10000000",
                              "--out", str(tmp_path / "missing" / "x.csv")], capsys)
        assert code == EXIT_USAGE and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_n20_runs(self, capsys):
        # past rejection's reach ((19!)^2 / 20^18 proposals a point); parking keeps every draw
        code, out, _ = run(["measure", "--n", "20", "--samples", "1", "--out", os.devnull], capsys)
        summary = json.loads(out)
        assert code == EXIT_OK and summary["acceptance_ratio"] == 1.0
        assert summary["total_weight"] == float(measure.polytope_volume(20))

    def test_largest_admitted_n_runs(self, capsys):
        # the block cap's last n; vol(A_n), which weights every cell, is a float up to n = 720
        n = measure._MAX_BLOCK_COORDINATES // measure._KERNEL_ROWS
        code, out, err = run(["measure", "--n", str(n), "--samples", "1", "--out", os.devnull], capsys)
        summary = json.loads(out)
        assert code == EXIT_OK and err == "" and summary["n"] == n == 512
        assert summary["total_weight"] == float(measure.polytope_volume(n))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
    @pytest.mark.parametrize("argv", [
        ["measure", "--n", "4", "--samples", "2000000", "--out", os.devnull],
        ["preserve", "--n", "4", "--samples", "1000000"],  # two held batches were 64 MB
    ])
    def test_memory_does_not_grow_with_samples(self, argv):
        src = str(Path(measure.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-c", _RSS_GROWTH, *argv], env=env, timeout=120,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        code, growth_kib = map(int, result.stderr.split()[-2:])
        assert code == EXIT_OK
        assert growth_kib < 24 * 1024, f"peak RSS grew by {growth_kib / 1024:.1f} MB"


class TestConverge:
    def test_report(self, capsys):
        code, out, _ = run(
            ["converge", "--n", "2", "--m-list", "1", "4", "--grid", "8x8"], capsys
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["total_weights"] == ["2", "5/4"]
        assert data["limit_weight"] == "1"
        assert len(data["distances"]) == 2
        assert "seed" not in data  # the reference is exact; nothing is sampled

    def test_budget(self, capsys):
        code, _, err = run(
            ["converge", "--n", "10", "--m-list", "5", "--budget", "100"], capsys
        )
        assert code == EXIT_BUDGET
        assert "budget" in err.lower()

    def test_term_cap_checked_before_any_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(measure, "limit_cell_integrals", refuse)
        monkeypatch.setattr(qtpoly, "_area_vector_blocks", refuse)
        code, out, err = run(["converge", "--n", "3", "--m-list", "400", "2500"], capsys)
        assert code == EXIT_BUDGET
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestPreserve:
    def test_report_matches_library(self, capsys):
        code, out, _ = run(["preserve", "--n", "3", "--samples", "20000", "--seed", "2"], capsys)
        report = measure_preservation_check(3, count=20000, seed=2)
        assert json.loads(out) == report
        assert code == (EXIT_OK if report["ok"] else EXIT_CHECK_FAILURE)

    @pytest.mark.parametrize("n", [9, 11])
    def test_histogram_cap_refused_before_sampling(self, n, capsys, monkeypatch):
        # 10 bins in each of n - 1 coordinates: 10^8 cells at n = 9
        def fail(*args, **kwargs):
            raise AssertionError("sampled before the histogram cap was checked")

        monkeypatch.setattr(measure.SampleStream, "blocks", fail)
        monkeypatch.setattr(measure.np.random, "default_rng", fail)
        code, out, err = run(["preserve", "--n", str(n)], capsys)
        assert code == EXIT_BUDGET
        assert out == ""
        assert len(err.splitlines()) == 1 and "histogram cells" in err

    def test_n7_parking_streams_pass(self, capsys):
        code, out, _ = run(["preserve", "--n", "7", "--samples", "200000", "--seed", "3"], capsys)
        report = json.loads(out)
        assert report["ok"] is True and code == EXIT_OK

    def test_n5_passes_at_default_samples(self, capsys):
        code, out, _ = run(["preserve", "--n", "5", "--seed", "0"], capsys)
        report = json.loads(out)
        assert report["count"] == 1_000_000
        assert report["aggregate_l1"] <= report["l1_budget"]
        assert code == EXIT_OK


class TestVerify:
    def test_fast(self, capsys):
        code, out, _ = run(["verify"], capsys)
        assert code == EXIT_OK
        assert "0 failure(s)" in out
        assert "FAIL" not in out

    def test_unknown_level(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "medium"], capsys)
        assert exc.value.code == EXIT_USAGE


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([], capsys)
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["poly", "--n", "0", "--m", "2"],
            ["poly", "--n", "3", "--m", "0"],
            ["converge", "--n", "4", "--m-list", "0"],
            ["measure", "--n", "1"],
            ["measure", "--n", "3", "--samples", "0"],
            ["measure", "--n", "3", "--grid", "0x0"],
            ["measure", "--n", "3", "--samples", "100", "--grid", "10x20"],
            ["stats", "0,1/0"],
            ["preserve", "--n", "1"],
            ["stats", "0,1", "--m", "0"],
            # m * n^2 >= 2^62: past what the int64 bounce kernel holds
            ["stats", "0,0,0,0,0,0,0,0", "--m", str(2**59 - 1)],
            ["stats", "0,1", "--m", str(2**60)],
            # the limit is exact, so converge samples nothing
            ["converge", "--n", "3", "--m-list", "1", "--samples", "100"],
            ["converge", "--n", "3", "--m-list", "1", "--seed", "3"],
        ],
    )
    def test_bad_parameters_exit_2(self, argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # rejected by the argument parser itself
            code = exc.code
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "error: " in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "0,2.5", "--m", "0"],  # the path is checked before --m
            ["stats", "0,1/2", "--m", "3"],  # not 1/m-integral
        ],
    )
    def test_invalid_path_exit_1(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == EXIT_CHECK_FAILURE
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "target, exc, argv, expected",
        [
            ("pushforward_histogram", ValueError, ["measure", "--n", "3", "--samples", "100"],
             EXIT_USAGE),
            ("limit_cell_integrals", BudgetExceededError,
             ["measure", "--n", "4", "--samples", "100"], EXIT_BUDGET),
        ],
    )
    def test_library_errors_map_to_exit_codes(self, target, exc, argv, expected, capsys,
                                              monkeypatch):
        # an error from deep in a command still ends in one line and its exit code
        def fail(*args, **kwargs):
            raise exc("raised in the library")

        monkeypatch.setattr(measure, target, fail)
        code, out, err = run(argv, capsys)
        assert code == expected
        assert out == ""
        assert err == "error: raised in the library\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--n", "4", "--grid", "40000x40000"],
            ["converge", "--n", "4", "--m-list", "3", "--grid", "1001x1000"],
        ],
    )
    def test_grid_over_cell_cap_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
        assert "1,000,000 cells" in err and "Traceback" not in err

    def test_grid_at_cell_cap_parses(self):
        assert _parse_grid("1000x1000") == (1000, 1000)
        assert _parse_grid("1x1000000") == (1, 1000000)

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--n", "10000000", "--samples", "1"],
            ["preserve", "--n", "16"],
            ["measure", "--n", "4", "--samples", "10000000000"],  # ~2.25e10 proposals
        ],
    )
    def test_sampling_budget_exit_3(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == EXIT_BUDGET
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["poly", "--n", "3", "--m", "1"],
            ["stats", "0,1"],
            ["measure", "--n", "3", "--samples", "100"],
            ["converge", "--n", "3", "--m-list", "1"],
        ],
    )
    def test_unwritable_out_exit_2(self, argv, capsys, tmp_path):
        code, out, err = run(argv + ["--out", str(tmp_path / "missing" / "out")], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_bad_seed_environment_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CATALAN_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            run(["measure", "--n", "3", "--samples", "100"], capsys)
        assert exc.value.code == EXIT_USAGE
        assert "error: " in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("argv,env", [
        (["measure", "--n", "3", "--samples", "100", "--seed", "-1"], None),
        (["preserve", "--n", "3", "--samples", "100", "--seed", "-1"], None),
        (["measure", "--n", "3", "--samples", "100"], "-1"),
    ], ids=["measure", "preserve", "CATALAN_SEED"])
    def test_negative_seed_names_the_flag(self, argv, env, capsys, monkeypatch):
        # refused by the parser, before anything is drawn, and not in numpy's words
        def fail(*args, **kwargs):
            raise AssertionError("drew before the seed was checked")

        if env is not None:
            monkeypatch.setenv("CATALAN_SEED", env)
        monkeypatch.setattr(measure.SampleStream, "blocks", fail)
        monkeypatch.setattr(measure.np.random, "default_rng", fail)
        with pytest.raises(SystemExit) as exc:
            run(argv, capsys)
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and out == ""
        assert err.splitlines()[-1].endswith(
            "error: argument --seed: must be a non-negative integer (from --seed or CATALAN_SEED)")


class _SmallPowers(int):
    """An int that refuses to be raised to a power past 64."""

    def __pow__(self, exponent):
        assert exponent <= 64, f"built {int(self)}^{exponent}"
        return int(self) ** exponent


class TestRefusalsBuildNothing:
    """Each refusal decides from a bound, so the function that would build the
    refused number fails if it is reached; the CLI still exits 3 at once."""

    @staticmethod
    def guard(monkeypatch, owner, name, largest):
        original = getattr(owner, name)

        def guarded(first, *rest):
            assert first <= largest, f"{name}({first}, ...) was built"
            return original(first, *rest)

        monkeypatch.setattr(owner, name, guarded)

    @staticmethod
    def assert_refused(code, out, err):
        assert code == EXIT_BUDGET
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and len(err) < 200

    @pytest.mark.parametrize(
        "argv",
        [
            ["poly", "--n", "3000", "--m", "1"],
            ["poly", "--n", "8000", "--m", "1"],  # str() of C_8000 passes 4300 digits
            ["poly", "--n", "1000000", "--m", "1"],
            ["converge", "--n", "1000000", "--m-list", "1"],
        ],
    )
    def test_path_budget_counts_no_paths(self, argv, capsys, monkeypatch):
        for owner in (discrete, qtpoly):
            self.guard(monkeypatch, owner, "catalan_number_m", 64)
        code, out, err = run(argv, capsys)
        self.assert_refused(code, out, err)
        assert "more than 10000000 paths" in err

    @pytest.mark.parametrize("n", ["100000", "10000000"])
    def test_proposal_cap_builds_no_factorial(self, n, capsys, monkeypatch):
        # refused by the block size, before the proposal cap builds (n-1)!
        self.guard(monkeypatch, math, "factorial", 1000)
        code, out, err = run(["measure", "--n", n, "--samples", "1"], capsys)
        self.assert_refused(code, out, err)
        assert "coordinates per block" in err

    def test_histogram_cap_builds_no_power(self, capsys, monkeypatch):
        check = measure.measure_preservation_check
        monkeypatch.setattr(measure, "measure_preservation_check",
                            lambda n, **kw: check(n, resolution=_SmallPowers(10), **kw))
        code, out, err = run(["preserve", "--n", "10000000"], capsys)
        self.assert_refused(code, out, err)
        assert "histogram cells" in err


_HUGE = 10**5000  # past the 4300 digits Python will convert to str
_LONG = "9" * 3000  # a CLI integer whose str is far longer than one error line


class TestRefusalsNameTheBound:
    """A refusal names the bound it enforces, never the caller's integer,
    which may be too long to print or to format at all."""

    @pytest.mark.parametrize(
        "call,error,text",
        [
            (lambda: qtpoly.qt_catalan_dinv_area(2, 10**3000), BudgetExceededError, "2^20 terms"),
            (lambda: qtpoly.qt_catalan_dinv_area(2, _HUGE), BudgetExceededError, "2^20 terms"),
            (lambda: qtpoly.qt_catalan_dinv_area(-_HUGE, 1), ValueError, "n >= 1"),
            (lambda: qtpoly.qt_catalan_dinv_area(3, 2, budget=-5), ValueError, "budget must be non-negative"),
            (lambda: measure.sample_area_polytope(4, _HUGE, 0), BudgetExceededError, "coordinates"),
            (lambda: measure.sample_area_polytope(_HUGE, 1, 0), BudgetExceededError, "coordinates"),
            (lambda: measure_preservation_check(_HUGE), BudgetExceededError, "histogram cells"),
            (lambda: measure_preservation_check(3, resolution=-_HUGE), ValueError, "grid sizes"),
            (lambda: normalized_m_stats(ContinuousPath([0] * 8), _HUGE), ValueError, "2^62"),
        ],
        ids=["terms-3000-digits", "terms", "size", "budget", "sample-count", "sample-n", "preserve-n", "preserve-grid", "m-stats"],
    )
    def test_library(self, call, error, text):
        with pytest.raises(error) as info:
            call()
        assert text in str(info.value) and len(str(info.value)) < 200

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["poly", "--n", "2", "--m", _LONG], EXIT_BUDGET),
            (["converge", "--n", "2", "--m-list", _LONG], EXIT_BUDGET),
            (["measure", "--n", "3", "--samples", _LONG], EXIT_BUDGET),
            (["preserve", "--n", _LONG], EXIT_BUDGET),
            (["stats", "0,1", "--m", _LONG], EXIT_USAGE),
            (["poly", "--n", "3", "--m", "2", "--budget", "-5"], EXIT_USAGE),
        ],
        ids=["poly-m", "converge-m", "measure-samples", "preserve-n", "stats-m", "poly-budget"],
    )
    def test_cli(self, argv, code, capsys):
        got, out, err = run(argv, capsys)
        assert got == code and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and len(err) < 200


class TestByteIdentity:
    """SHA-256 of outputs pinned before the code that makes them was
    refactored; any change to these bytes must be declared."""

    def test_poly_json(self, capsys):
        code, out, _ = run(["poly", "--n", "5", "--m", "2"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f57bb44b63ce6c37364e70fa7de2274a6611a83b5df13b2ee1147cd2ec68ff99"
        )

    def test_poly_csv(self, capsys):
        code, out, _ = run(["poly", "--n", "6", "--m", "3", "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f10e5fc1c92c6c2460f14d4f607d01ac5960656be29c9fb5ed33496801e9460a"
        )

    def test_converge_json(self, capsys):
        code, out, _ = run(["converge", "--n", "4", "--m-list", "3", "10", "50"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "88e005d6ee3f8f528a9dc7917b5ac20882bafeb20c1d0faf150f1ac5cf43f6d2"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--n", "4", "--m-list", "2", "9"],
             "e1915f7b22728bd497048ab3f0f5921cc165141f4c9816a242dfe61cfe876554"),
            (["--n", "3", "--m-list", "1", "7", "20"],
             "4c39adf42ff84d4ac48443831d9f672e2864fc41c5e6da87fd77561aa5616125"),
        ],
    )
    def test_converge_json_non_square_grid(self, capsys, argv, digest):
        # cx != cy through the limit corner lattice and the binning
        code, out, _ = run(["converge", *argv, "--grid", "13x7"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # at n = 3, m = 341 is the last m counted in the (D + 1)^2 table, m = 342 the first
    # counted by the key list
    def test_poly_csv_key_list(self, capsys):
        code, out, _ = run(["poly", "--n", "3", "--m", "342", "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f820db7b94f5d4665df4753b667ee19ceb2fd34a08fc72b79668b3a532d60fcd"
        )

    def test_converge_json_both_counters(self, capsys):
        code, out, _ = run(["converge", "--n", "3", "--m-list", "341", "342"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1c8b0ac04395ce3a65266a71dcf04063ec799357baa192404b47cf0b8ff5e215"
        )

    def test_measure_csv(self, capsys, tmp_path):
        dest = tmp_path / "h.csv"
        code, _, _ = run(
            ["measure", "--n", "3", "--map", "area-bounce", "--samples", "20000",
             "--seed", "11", "--grid", "12x12", "--out", str(dest)],
            capsys,
        )
        assert code == EXIT_OK
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == (
            "a81fd582f98e336b97febf7bdb830a1e43ecc4584a78186a50fb9311354bfb07"
        )

    def test_measure_n4_summary(self, capsys, tmp_path):
        code, out, _ = run(
            ["measure", "--n", "4", "--map", "area-bounce", "--samples", "20000",
             "--seed", "11", "--grid", "60x60", "--out", str(tmp_path / "h.csv")],
            capsys,
        )
        assert code == EXIT_OK
        assert "l1_to_exact_density" in json.loads(out)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "17b87ac848f1b7c6c82ad4777f8aad1633115061aeaccf820cbad816b232d00d"
        )

    def test_measure_n6_area_bounce(self, capsys, tmp_path):
        # n = 6 reaches the bounce pieces k >= 4 that n <= 4 never does
        dest = tmp_path / "h.csv"
        code, out, _ = run(
            ["measure", "--n", "6", "--map", "area-bounce", "--samples", "20000",
             "--seed", "11", "--grid", "15x15", "--out", str(dest)],
            capsys,
        )
        assert code == EXIT_OK
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == (
            "f4bfe91d168d3fa58bbf16a49bde85b0c977b68fef964231bf90d70526fd7ed2"
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "afbd1396e69866dcce6518e6f2a9e95805e86c355debcd0cd282e3c085902e34"
        )

    def test_measure_n8_csv_and_summary(self, capsys, tmp_path):
        # n = 8: the parking sampler, pinned when it replaced rejection there
        dest = tmp_path / "h.csv"
        code, out, _ = run(
            ["measure", "--n", "8", "--map", "dinv-area", "--samples", "2000", "--seed", "3",
             "--grid", "12x12", "--out", str(dest)],
            capsys,
        )
        assert code == EXIT_OK
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == (
            "8c02682d38efaf57768cb3dc303604486d070fca4e3e91607bc755a3f358d82d"
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b754bd7efd3811fc751afaf29bb07fc770448f4885a755ac8636e6aa770253a2"
        )

    def test_measure_csv_over_many_blocks(self, capsys, tmp_path):
        dest = tmp_path / "h.csv"
        code, _, _ = run(
            ["measure", "--n", "6", "--samples", "5000", "--seed", "2", "--grid", "12x12",
             "--out", str(dest)],
            capsys,
        )
        assert code == EXIT_OK
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == (
            "a98c3e85384c6a33929438e68fd52143be32bd21d97fc915b2db31ad8236e051"
        )

    def test_measure_dinv_area_partial_last_block(self, capsys, tmp_path):
        # 50001 points: twelve whole 4096-row kernel blocks and a partial one
        dest = tmp_path / "h.csv"
        code, out, _ = run(
            ["measure", "--n", "5", "--map", "dinv-area", "--samples", "50001", "--seed", "4",
             "--grid", "7x7", "--out", str(dest)],
            capsys,
        )
        assert code == EXIT_OK
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == (
            "51523bfa7d59be9660e18320b2ccc98d58fe05afb1dcf7fb52397ec716775dbd"
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f4ba488ccebc9a21c9269034fc38358b2bbb3dfecd689ad777b8f6344fde5411"
        )

    @pytest.mark.parametrize(
        "n, digest",
        [
            ("4", "271e47c2da00b45b252f868e754a92131ae7f903e2a600fa9bb06dc37514d434"),
            ("6", "5442eac59d439aa8d2e7b0175f64638d19d5aaa6af63ec7487bf01533e641d59"),
        ],
    )
    def test_preserve_json(self, capsys, n, digest):
        code, out, _ = run(["preserve", "--n", n, "--samples", "100000", "--seed", "2"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["0,0.6,1.2,0.5", "--m", "10"],
             "2e2f66f5519d0b16a2cb91a6888108d967547fd5555a703e58e0d55fc6156b5f"),
            (["0,2/3,5/3,5/3,1/3"],
             "bb24fd7dca014be60ffce38456069124f4e16db982ddc38d205a5d0c95cd0972"),
            (["0,0,0,0,0"],
             "6cd7b5d4c02486b82942e6eb170458a4fab6e2e3199af28b725fe30818e8c299"),
            ([",".join(f"{min(i, 40)}/2" for i in range(64)), "--m", "2"],
             "5bac81db6ee60a4fa6e3acc80996282727b1057500dd2c733bf6ca3dc22fbd79"),
        ],
    )
    def test_stats_json(self, capsys, argv, digest):
        # exact bounce vectors with ties: 5/3 = 2/3 + 1 and a flat path; at n = 64
        # the roots of each step j >= 4 stop rising after 3 to 42 of its j lines
        code, out, _ = run(["stats", *argv], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest
