"""Self-tests of the benchmark.  Run with: python3 -m pytest benchmarks"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stdout

import pytest

import run
import tracing
import workloads


@pytest.fixture(scope="module")
def qtcatalan():
    return run.load_program()


def test_smoke_runs_every_workload_with_declared_metrics(qtcatalan, capsys):
    assert run.smoke(qtcatalan, seed=5) == 0
    assert "smoke: ok" in capsys.readouterr().out


def test_corrupted_output_counts_in_error_rate(qtcatalan, monkeypatch):
    emit = qtcatalan.cli._emit

    def corrupt(text, out_path):
        emit(text.replace('"c": "1"', '"c": "2"', 1), out_path)

    monkeypatch.setattr(qtcatalan.cli, "_emit", corrupt)
    result = run.run_workload(qtcatalan, "poly", 1, 1.0, trace=False, smoke=True)
    assert result["failed"] == result["attempted"] == 2
    line = run.report(result)
    assert line["correct"] is False and line["failed"] == 2


def test_measure_check_rejects_a_corrupted_cell(qtcatalan):
    job = workloads.plan("mc-n4", 3, 1.0, smoke=True)[0][0]
    out = io.StringIO()
    with redirect_stdout(out):
        assert qtcatalan.cli.main(list(job.argv)) == 0
    text = out.getvalue()
    assert workloads.check(job, 0, text) is None
    header, first, rest = text.split("\n", 2)
    corrupted = "\n".join([header, first.rsplit(",", 1)[0] + ",1.0", rest])
    assert "sum to" in workloads.check(job, 0, corrupted)


def test_self_time_on_nested_spans():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None, "j"),
        S("a", 1.0, 4.0, 0, "j"),
        S("b", 3.0, 6.0, 0, "j"),  # overlaps a
        S("leaf", 1.0, 2.0, 1, "j", {"n": 3}),
        S("c", 9.0, 12.0, 0, "j", {"n": 4}),  # runs past its parent
        S("root", 20.0, 21.0, None, "k"),
        S("root", 20.2, 20.7, 5, "k"),  # same name nested: inclusive time counted once
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 0.5, 0.5])
    totals = tracing.per_job_totals(spans)
    assert totals["j"]["root_s"] == pytest.approx(4.0)
    assert totals["j"]["root@incl_s"] == pytest.approx(10.0)
    assert totals["j"]["n"] == 7
    assert totals["k"] == pytest.approx({"root_s": 1.0, "root@incl_s": 1.0})


def test_tracer_nests_wrapped_calls_and_restores(qtcatalan):
    original = qtcatalan.qtpoly.qt_catalan_dinv_area
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, qtcatalan):
        tracer.job = "j"
        assert qtcatalan.cli.main(["poly", "--n", "3", "--m", "1", "--out", "/dev/null"]) == 0
    assert qtcatalan.qtpoly.qt_catalan_dinv_area is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli"
    assert {"qtpoly.dinv_area", "qtpoly.area_bounce", "qtpoly.symmetry", "qtpoly.serialize"} <= set(names)
    assert all(s.parent == 0 for s in tracer.spans[1:])


def test_tail_has_ten_jobs_beyond_it():
    value, pct = run.tail([float(i) for i in range(1, 49)])
    assert value == 38.0 and sum(t > value for t in range(1, 49)) == 10
    assert math.isclose(pct, 100 * 38 / 48)


def test_plan_depends_only_on_seed():
    a = workloads.plan("converge", 7, 20.0)
    assert a == workloads.plan("converge", 7, 20.0)
    assert a != workloads.plan("converge", 8, 20.0)
    jobs = [j for cycle in a for j in cycle]
    assert len(jobs) >= workloads.MIN_JOBS
    assert sorted(int(j.argv[-1]) for j in a[0]) == list(workloads.CONVERGE_TOP_M)
