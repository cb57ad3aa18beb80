"""Benchmark of the qtcatalan command line, one workload per process.

Run from the repository root:

    python3 benchmarks/run.py --workload poly --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --trace 1
    python3 benchmarks/run.py --smoke

Each workload is a closed loop: one client in one single-threaded process
sends the next CLI call (`qtcatalan.cli.main`, in-process, output captured)
only when the previous one has returned.  Every output is checked.  The
untraced run (`--trace 0`) gives the end-to-end metrics; the traced run
(`--trace 1`) wraps the layer functions from outside and gives the per-layer
metrics.  The last line of standard output is one JSON object; the full
record of the run (environment, jobs, output digests, spans) goes to
`benchmarks/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5
# a run stops starting jobs once its jobs have taken this many times the
# plan's nominal duration, which bounds a run on a much slower machine
OVERRUN = 1.25
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import numpy, qtcatalan, qtcatalan.cli; "
    "print(repr(time.perf_counter() - t))"
)

END_TO_END_UNITS = {
    "setup_s": "s", "job_s_p50": "s", "job_s_tail": "s",
    "items_per_s": "items/s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "discrete.enumerate_s": "s", "discrete.dinv_s": "s", "discrete.bounce_s": "s",
    "discrete.paths": "count", "discrete.paths_per_s": "1/s",
    "qtpoly.dinv_area_s": "s", "qtpoly.area_bounce_s": "s", "qtpoly.symmetry_s": "s",
    "qtpoly.serialize_s": "s", "qtpoly.normalize_s": "s",
    "qtpoly.terms": "count", "qtpoly.atoms": "count",
    "measure.sample_s": "s", "measure.sample.proposed": "count",
    "measure.sample.accepted": "count", "measure.sample.accept_ratio": "ratio",
    "measure.sample.proposed_per_s": "1/s", "measure.sample.bytes_computed": "B",
    "measure.sample.peak_rss_mb": "MB", "measure.histogram_s": "s",
    "measure.kernel.dinv_s": "s", "measure.kernel.area_s": "s", "measure.kernel.bounce_s": "s",
    "measure.csv_s": "s", "measure.csv.bytes": "B", "measure.bin_s": "s",
    "measure.bin.atoms": "count", "measure.density_n4_s": "s", "measure.l1_s": "s",
    "measure.converge_s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
}


def load_program():
    """Import qtcatalan from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "qtcatalan" / "__init__.py").is_file():
        raise SystemExit(f"error: no qtcatalan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (part of the import cost being reported)
    import qtcatalan
    import qtcatalan.cli  # noqa: F401

    if SRC.resolve() not in Path(qtcatalan.__file__).resolve().parents:
        raise SystemExit(f"error: qtcatalan was imported from {qtcatalan.__file__}, not {SRC}")
    return qtcatalan


def fresh_import_seconds(samples: int) -> list[float]:
    """Import time of numpy + qtcatalan, each in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout))
    return out


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def run_job(qtcatalan, job: workloads.Job, job_id: str) -> dict:
    """One CLI call in this process, timed, with its output checked."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = qtcatalan.cli.main(list(job.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a job that raises is counted, and the loop goes on
        rc, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if error is None:
        error = workloads.check(job, rc, text)
    return {
        "id": job_id, "argv": list(job.argv), "items": job.items, "seconds": seconds,
        "rc": rc, "error": error, "warning": workloads.warning(job, text),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "stderr": err.getvalue()[-2000:],
    }


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten jobs beyond it, as
    (value, percentile).  Fewer than eleven jobs give the maximum."""
    ordered = sorted(times)
    count = len(ordered)
    if count < 11:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def end_to_end(records: list[dict], setup: list[float]) -> tuple[dict, dict]:
    times = [r["seconds"] for r in records]
    value, pct = tail(times)
    items = sum(r["items"] for r in records if r["error"] is None)
    metrics = {
        "setup_s": statistics.median(setup),
        "job_s_p50": statistics.median(times),
        "job_s_tail": value,
        "items_per_s": items / sum(times),
        "peak_rss_mb": tracing.peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh-interpreter imports",
        "job_s_p50": f"{len(times)} jobs",
        "job_s_tail": f"p{pct:.1f} of {len(times)} jobs, {min(10, len(times) - 1)} beyond it",
        "items_per_s": f"{items} items in {sum(times):.3f} s of jobs",
        "peak_rss_mb": "ru_maxrss at the end of the workload",
    }
    return metrics, notes


def layer_values(tracer: tracing.Tracer, traced: list[tuple[dict, workloads.Job]]) -> list[dict]:
    """Per traced job: self times, inclusive times and counters, with the
    discrete probe of the job's (n, m) points added in."""
    totals = tracing.per_job_totals(tracer.spans)
    rows = []
    for record, job in traced:
        row = dict(totals.get(record["id"], {}))
        for n, m in job.points:
            for key, value in totals[f"probe:{n},{m}"].items():
                row[key] = row.get(key, 0.0) + value
        ratio = lambda a, b: row.get(a, 0.0) / row[b] if row.get(b) else 0.0  # noqa: E731
        row["cli.self_s"] = row.get("cli_s", 0.0)
        row["discrete.paths_per_s"] = ratio("discrete.paths", "discrete.enumerate_s")
        row["measure.sample.accept_ratio"] = ratio("measure.sample.accepted", "measure.sample.proposed")
        row["measure.sample.proposed_per_s"] = ratio("measure.sample.proposed", "measure.sample_s")
        row["job_s"] = record["seconds"]
        rows.append(row)
    return rows


def dominance(name: str, rows: list[dict]) -> dict | None:
    """Check that the workload is dominated by the layer it exists for."""
    med = lambda key: statistics.median(r.get(key, 0.0) for r in rows)  # noqa: E731
    if name == "mc-n8":
        share = statistics.median(r.get("measure.sample@incl_s", 0.0) / r["job_s"] for r in rows)
        return {"rule": "measure.sample >= 80% of the job", "value": share, "ok": share >= 0.8}
    if name == "mc-n4":
        spans = {k[:-len("@incl_s")] for r in rows for k in r if k.endswith("@incl_s")} - {"cli"}
        largest = max(spans, key=lambda s: med(s + "@incl_s"))
        return {"rule": "measure.histogram is the largest span", "value": largest,
                "ok": largest == "measure.histogram"}
    if name == "poly":
        ab, da = med("qtpoly.area_bounce_s"), med("qtpoly.dinv_area_s")
        return {"rule": "qtpoly.area_bounce_s > qtpoly.dinv_area_s", "value": [ab, da], "ok": ab > da}
    return None


def run_workload(qtcatalan, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    cycles = workloads.plan(name, seed, seconds, smoke)
    jobs = [job for cycle in cycles for job in cycle]
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "smoke": smoke, "environment": environment(),
              "plan": {"cycles": len(cycles), "jobs": len(jobs), "loop": "closed, 1 client"}}
    setup = result["setup_samples"] = fresh_import_seconds(1 if smoke else SETUP_SAMPLES)
    tracer = tracing.Tracer()
    # the first cycle also runs untraced, next to its traced twin, to measure
    # what tracing adds; which twin runs first alternates, so that warm-up
    # favours neither
    paired = max(len(cycles[0]), 4) if trace else 0
    untraced, records = [], []
    probed = set()
    limit = OVERRUN * len(jobs) * workloads.NOMINAL_JOB_S[name]
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if len(records) >= workloads.MIN_JOBS and sum(r["seconds"] for r in records) > limit:
            result["truncated_at_job"] = i
            break
        if i < paired and i % 2 == 0:
            untraced.append(run_job(qtcatalan, job, f"pair{i}"))
        tracer.job = f"job{i}"
        with tracing.instrument(tracer, qtcatalan) if trace else nullcontext():
            records.append(run_job(qtcatalan, job, tracer.job))
        if i < paired and i % 2 == 1:
            untraced.append(run_job(qtcatalan, job, f"pair{i}"))
        if not trace:
            continue
        for n, m in sorted(set(job.points) - probed):
            tracer.job = f"probe:{n},{m}"
            paths = tracing.probe_discrete(tracer, qtcatalan.discrete, n, m, job.stats)
            if paths != workloads.catalan_m(n, m):
                raise RuntimeError(f"probe enumerated {paths} paths at (n={n}, m={m})")
            probed.add((n, m))
    result["loop_seconds"] = time.perf_counter() - start
    metrics, notes = end_to_end(records, setup)
    result.update(end_to_end=metrics, notes=notes)
    if trace:
        rows = layer_values(tracer, list(zip(records, jobs)))
        layer = {key: statistics.median(r.get(key, 0.0) for r in rows)
                 for key in PER_LAYER_UNITS if key != "trace.overhead_s"}
        traced_paired = [r["seconds"] for r in records[:len(untraced)]]
        layer["trace.overhead_s"] = (statistics.median(traced_paired)
                                     - statistics.median(r["seconds"] for r in untraced))
        result.update(per_layer=layer, dominance=dominance(name, rows),
                      spans=tracer.to_records())
    all_records = untraced + records
    result["jobs"] = all_records
    result["attempted"] = len(all_records)
    result["failed"] = sum(r["error"] is not None for r in all_records)
    return result


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(result: dict) -> dict:
    """Print the run for a reader, and return the one-line result object."""
    trace = bool(result["trace"])
    env = result["environment"]
    print(f"# workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"{result['plan']['jobs']} jobs in {result['plan']['cycles']} cycles, "
          f"{result['plan']['loop']}, {result['loop_seconds']:.1f} s"
          + (f", stopped at job {result['truncated_at_job']}" if "truncated_at_job" in result else ""))
    print(f"# git {env['git_sha']}  python {env['python']}  numpy {env['numpy']}  "
          f"nproc {env['nproc']}  loadavg {env['loadavg_at_start']}  threads {env['thread_env']}")
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    values = result["per_layer"] if trace else result["end_to_end"]
    for key, unit in units.items():
        note = "" if trace else "  (" + result["notes"][key] + ")"
        print(f"{key:32s} {values[key]:.6g} {unit}{note}")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':32s} {rate:.6g} fraction  ({result['failed']} of {result['attempted']} jobs)")
    for record in result["jobs"]:
        if record["error"] is not None:
            print(f"FAILED {record['id']} {' '.join(record['argv'])}: {record['error'].strip()}")
    warned = [r for r in result["jobs"] if r["warning"]]
    if warned:
        print(f"WARNING {len(warned)} of {result['attempted']} outputs: {warned[0]['warning']}")
    if result.get("dominance"):
        d = result["dominance"]
        print(f"dominance {'PASS' if d['ok'] else 'FAIL'}: {d['rule']} ({d['value']})")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def check_declared(line: dict, trace: bool) -> None:
    produced = {k: v["unit"] for k, v in line["metrics"].items()}
    declared = declared_units(trace)
    if produced != declared:
        raise SystemExit(f"error: metrics {produced} do not match BENCHMARK.json {declared}")


def smoke(qtcatalan, seed: int) -> int:
    """Every workload once at tiny sizes, untraced and traced."""
    bad = 0
    for name in workloads.WORKLOAD_NAMES:
        for trace in (False, True):
            line = report(run_workload(qtcatalan, name, seed, 1.0, trace, smoke=True))
            check_declared(line, trace)
            bad += not line["correct"]
    print(f"smoke: {'ok' if bad == 0 else f'{bad} run(s) with failed outputs'}")
    return 0 if bad == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="sizes the job plan: about this long on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes and check metric names")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")

    if args.workload == "all" and not args.smoke:
        worst = 0
        for name in workloads.WORKLOAD_NAMES:
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                  cwd=ROOT)
            worst = max(worst, proc.returncode)
        return worst

    qtcatalan = load_program()
    if args.smoke:
        return smoke(qtcatalan, args.seed)
    result = run_workload(qtcatalan, args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(result)
    check_declared(line, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
