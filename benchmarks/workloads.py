"""The four benchmark workloads: seeded job plans and output checks.

A job is one argv list for `qtcatalan.cli.main`.  Plans are built from the
seed alone; the program sees nothing but the argv.  Every output is checked
against facts the benchmark derives itself (closed-form counts, volumes,
symmetry), so the checks hold for any seed and need no golden files.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

# Fewest jobs in a run: `job_s_tail` needs a percentile with ten jobs beyond it.
MIN_JOBS = 11

# Points of `poly`, 7e3 to 5.4e4 paths each.  m runs from 2 to 20 because the
# m-bounce kernel's share of a job grows with m.  A cycle visits every point
# once, so every run has the same mix and only the order is seeded.  An odd
# count whose job times are well apart puts the median and the tail inside
# one point's jobs rather than between two points.
POLY_POINTS = ((6, 3), (7, 2), (5, 6), (5, 7), (8, 2), (7, 3), (4, 20))
# Largest m of a `converge` m-list, one per job of a cycle; its C(4, m)
# paths (1.8e5 to 6e5) dominate the job, the two smaller m values add <3 %.
CONVERGE_TOP_M = (40, 45, 50, 55, 60)

# Mean job wall time on the reference machine (2 vCPU x86-64 VM, Python
# 3.11, numpy 2.4) at its slower times; its speed drifts by up to 1.5x over
# an hour.  They size the plan from --seconds once, so the parent and a
# change run identical jobs whatever their speed.
NOMINAL_JOB_S = {"poly": 0.56, "converge": 2.50, "mc-n4": 1.60, "mc-n8": 2.20}

# Sample-size-scaled Monte Carlo bounds: the observed value times
# sqrt(samples) / volume is about 20-31 for both statistics at 500 to 10^6
# samples; the bounds leave twice that.
SYMMETRY_C = 60.0
L1_C = 45.0

WORKLOAD_NAMES = ("poly", "converge", "mc-n4", "mc-n8")

# `Histogram2D.to_csv` formats numpy scalars with `!r`, which numpy >= 2
# spells `np.float64(0.5)`.  The values are right, so the check reads them;
# `warning` reports the spelling on every such output.
NUMPY_REPR = re.compile(r"np\.float64\(([^()]*)\)")


def catalan_m(n: int, m: int) -> int:
    return math.comb((m + 1) * n, n) // (m * n + 1)


def polytope_volume(n: int) -> Fraction:
    return Fraction(n ** (n - 2), math.factorial(n - 1))


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    items: int  # m-Dyck paths (poly, converge) or accepted samples (mc-*)
    points: tuple[tuple[int, int], ...] = ()  # (n, m) the discrete probe visits
    stats: tuple[str, ...] = ()  # discrete statistics the command computes


def _cycles(name: str, seconds: float, cycle_len: int) -> int:
    wanted = round(seconds / (NOMINAL_JOB_S[name] * cycle_len))
    return max(wanted, math.ceil(MIN_JOBS / cycle_len))


def plan(name: str, seed: int, seconds: float, smoke: bool = False) -> list[list[Job]]:
    """The jobs of one run, grouped in cycles.  `smoke` gives one tiny cycle."""
    rng = random.Random(f"{name}:{seed}")
    if name == "poly":
        points = ((4, 2), (3, 3)) if smoke else POLY_POINTS
        cycles = []
        for _ in range(1 if smoke else _cycles(name, seconds, len(points))):
            order = rng.sample(points, len(points))
            cycles.append([
                Job(("poly", "--n", str(n), "--m", str(m)), catalan_m(n, m),
                    ((n, m),), ("dinv", "bounce"))
                for n, m in order
            ])
        return cycles
    if name == "converge":
        tops = (5,) if smoke else CONVERGE_TOP_M
        cycles = []
        for _ in range(1 if smoke else _cycles(name, seconds, len(tops))):
            cycle = []
            for top in rng.sample(tops, len(tops)):
                ms = (rng.randint(2, 3), 4, top) if smoke else (rng.randint(2, 6), rng.randint(8, 15), top)
                grid = "12x12" if smoke else "60x60"
                cycle.append(Job(
                    ("converge", "--n", "4", "--grid", grid, "--m-list", *map(str, ms)),
                    sum(catalan_m(4, m) for m in ms), tuple((4, m) for m in ms), ("dinv",),
                ))
            cycles.append(cycle)
        return cycles
    if name in ("mc-n4", "mc-n8"):
        n, stat_map, samples = (4, "area-bounce", 1_000_000) if name == "mc-n4" else (8, "dinv-area", 100_000)
        if smoke:
            samples = 2000 if n == 4 else 500
        count = 1 if smoke else _cycles(name, seconds, 1)
        return [[
            Job(("measure", "--n", str(n), "--map", stat_map, "--samples", str(samples),
                 "--grid", "60x60", "--seed", str(rng.randrange(2**31))), samples)
        ] for _ in range(count)]
    raise ValueError(f"unknown workload {name!r}")


def _arg(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check(job: Job, rc: int | None, out: str) -> str | None:
    """Return why the output of `job` is wrong, or None when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return {"poly": _check_poly, "converge": _check_converge, "measure": _check_measure}[
            job.argv[0]
        ](job, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def warning(job: Job, out: str) -> str | None:
    """A defect of the output format that is not a wrong result."""
    if job.argv[0] == "measure" and NUMPY_REPR.search(out):
        return "histogram CSV spells values as np.float64(...), not plain numbers"
    return None


def _check_poly(job: Job, out: str) -> str | None:
    n, m = int(_arg(job.argv, "--n")), int(_arg(job.argv, "--m"))
    data = json.loads(out)
    coeffs = {(t["q"], t["t"]): int(t["c"]) for t in data["terms"]}
    count = catalan_m(n, m)
    if (data["n"], data["m"]) != (n, m):
        return "wrong (n, m) echoed"
    if data["equal_definitions"] is not True:
        return "dinv-area and area-bounce constructions differ"
    if data["symmetric"] is not True or coeffs != {(j, i): c for (i, j), c in coeffs.items()}:
        return "polynomial is not transpose-symmetric"
    if data["value_at_1_1"] != str(count) or sum(coeffs.values()) != count:
        return f"value at (1, 1) is not C({n},{m}) = {count}"
    return None


def _check_converge(job: Job, out: str) -> str | None:
    ms = [int(v) for v in job.argv[job.argv.index("--m-list") + 1:]]
    data = json.loads(out)
    expected = [Fraction(catalan_m(4, m), m**3) for m in ms]
    if [Fraction(w) for w in data["total_weights"]] != expected:
        return "total weights differ from C(4, m) / m^3"
    if data["limit_weight"] != "8/3":
        return f"limit weight {data['limit_weight']} is not 8/3"
    dist = data["distances"]
    if len(dist) != len(ms) or not all(math.isfinite(d) and d >= 0 for d in dist):
        return f"distances {dist} are not finite and non-negative"
    return None


def _check_measure(job: Job, out: str) -> str | None:
    n, samples = int(_arg(job.argv, "--n")), int(_arg(job.argv, "--samples"))
    gx, gy = map(int, _arg(job.argv, "--grid").split("x"))
    split = out.index("{")
    rows = NUMPY_REPR.sub(r"\1", out[:split]).splitlines()
    summary = json.loads(out[split:])
    vol = polytope_volume(n)
    if summary["volume"] != str(vol):
        return f"volume {summary['volume']} is not {vol}"
    if abs(summary["total_weight"] - float(vol)) > 1e-12 * float(vol):
        return f"total weight {summary['total_weight']!r} is not vol(A_{n}) = {float(vol)!r}"
    if len(rows) != 1 + gx * gy:
        return f"histogram has {len(rows) - 1} cells, expected {gx * gy}"
    csv_total = sum(float(row.rsplit(",", 1)[1]) for row in rows[1:])
    if abs(csv_total - float(vol)) > 1e-9 * float(vol):
        return f"histogram cells sum to {csv_total!r}, not {float(vol)!r}"
    scale = float(vol) / math.sqrt(samples)
    if summary["symmetry_deviation"] > SYMMETRY_C * scale:
        return f"symmetry deviation {summary['symmetry_deviation']!r} exceeds {SYMMETRY_C * scale!r}"
    if n == 4 and summary["l1_to_exact_density"] > L1_C * scale:
        return f"L1 to exact density {summary['l1_to_exact_density']!r} exceeds {L1_C * scale!r}"
    return None
