"""Spans recorded from outside the program, and the per-layer numbers built
from them.

A `Tracer` keeps every span in memory (name, start, end, parent, job id) and
per-span counters.  `instrument` wraps public functions of the qtcatalan
modules by replacing module and class attributes, so the calls that
`cli.main` makes nest under the job span without any change to `src/`.
Nothing here runs unless the benchmark asks for a traced run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import resource
import time
from dataclasses import dataclass, field


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    counters: dict[str, float] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.job = ""

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        sp = Span(name, time.perf_counter(), 0.0, parent, self.job)
        self.spans.append(sp)
        self._open.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "job": s.job, "counters": s.counters}
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    direct children (children clipped to the parent, overlaps merged)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def _inside_same_name(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False


def per_job_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """job id -> {"<span name>_s": summed self time, "<span name>@incl_s":
    summed inclusive time of the outermost spans of that name, "<counter>":
    summed value (peaks: maximum)}."""
    totals: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        job = totals.setdefault(s.job, {})
        job[s.name + "_s"] = job.get(s.name + "_s", 0.0) + self_s
        if not _inside_same_name(spans, s):
            job[s.name + "@incl_s"] = job.get(s.name + "@incl_s", 0.0) + (s.end - s.start)
        for key, value in s.counters.items():
            merge = max if key.endswith("peak_rss_mb") else float.__add__
            job[key] = merge(float(job.get(key, 0.0)), float(value))
    return totals


# ---------------------------------------------------------------------------
# Layer instrumentation.


def _poly_terms(args, result):
    return {"qtpoly.terms": len(result.coeffs)}


def _measure_atoms(args, result):
    return {"qtpoly.atoms": len(result.atoms)}


def _bin_atoms(args, result):
    return {"measure.bin.atoms": len(args[0].atoms)}


def _csv_bytes(args, result):
    return {"measure.csv.bytes": len(result.encode())}


def _sample_counts(args, result):
    return {
        "measure.sample.proposed": result.proposed,
        "measure.sample.accepted": result.accepted,
        "measure.sample.bytes_computed": result.proposed * result.n * 8,
        "measure.sample.peak_rss_mb": peak_rss_mb(),
    }


def _layer_table(qtcatalan):
    """(owner, attribute, span name, counter function) for every wrapped call."""
    cli, measure, qtpoly = qtcatalan.cli, qtcatalan.measure, qtcatalan.qtpoly
    Poly, Hist = qtpoly.QtPolynomial, measure.Histogram2D
    return [
        (cli, "main", "cli", None),
        (qtpoly, "qt_catalan_dinv_area", "qtpoly.dinv_area", _poly_terms),
        (qtpoly, "qt_catalan_area_bounce", "qtpoly.area_bounce", None),
        (qtpoly, "transpose", "qtpoly.symmetry", None),
        (Poly, "__eq__", "qtpoly.symmetry", None),
        (Poly, "to_json_dict", "qtpoly.serialize", None),
        (Poly, "to_csv", "qtpoly.serialize", None),
        (Poly, "evaluate", "qtpoly.serialize", None),
        (qtpoly, "to_normalized_measure", "qtpoly.normalize", _measure_atoms),
        (measure, "sample_area_polytope", "measure.sample", _sample_counts),
        (measure, "pushforward_histogram", "measure.histogram", None),
        (measure, "batch_dinv", "measure.kernel.dinv", None),
        (measure, "batch_area", "measure.kernel.area", None),
        (measure, "batch_bounce", "measure.kernel.bounce", None),
        (measure, "batch_bounce_vector", "measure.kernel.bounce", None),
        (Hist, "to_csv", "measure.csv", _csv_bytes),
        (measure, "bin_discrete_measure", "measure.bin", _bin_atoms),
        (measure, "density_n4_cell_integrals", "measure.density_n4", None),
        (measure, "l1_distance", "measure.l1", None),
        (measure, "convergence_report", "measure.converge", None),
    ]


def _wrap(tracer: Tracer, fn, name: str, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
            if count is not None:
                sp.counters.update(count(args, result))
            return result

    return wrapper


def probe_discrete(tracer: Tracer, discrete, n: int, m: int, stats: tuple[str, ...],
                   chunk: int = 1 << 16) -> int:
    """Drain `enumerate_m_dyck(n, m)` in chunks and apply the named
    statistics (`dinv` -> `dinv_m`, `bounce` -> `bounce_m`) to every path.
    Per-path calls are too fine to wrap, so this runs outside any job span.
    Returns the number of paths."""
    kernels = {"dinv": discrete.dinv_m, "bounce": discrete.bounce_m}
    paths_iter = discrete.enumerate_m_dyck(n, m)
    total = 0
    while True:
        with tracer.span("discrete.enumerate") as sp:
            paths = list(itertools.islice(paths_iter, chunk))
            sp.counters["discrete.paths"] = len(paths)
        if not paths:
            return total
        total += len(paths)
        for stat in stats:
            with tracer.span("discrete." + stat):
                sum(map(kernels[stat], paths))


@contextlib.contextmanager
def instrument(tracer: Tracer, qtcatalan):
    """Wrap the public layer functions for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in _layer_table(qtcatalan):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, count))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
