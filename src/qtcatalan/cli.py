"""Command-line front end.

Subcommands: poly, stats, measure, converge, preserve, verify.  All outputs are
machine-readable (JSON or CSV) and byte-deterministic for a fixed seed.
Exit codes: 0 ok, 1 check failure, 2 usage error, 3 enumeration or sampling
budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from fractions import Fraction

from . import continuous, discrete, measure, qtpoly

DEFAULT_BUDGET = 10_000_000
MAX_GRID_CELLS = 10**6  # histograms and density grids are dense arrays of this many cells

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        w, h = (int(v) for v in text.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 60x60, got {text!r}") from exc
    if w < 1 or h < 1:
        raise argparse.ArgumentTypeError(f"grid sizes must be positive, got {text!r}")
    if w * h > MAX_GRID_CELLS:
        raise argparse.ArgumentTypeError(f"grid has more than {MAX_GRID_CELLS:,} cells, got {text!r}")
    return (w, h)


def _parse_seed(text: str) -> int:
    if not text.isdecimal():  # int() reads every string of decimal digits
        raise argparse.ArgumentTypeError("must be a non-negative integer (from --seed or CATALAN_SEED)")
    return int(text)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(data: dict) -> str:
    # json.dump writes each chunk as it is made; json.dumps with indent joins them all at the end
    buf = io.StringIO()
    json.dump(data, buf, indent=2, sort_keys=True)
    buf.write("\n")
    return buf.getvalue()


def _error(exc: Exception) -> int:
    """Print one error line; exit 1 for an invalid path, 3 for a budget, else 2."""
    print(f"error: {exc}", file=sys.stderr)
    if isinstance(exc, discrete.InvalidPathError):
        return EXIT_CHECK_FAILURE
    if isinstance(exc, discrete.BudgetExceededError):
        return EXIT_BUDGET
    return EXIT_USAGE


def cmd_poly(args: argparse.Namespace) -> int:
    da = qtpoly.qt_catalan_dinv_area(args.n, args.m, budget=args.budget)
    ab = qtpoly.qt_catalan_area_bounce(args.n, args.m, budget=args.budget)
    equal = da == ab
    symmetric = qtpoly.transpose(da) == da
    if args.format == "csv":
        _emit(da.to_csv(), args.out)
    else:
        payload = da.to_json_dict(args.n, args.m)
        payload["equal_definitions"] = equal
        payload["symmetric"] = symmetric
        payload["value_at_1_1"] = str(da.evaluate(1, 1))
        _emit(_dump_json(payload), args.out)
    return EXIT_OK if (equal and symmetric) else EXIT_CHECK_FAILURE


def cmd_stats(args: argparse.Namespace) -> int:
    try:
        av = [Fraction(tok) for tok in args.area_vector.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse area vector: {exc}") from exc
    path = continuous.ContinuousPath(av)
    if args.m is not None:  # the one check of --m, before any other work
        a_m, d_m, b_m = continuous.normalized_m_stats(path, args.m)
    bv = continuous.bounce_vector(path)
    image = continuous.transform_T(path)
    report = {
        "n": path.n,
        "area_vector": [str(a) for a in path.area_vector],
        "area": str(continuous.area(path)),
        "dinv": str(continuous.dinv(path)),
        "bounce_vector": [str(b) for b in bv.b],
        "bounce": str(sum(bv.b, start=Fraction(0))),
        "T_area_vector": [str(a) for a in image.area_vector],
        "T_area": str(continuous.area(image)),
        "T_bounce": str(continuous.bounce(image)),
    }
    if args.m is not None:
        report["m"] = args.m
        report["normalized_area"] = str(a_m)
        report["normalized_dinv"] = str(d_m)
        report["normalized_bounce"] = str(b_m)
    _emit(_dump_json(report), args.out)
    return EXIT_OK


def cmd_measure(args: argparse.Namespace) -> int:
    if args.grid[0] != args.grid[1]:
        raise ValueError(f"measure needs a square grid, got {args.grid[0]}x{args.grid[1]}")
    stream = measure.SampleStream(args.n, args.samples, args.seed)
    # opened (and truncated) after the caps but before drawing, so a bad path wastes no work
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        hist = measure.pushforward_histogram(stream, args.map, args.grid)
        summary = {
            "n": args.n,
            "samples": args.samples,
            "seed": args.seed,
            "grid": list(args.grid),
            "map": args.map,
            "total_weight": hist.total_weight,
            "volume": str(measure.polytope_volume(args.n)),
            "acceptance_ratio": stream.acceptance_ratio,
            "symmetry_deviation": hist.transpose_deviation(),
        }
        if args.n == 4:
            exact = measure.density_n4_cell_integrals(args.grid)
            summary["l1_to_exact_density"] = measure.l1_distance(hist, exact)
        out.write(hist.to_csv())
    sys.stdout.write(_dump_json(summary))
    return EXIT_OK


def cmd_converge(args: argparse.Namespace) -> int:
    report = measure.convergence_report(args.n, args.m_list, resolution=args.grid,
                                        budget=args.budget)
    _emit(_dump_json(report), args.out)
    return EXIT_OK


def cmd_preserve(args: argparse.Namespace) -> int:
    report = measure.measure_preservation_check(args.n, count=args.samples, seed=args.seed)
    sys.stdout.write(_dump_json(report))
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILURE


def _verify_checks(level: str):
    """Yield (name, passed) pairs for the worked-example and oracle suites."""
    ref5 = discrete.MDyckPath(n=5, m=2, area_vector=(0, 1, 0, 2, 3))
    yield "ref5-area", discrete.area_m(ref5) == 6
    yield "ref5-dinv", discrete.dinv_m(ref5) == 7
    yield "ref5-bounce", discrete.bounce_m(ref5) == 11
    bp = discrete.bounce_path_m(ref5)
    yield "ref5-bounce-path", (bp.v, bp.h) == ((1, 1, 0, 2, 1, 0), (1, 2, 1, 2, 3, 1))

    worked = continuous.ContinuousPath([0, Fraction("0.6"), Fraction("1.2"), Fraction("0.5")])
    yield "worked-area", continuous.area(worked) == Fraction("2.3")
    yield "worked-dinv", continuous.dinv(worked) == Fraction("2.5")
    yield "worked-bounce-vector", continuous.bounce_vector(worked).b == (
        Fraction(0), Fraction(2, 5), Fraction(3, 5), Fraction(5, 4),
    )
    yield "worked-bounce", continuous.bounce(worked) == Fraction("2.25")
    image = continuous.transform_T(worked)
    yield "worked-T", image.area_vector == (
        Fraction(0), Fraction(1, 2), Fraction(13, 10), Fraction(7, 10),
    )
    yield "worked-T-area", continuous.area(image) == Fraction("2.5")
    yield "worked-T-bounce", continuous.bounce(image) == Fraction("2.3")

    ex = continuous.ContinuousPath([0, 1, 1])
    yield "example-cont-area", continuous.area(ex) == 2
    yield "example-cont-dinv", continuous.dinv(ex) == 1
    yield "example-cont-bounce", continuous.bounce(ex) == Fraction(1, 2)

    if level == "full":
        for n in range(1, 6):
            for m in range(1, 4):
                paths = list(discrete.enumerate_m_dyck(n, m))
                count_ok = len(paths) == discrete.catalan_number_m(n, m)
                images = set()
                transport_ok = True
                for p in paths:
                    q = discrete.phi_m(p)
                    images.add(q.area_vector)
                    transport_ok &= (discrete.dinv_m(p) == discrete.area_m(q)
                                     and discrete.area_m(p) == discrete.bounce_m(q))
                yield f"count-n{n}-m{m}", count_ok
                yield f"phi-transport-n{n}-m{m}", transport_ok
                yield f"phi-bijective-n{n}-m{m}", len(images) == len(paths)
        import random

        rng = random.Random(1729)
        for n in range(2, 8):
            ok = True
            for _ in range(50):
                bv = _random_generic_bounce_vector(n, rng)
                ok &= continuous.jacobian_count(bv) == continuous.sort_preimage_count(bv)
            yield f"jacobian-oracle-n{n}", ok


def _random_generic_bounce_vector(n: int, rng) -> continuous.BounceVector:
    den = 997
    while True:
        b = [Fraction(0)]
        for _ in range(n - 1):
            b.append(b[-1] + Fraction(rng.randint(0, den), den))
        try:
            bv = continuous.BounceVector(b)
            continuous.jacobian_count(bv)
            return bv
        except continuous.DegenerateInputError:
            continue


def cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    for name, passed in _verify_checks(args.level):
        status = "ok" if passed else "FAIL"
        print(f"{status:4s} {name}")
        if not passed:
            failures += 1
    print(f"{failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtcatalan",
        description="Higher q,t-Catalan polynomials, continuous Dyck path "
        "statistics, and their limiting measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default goes through type=_parse_seed, so a bad CATALAN_SEED exits 2
    seed_default = os.environ.get("CATALAN_SEED", "0")

    p = sub.add_parser("poly", help="compute the q,t-Catalan polynomial for (n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("stats", help="statistics of a continuous path given its area vector")
    p.add_argument("area_vector", help='comma-separated rationals, e.g. "0,0.6,1.2,0.5"')
    p.add_argument("--m", type=int, default=None, help="also report normalized m-statistics")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("measure", help="Monte Carlo pushforward histogram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=_parse_seed, default=seed_default)
    p.add_argument("--grid", type=_parse_grid, default=(60, 60))
    p.add_argument("--map", choices=("dinv-area", "area-bounce"), default="dinv-area")
    p.add_argument("--out", default=None, help="write histogram CSV here; summary JSON on stdout")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("converge", help="distances of normalized discrete measures to the limit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-list", dest="m_list", type=int, nargs="+", required=True)
    p.add_argument("--grid", type=_parse_grid, default=(60, 60))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("preserve", help="invariance of the sampling measure under T")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=_parse_seed, default=seed_default)
    p.set_defaults(func=cmd_preserve)

    p = sub.add_parser("verify", help="run the built-in worked-example and oracle checks")
    p.add_argument("level", choices=("fast", "full"), nargs="?", default="fast")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, discrete.BudgetExceededError) as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
