"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource cap.
JSON reports carry "schema": 1 and are byte-identical for identical inputs
(sorted keys, no timestamps).  Exact values print as rationals; the grid
fallback prints a certified enclosure, never a rounded point.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from ._rational import format_fraction, render_decimal, to_fraction
from .compression import clamp_construct
from .errors import (
    ContractError,
    DomainError,
    ResourceCapError,
    ValidationError,
    VerificationError,
)
from .experiments import (
    SEMICONTINUITY_CSV_COLUMNS,
    SHARPNESS_CSV_COLUMNS,
    semicontinuity_profile,
    sharpness_sweep,
    verify_counterexample,
)
from .measures import DiscreteMeasure, partial_diameter, push_forward
from .mmspace import FULL_LINE, FiniteMMSpace, Interval, parse_screen, screen_to_str
from .observable import observable_diameter, od_grid_oracle, witness_partial_diameter
from .prokhorov import prokhorov_onesided, prokhorov_symmetric
from .proptests import SUITE_NAMES, run_suite

__all__ = ["main"]

SCHEMA = 1


def _emit_json(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_csv(columns, rows) -> None:
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def _fraction_arg(text: str, what: str) -> Fraction:
    return to_fraction(text, what=what)


# -- pd ---------------------------------------------------------------------


def _cmd_pd(args) -> int:
    mu = DiscreteMeasure.load(args.measure)
    alpha = _fraction_arg(args.alpha, "alpha")
    result = partial_diameter(mu, alpha)
    if args.format == "json":
        window = None
        if result.window is not None:
            window = [format_fraction(result.window[0]), format_fraction(result.window[1])]
        _emit_json(
            {
                "command": "pd",
                "alpha": format_fraction(alpha),
                "value": format_fraction(result.value),
                "value_decimal": render_decimal(result.value),
                "window": window,
            }
        )
    else:
        print(format_fraction(result.value))
        if result.window is not None:
            lo, hi = result.window
            print(f"window: [{format_fraction(lo)}, {format_fraction(hi)}]")
    return 0


# -- compress ----------------------------------------------------------------


def _cmd_compress(args) -> int:
    mu = DiscreteMeasure.load(args.measure)
    alpha = _fraction_arg(args.alpha, "alpha")
    radius = _fraction_arg(args.radius, "radius")
    f = clamp_construct(mu, alpha, radius)
    source_pd = partial_diameter(mu, alpha).value
    image_pd = partial_diameter(push_forward(mu, f), alpha).value
    expected = min(radius, source_pd)
    limit = radius / alpha
    lo, hi = f.bounds()
    checks = {
        "one_lipschitz": f.is_one_lipschitz(),
        "range_within_budget": lo is not None and hi is not None and -limit <= lo and hi <= limit,
        "pd_equality": image_pd == expected,
    }
    ok = all(checks.values())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(f.to_json_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.format == "json":
        _emit_json(
            {
                "command": "compress",
                "alpha": format_fraction(alpha),
                "radius": format_fraction(radius),
                "map": f.to_json_dict(),
                "source_pd": format_fraction(source_pd),
                "image_pd": format_fraction(image_pd),
                "expected_pd": format_fraction(expected),
                "range_limit": format_fraction(limit),
                "checks": checks,
                "ok": ok,
            }
        )
    else:
        print(f"pd(source) = {format_fraction(source_pd)}")
        verdict = "OK" if checks["pd_equality"] else "FAIL"
        print(
            f"pd(image) = {format_fraction(image_pd)} = "
            f"min{{{format_fraction(radius)}, {format_fraction(source_pd)}}}: {verdict}"
        )
        print(f"1-Lipschitz: {'OK' if checks['one_lipschitz'] else 'FAIL'}")
        print(
            f"range within [-{format_fraction(limit)}, {format_fraction(limit)}]: "
            f"{'OK' if checks['range_within_budget'] else 'FAIL'}"
        )
        if args.out:
            print(f"map written to {args.out}")
    return 0 if ok else 1


# -- od ----------------------------------------------------------------------


def _cmd_od(args) -> int:
    space = FiniteMMSpace.load(args.space)
    screen = parse_screen(args.screen)
    kappa = _fraction_arg(args.kappa, "kappa")
    if args.tol is not None and _fraction_arg(args.tol, "tol") <= 0:
        raise DomainError("tol must be positive")
    if args.grid_step is not None:
        step = _fraction_arg(args.grid_step, "grid step")
        cap = args.cap_n if args.cap_n is not None else 4
        value = od_grid_oracle(space, screen, kappa, step, cap_n=cap)
        upper = value + (len(space) - 1) * step
        if args.format == "json":
            _emit_json(
                {
                    "command": "od",
                    "screen": screen_to_str(screen),
                    "kappa": format_fraction(kappa),
                    "certified": "interval",
                    "grid_step": format_fraction(step),
                    "lower": format_fraction(value),
                    "upper": format_fraction(upper),
                }
            )
        else:
            print(
                f"[{format_fraction(value)}, {format_fraction(upper)}] "
                f"(certified interval, grid step {format_fraction(step)})"
            )
        return 0
    cap = args.cap_n if args.cap_n is not None else 8
    result = observable_diameter(space, screen, kappa, cap_n=cap)
    # re-validate the witness before printing anything
    result.witness.validate(space, screen)
    achieved = witness_partial_diameter(space, result.witness, 1 - kappa)
    if achieved != result.value:
        raise VerificationError(
            f"witness re-validation failed: pd {achieved} != reported {result.value}"
        )
    if args.format == "json":
        _emit_json(
            {
                "command": "od",
                "screen": screen_to_str(screen),
                "kappa": format_fraction(kappa),
                "certified": "exact",
                **result.to_json_dict(),
            }
        )
    else:
        print(f"{format_fraction(result.value)} (exact)")
        pairs = ", ".join(
            f"{lab}->{format_fraction(v)}"
            for lab, v in zip(space.labels, result.witness.values)
        )
        print(f"witness: {pairs}")
    return 0


# -- prokhorov ----------------------------------------------------------------


def _cmd_prokhorov(args) -> int:
    mu = DiscreteMeasure.load(args.measure_a)
    nu = DiscreteMeasure.load(args.measure_b)
    if args.mode == "symmetric":
        value = prokhorov_symmetric(mu, nu)
    else:
        value = prokhorov_onesided(mu, nu)
    if args.format == "json":
        _emit_json(
            {
                "command": "prokhorov",
                "mode": args.mode,
                "value": format_fraction(value),
                "value_decimal": render_decimal(value),
            }
        )
    else:
        print(format_fraction(value))
    return 0


# -- counterexample ------------------------------------------------------------


def _cmd_counterexample(args) -> int:
    kappa = args.kappa if args.kappa is None else _fraction_arg(args.kappa, "kappa")
    radius = _fraction_arg(args.radius, "radius")
    cap = args.cap_n if args.cap_n is not None else 8
    report = verify_counterexample(args.n_family, radius, kappa, cap_n=cap)
    ok = report.matches and (report.original_refuted is not False)
    if args.format == "json":
        _emit_json({"command": "counterexample", **report.to_json_dict(), "ok": ok})
    else:
        n = report.n_family
        window_lo = 1 - Fraction(1, n)
        window_hi = 1 - Fraction(1, 2 * n)
        where = "inside" if report.in_window else "OUTSIDE"
        print(
            f"family N={n}, R={format_fraction(report.radius)}, "
            f"kappa={format_fraction(report.kappa)} "
            f"(window [{format_fraction(window_lo)}, {format_fraction(window_hi)}): {where})"
        )
        print(
            f"od full line = {format_fraction(report.od_full_line)} "
            f"(expected {format_fraction(report.radius)})"
        )
        print(
            f"od {screen_to_str(report.interval)} = {format_fraction(report.od_interval)} "
            f"(expected {format_fraction(report.expected_c * report.radius)})"
        )
        if report.original_refuted is not None:
            lhs = min(2 * report.radius, report.od_full_line)
            verdict = "REFUTED" if report.original_refuted else "NOT refuted"
            print(
                f"uncorrected bound min{{2R, od}} = {format_fraction(lhs)} vs "
                f"{format_fraction(report.od_interval)}: {verdict}"
            )
        if not report.in_window:
            print("SKIPPED (kappa outside the validity window; values informational)")
            return 0
        print("PASS" if ok else "FAIL")
    if not report.in_window:
        return 0
    return 0 if ok else 1


# -- sharpness -----------------------------------------------------------------


def _cmd_sharpness(args) -> int:
    radius = _fraction_arg(args.radius, "radius")
    cap = args.cap_n if args.cap_n is not None else 8
    rows = sharpness_sweep(radius, args.n_max, cap_n=cap)
    if args.format == "json":
        _emit_json(
            {
                "command": "sharpness",
                "radius": format_fraction(radius),
                "rows": [r.to_json_dict() for r in rows],
                "ok": True,
            }
        )
    elif args.format == "csv":
        _emit_csv(SHARPNESS_CSV_COLUMNS, [r.to_csv_row() for r in rows])
    else:
        for r in rows:
            print(
                f"n={r.n_family} kappa={format_fraction(r.kappa)} "
                f"od_full={format_fraction(r.od_full_line)} "
                f"od_interval={format_fraction(r.od_interval)} "
                f"ratio={format_fraction(r.ratio)} gap={format_fraction(r.gap)} "
                f"({r.provenance})"
            )
        print(f"all rows: ratio > 1 and gap = {format_fraction(2 * radius)}: OK")
    return 0


# -- profile -------------------------------------------------------------------


def _cmd_profile(args) -> int:
    space = FiniteMMSpace.load(args.space)
    screen = parse_screen(args.screen)
    kappas = [part.strip() for part in args.kappas.split(",") if part.strip()]
    if not kappas:
        raise DomainError("--kappas needs at least one value")
    cap = args.cap_n if args.cap_n is not None else 8
    profile = semicontinuity_profile(space, screen, kappas, cap_n=cap)
    ok = profile.monotone_nonincreasing and profile.right_continuous
    if args.format == "json":
        _emit_json({"command": "profile", **profile.to_json_dict(), "ok": ok})
    elif args.format == "csv":
        _emit_csv(SEMICONTINUITY_CSV_COLUMNS, [r.to_csv_row() for r in profile.rows])
    else:
        for r in profile.rows:
            print(
                f"kappa={format_fraction(r.kappa)} od={format_fraction(r.od_value)} "
                f"constant on [{format_fraction(r.kappa)}, {format_fraction(r.constant_until)}) "
                f"probe={format_fraction(r.probe_od)} "
                f"{'OK' if r.right_continuous else 'FAIL'}"
            )
        print(f"monotone nonincreasing: {'OK' if profile.monotone_nonincreasing else 'FAIL'}")
        print(f"right-continuous at grid points: {'OK' if profile.right_continuous else 'FAIL'}")
    return 0 if ok else 1


# -- proptest ------------------------------------------------------------------


def _cmd_proptest(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = [run_suite(name, args.seed, args.count) for name in names]
    ok = all(r.ok for r in reports)
    if args.format == "json":
        _emit_json(
            {
                "command": "proptest",
                "seed": args.seed,
                "count": args.count,
                "suites": [r.to_json_dict() for r in reports],
                "ok": ok,
            }
        )
    else:
        for r in reports:
            print(f"{r.suite}: {r.passed}/{r.count} {'PASS' if r.ok else 'FAIL'}")
            for failure in r.failures:
                print(f"  case {failure.index}: {failure.detail}")
    return 0 if ok else 1


# -- parser --------------------------------------------------------------------


def _add_format(parser, *, csv: bool = False) -> None:
    choices = ["text", "json", "csv"] if csv else ["text", "json"]
    parser.add_argument("--format", choices=choices, default="text", help="output format")


def _add_cap(parser) -> None:
    parser.add_argument(
        "--cap-n",
        type=int,
        default=None,
        help="override the enumeration cap (default 8 exact / 4 grid)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obsdiam",
        description=(
            "Exact partial/observable diameters of finite metric measure "
            "spaces, 1-Lipschitz compression maps, and reproduction harnesses."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pd", help="partial diameter of a measure file")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("--alpha", required=True, help="mass threshold in [0, 1], rational")
    _add_format(p)
    p.set_defaults(func=_cmd_pd)

    p = sub.add_parser("compress", help="build and verify a clamping map")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("--alpha", required=True, help="mass threshold in (0, 1), rational")
    p.add_argument("--radius", required=True, help="target pd budget R > 0, rational")
    p.add_argument("--out", default=None, help="write the map JSON here")
    _add_format(p)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("od", help="observable diameter of a space file")
    p.add_argument("space", help="space JSON file")
    p.add_argument("--screen", required=True, help="fullline or interval:a:b")
    p.add_argument("--kappa", required=True, help="defect in (0, 1), rational")
    p.add_argument("--tol", default=None, help="reserved; the engine is exact")
    p.add_argument(
        "--grid-step",
        default=None,
        help="run the grid oracle at this step instead (certified enclosure)",
    )
    _add_cap(p)
    _add_format(p)
    p.set_defaults(func=_cmd_od)

    p = sub.add_parser("prokhorov", help="distance between two measure files")
    p.add_argument("measure_a")
    p.add_argument("measure_b")
    p.add_argument("--mode", choices=["onesided", "symmetric"], default="onesided")
    _add_format(p)
    p.set_defaults(func=_cmd_prokhorov)

    p = sub.add_parser("counterexample", help="verify one family member exactly")
    p.add_argument("n_family", type=int, help="family index N >= 2 (2N points)")
    p.add_argument("radius", help="spacing R > 0, rational")
    p.add_argument("kappa", nargs="?", default=None, help="default: 1 - 3/(4N)")
    _add_cap(p)
    _add_format(p)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("sharpness", help="sweep the family at kappa_n = 1 - 1/n")
    p.add_argument("radius", help="spacing R > 0, rational")
    p.add_argument("n_max", type=int, help="last family index (rows n = 2..n_max)")
    _add_cap(p)
    _add_format(p, csv=True)
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("profile", help="od over a kappa grid with continuity checks")
    p.add_argument("space", help="space JSON file")
    p.add_argument("--screen", required=True, help="fullline or interval:a:b")
    p.add_argument("--kappas", required=True, help="comma-separated rationals")
    _add_cap(p)
    _add_format(p, csv=True)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("proptest", help="run a randomized property suite")
    p.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    _add_format(p)
    p.set_defaults(func=_cmd_proptest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ValidationError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, AssertionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
