"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource cap.
JSON reports carry "schema": 1 and are byte-identical for identical inputs
(sorted keys, no timestamps).  Exact values print as rationals; the grid
cross-check prints a certified enclosure, never a rounded point.

Each ``_cmd_*`` computes its report and returns ``(payload, lines, ok)``:
the JSON payload, the text (or CSV) lines, and whether every check the
command made held.  ``main`` prints one of the two and maps ``ok`` to the
exit code, the same way for every command.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from ._rational import format_fraction as fmt
from ._rational import read_json, render_decimal, to_fraction
from .compression import verify_clamp
from .errors import DomainError, ResourceCapError, ValidationError, VerificationError
from .experiments import (
    SEMICONTINUITY_CSV_COLUMNS,
    SHARPNESS_CSV_COLUMNS,
    semicontinuity_profile,
    sharpness_sweep,
    verify_counterexample,
)
from .measures import DiscreteMeasure, partial_diameter
from .mmspace import FiniteMMSpace, parse_screen, screen_to_str
from .observable import check_exact_size, check_grid_size, observable_diameter, od_grid_oracle
from .prokhorov import prokhorov_onesided
from .proptests import SUITE_NAMES, run_suite

__all__ = ["main"]

SCHEMA = 1


def _verdict(flag: bool) -> str:
    return "OK" if flag else "FAIL"


def _cap(args, keyword: str = "cap_n") -> dict:
    """``--cap-n`` as the library's cap keyword, only when given, so the
    library's defaults apply otherwise."""
    return {} if args.cap_n is None else {keyword: args.cap_n}


def _load_space(args, check) -> FiniteMMSpace:
    """The space file, refused on its label count by the engine's own size
    check ``check`` (with ``--cap-n`` when given) before its n^2 distances
    are parsed."""
    payload = read_json(args.space)
    labels = payload.get("labels") if isinstance(payload, dict) else None
    if isinstance(labels, list):
        check(len(labels), **_cap(args))
    return FiniteMMSpace.from_json_dict(payload)


def _csv_lines(columns, rows) -> list:
    """CSV of the ``columns`` of each row's JSON dict, with a header line."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, columns, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue().splitlines()


def _cmd_pd(args):
    mu = DiscreteMeasure.load(args.measure)
    alpha = to_fraction(args.alpha, what="alpha")
    result = partial_diameter(mu, alpha)
    window = None if result.window is None else [fmt(x) for x in result.window]
    payload = {
        "alpha": fmt(alpha),
        "value": fmt(result.value),
        "value_decimal": render_decimal(result.value),
        "window": window,
    }
    lines = [fmt(result.value)]
    if window is not None:
        lines.append(f"window: [{window[0]}, {window[1]}]")
    return payload, lines, True


def _cmd_compress(args):
    mu = DiscreteMeasure.load(args.measure)
    alpha = to_fraction(args.alpha, what="alpha")
    radius = to_fraction(args.radius, what="radius")
    report = verify_clamp(mu, alpha, radius)
    checks, limit = report.checks, report.range_limit
    ok = all(checks.values())
    if args.out:
        report.clamp.dump(args.out)
    payload = {
        "alpha": fmt(alpha),
        "radius": fmt(radius),
        "map": report.clamp.to_json_dict(),
        "source_pd": fmt(report.source_pd),
        "image_pd": fmt(report.image_pd),
        "expected_pd": fmt(report.expected_pd),
        "range_limit": fmt(limit),
        "checks": checks,
        "ok": ok,
    }
    lines = [
        f"pd(source) = {fmt(report.source_pd)}",
        f"pd(image) = {fmt(report.image_pd)} = min{{{fmt(radius)}, {fmt(report.source_pd)}}}: "
        + _verdict(checks["pd_equality"]),
        f"1-Lipschitz: {_verdict(checks['one_lipschitz'])}",
        f"range within [-{fmt(limit)}, {fmt(limit)}]: {_verdict(checks['range_within_budget'])}",
    ]
    if args.out:
        lines.append(f"map written to {args.out}")
    return payload, lines, ok


def _cmd_od(args):
    space = _load_space(args, check_exact_size if args.grid_step is None else check_grid_size)
    screen = parse_screen(args.screen)
    kappa = to_fraction(args.kappa, what="kappa")
    head = {"screen": screen_to_str(screen), "kappa": fmt(kappa)}
    if args.grid_step is not None:
        step = to_fraction(args.grid_step, what="grid step")
        lower, upper = od_grid_oracle(space, screen, kappa, step, **_cap(args))
        payload = {
            **head,
            "certified": "interval",
            "grid_step": fmt(step),
            "lower": fmt(lower),
            "upper": fmt(upper),
        }
        line = f"[{fmt(lower)}, {fmt(upper)}] (certified interval, grid step {fmt(step)})"
        return payload, [line], True
    # the engine validates the witness and re-checks its value before returning
    result = observable_diameter(space, screen, kappa, **_cap(args))
    pairs = ", ".join(f"{lab}->{fmt(v)}" for lab, v in zip(space.labels, result.witness.values))
    lines = [f"{fmt(result.value)} (exact)", f"witness: {pairs}"]
    return {**head, "certified": "exact", **result.to_json_dict()}, lines, True


def _cmd_prokhorov(args):
    # Both modes are one computation: on probability measures the symmetric
    # distance equals the one-sided one (see the prokhorov module docstring).
    mu, nu = DiscreteMeasure.load(args.measure_a), DiscreteMeasure.load(args.measure_b)
    value = prokhorov_onesided(mu, nu, **_cap(args, "cap"))
    payload = {"mode": args.mode, "value": fmt(value), "value_decimal": render_decimal(value)}
    return payload, [fmt(value)], True


def _cmd_counterexample(args):
    report = verify_counterexample(args.n_family, args.radius, args.kappa, **_cap(args))
    ok = report.matches and (report.original_refuted is not False)
    lo, hi = report.window
    lines = [
        f"family N={report.n_family}, R={fmt(report.radius)}, kappa={fmt(report.kappa)} "
        f"(window [{fmt(lo)}, {fmt(hi)}): {'inside' if report.in_window else 'OUTSIDE'})",
        f"od full line = {fmt(report.od_full_line)} (expected {fmt(report.radius)})",
        f"od {screen_to_str(report.interval)} = {fmt(report.od_interval)} "
        f"(expected {fmt(report.expected_c * report.radius)})",
    ]
    if report.original_refuted is not None:
        verdict = "REFUTED" if report.original_refuted else "NOT refuted"
        lines.append(
            f"uncorrected bound min{{2R, od}} = {fmt(report.uncorrected_lhs)} "
            f"vs {fmt(report.od_interval)}: {verdict}"
        )
    if report.in_window:
        lines.append("PASS" if ok else "FAIL")
    else:
        # outside the window the values are informational: the run succeeds
        lines.append("SKIPPED (kappa outside the validity window; values informational)")
    return {**report.to_json_dict(), "ok": ok}, lines, ok or not report.in_window


def _cmd_sharpness(args):
    radius = to_fraction(args.radius, what="radius")
    rows = sharpness_sweep(radius, args.n_max)
    payload = {"radius": fmt(radius), "rows": [r.to_json_dict() for r in rows], "ok": True}
    if args.format == "csv":
        table = [
            {**row, "interval_lo": fmt(r.interval.a), "interval_hi": fmt(r.interval.b)}
            for row, r in zip(payload["rows"], rows)
        ]
        return payload, _csv_lines(SHARPNESS_CSV_COLUMNS, table), True
    lines = [
        f"n={r.n_family} kappa={fmt(r.kappa)} od_full={fmt(r.od_full_line)} "
        f"od_interval={fmt(r.od_interval)} ratio={fmt(r.ratio)} gap={fmt(r.gap)} "
        f"({r.provenance})"
        for r in rows
    ]
    lines.append(f"all rows: ratio > 1 and gap = {fmt(2 * radius)}: OK")
    return payload, lines, True


def _cmd_profile(args):
    space = _load_space(args, check_exact_size)
    screen = parse_screen(args.screen)
    kappas = [part.strip() for part in args.kappas.split(",") if part.strip()]
    profile = semicontinuity_profile(space, screen, kappas, **_cap(args))
    ok = profile.monotone_nonincreasing and profile.right_continuous
    payload = {**profile.to_json_dict(), "ok": ok}
    if args.format == "csv":
        return payload, _csv_lines(SEMICONTINUITY_CSV_COLUMNS, payload["rows"]), ok
    lines = [
        f"kappa={fmt(r.kappa)} od={fmt(r.od_value)} "
        f"constant on [{fmt(r.kappa)}, {fmt(r.constant_until)}) "
        f"probe={fmt(r.probe_od)} {_verdict(r.right_continuous)}"
        for r in profile.rows
    ]
    lines.append(f"monotone nonincreasing: {_verdict(profile.monotone_nonincreasing)}")
    lines.append(f"right-continuous at grid points: {_verdict(profile.right_continuous)}")
    return payload, lines, ok


def _cmd_proptest(args):
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = [run_suite(name, args.seed, args.count) for name in names]
    ok = all(r.ok for r in reports)
    payload = {
        "seed": args.seed,
        "count": args.count,
        "suites": [r.to_json_dict() for r in reports],
        "ok": ok,
    }
    lines = []
    for r in reports:
        lines.append(f"{r.suite}: {r.passed}/{r.count} {'PASS' if r.ok else 'FAIL'}")
        lines.extend(f"  case {failure.index}: {failure.detail}" for failure in r.failures)
    return payload, lines, ok


# -- parser --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    leaves it unchanged, and building it costs most of a short command."""
    parser = argparse.ArgumentParser(
        prog="obsdiam",
        description=(
            "Exact partial/observable diameters of finite metric measure "
            "spaces, 1-Lipschitz compression maps, and reproduction harnesses."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *, cap=False, csv=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if cap:
            p.add_argument("--cap-n", type=int, help="override the library's enumeration cap")
        formats = ["text", "json", "csv"] if csv else ["text", "json"]
        p.add_argument("--format", choices=formats, default="text", help="output format")
        return p

    p = command("pd", _cmd_pd, "partial diameter of a measure file")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("--alpha", required=True, help="mass threshold in [0, 1], rational")

    p = command("compress", _cmd_compress, "build and verify a clamping map")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("--alpha", required=True, help="mass threshold in (0, 1), rational")
    p.add_argument("--radius", required=True, help="target pd budget R > 0, rational")
    p.add_argument("--out", default=None, help="write the map JSON here")

    p = command("od", _cmd_od, "observable diameter of a space file", cap=True)
    p.add_argument("space", help="space JSON file")
    p.add_argument("--screen", required=True, help="fullline or interval:a:b")
    p.add_argument("--kappa", required=True, help="defect in (0, 1), rational")
    p.add_argument(
        "--grid-step",
        default=None,
        help="run the grid oracle at this step instead (certified enclosure)",
    )

    p = command("prokhorov", _cmd_prokhorov, "distance between two measure files", cap=True)
    p.add_argument("measure_a")
    p.add_argument("measure_b")
    p.add_argument(
        "--mode",
        choices=["onesided", "symmetric"],
        default="onesided",
        help="both give the same value on probability measures",
    )

    p = command("counterexample", _cmd_counterexample, "verify one family member exactly", cap=True)
    p.add_argument("n_family", type=int, help="family index N >= 2 (2N points)")
    p.add_argument("radius", help="spacing R > 0, rational")
    p.add_argument("kappa", nargs="?", default=None, help="default: 1 - 3/(4N)")

    p = command(
        "sharpness", _cmd_sharpness, "sweep the family at kappa_n = 1 - 1/n", csv=True
    )
    p.add_argument("radius", help="spacing R > 0, rational")
    p.add_argument("n_max", type=int, help="last family index (rows n = 2..n_max)")

    p = command(
        "profile", _cmd_profile, "od over a kappa grid with continuity checks", cap=True, csv=True
    )
    p.add_argument("space", help="space JSON file")
    p.add_argument("--screen", required=True, help="fullline or interval:a:b")
    p.add_argument("--kappas", required=True, help="comma-separated rationals")

    p = command("proptest", _cmd_proptest, "run a randomized property suite")
    p.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        payload, lines, ok = args.func(args)
        if args.format == "json":
            payload = {"schema": SCHEMA, "command": args.command, **payload}
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
        return 0 if ok else 1
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
