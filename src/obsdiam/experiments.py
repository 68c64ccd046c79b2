"""Reproduction harnesses for the evenly-spaced line family.

The family member with index N is the 2N-point space {R, 2R, ..., 2NR} with
uniform masses.  Inside the window kappa in [1 - 1/N, 1 - 1/(2N)) the heavy
subsets are exactly the pairs, which pins both observable diameters in closed
form: R on the full line and c*R with c = 2(N-1)/(2N-1) on the interval
[-(N-1)R, (N-1)R].  The harnesses below recompute these with the exact engine
and report the comparisons; the sharpness sweep additionally tracks how close
the family's screen comes to the screen of the corrected inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ._rational import (
    format_fraction,
    fraction_text,
    render_decimal,
    to_open_unit,
    to_positive,
)
from .errors import DomainError, ResourceCapError, VerificationError
from .mmspace import (
    FULL_LINE, POINT_CEILING, FiniteMMSpace, Interval, Screen, integer_masses, screen_to_str,
)
from .observable import DEFAULT_EXACT_CAP, check_exact_size, observable_diameter

__all__ = [
    "counterexample_space",
    "CounterexampleReport",
    "verify_counterexample",
    "SharpnessRow",
    "sharpness_sweep",
    "SemicontinuityRow",
    "SemicontinuityProfile",
    "semicontinuity_profile",
    "SHARPNESS_CSV_COLUMNS",
    "SEMICONTINUITY_CSV_COLUMNS",
]


SHARPNESS_ROW_CEILING = 10_000  # 10^4 rows: about 0.6 s and 3.8 MB of JSON (README)


def _check_member(n_family: int, radius) -> Fraction:
    """The validated radius of family member ``n_family``."""
    if n_family < 2:
        raise DomainError(f"family index must be >= 2, got {n_family}")
    return to_positive(radius, what="radius")


def _family_screen(n_family: int, radius: Fraction) -> tuple[Interval, Fraction]:
    """The family screen [-(N-1)R, (N-1)R] and c = 2(N-1)/(2N-1), the
    closed-form od on it over R."""
    half_width = (n_family - 1) * radius
    return Interval(-half_width, half_width), Fraction(2 * (n_family - 1), 2 * n_family - 1)


def counterexample_space(n_family: int, radius) -> FiniteMMSpace:
    """The 2N evenly spaced points {R, 2R, ..., 2NR} with uniform masses."""
    radius = _check_member(n_family, radius)
    return FiniteMMSpace.line_space([radius * k for k in range(1, 2 * n_family + 1)])


@dataclass(frozen=True)
class CounterexampleReport:
    """Exact-engine values for one family member, against the closed forms.

    ``matches`` compares od values with R and c*R; it is only expected to be
    True when kappa lies in the validity window.  ``original_refuted`` is the
    N = 2 check that the uncorrected bound min{2R, od_full} exceeds the od
    seen through [-R, R]; None for other N, where [-R, R] is not the family
    screen.  ``window`` holds the window's ends and ``uncorrected_lhs`` is
    min{2R, od_full}; both are for display and stay out of the JSON.
    """

    n_family: int
    radius: Fraction
    kappa: Fraction
    window: tuple
    in_window: bool
    interval: Interval
    od_full_line: Fraction
    od_interval: Fraction
    expected_c: Fraction
    matches: bool
    uncorrected_lhs: Fraction
    original_refuted: Optional[bool]

    def to_json_dict(self) -> dict:
        return {
            "n_family": self.n_family,
            "radius": format_fraction(self.radius),
            "kappa": format_fraction(self.kappa),
            "in_window": self.in_window,
            "interval": screen_to_str(self.interval),
            "od_full_line": format_fraction(self.od_full_line),
            "od_full_line_decimal": render_decimal(self.od_full_line),
            "od_interval": format_fraction(self.od_interval),
            "od_interval_decimal": render_decimal(self.od_interval),
            "expected_c": format_fraction(self.expected_c),
            "expected_od_interval": format_fraction(self.expected_c * self.radius),
            "matches": self.matches,
            "original_refuted": self.original_refuted,
        }


def verify_counterexample(
    n_family: int,
    radius,
    kappa=None,
    *,
    cap_n: int = DEFAULT_EXACT_CAP,
) -> CounterexampleReport:
    """Recompute the family member's two observable diameters exactly.

    kappa defaults to 1 - 3/(4N), the midpoint-ish interior of the validity
    window; an out-of-window kappa is reported as such, values still computed.
    ``check_exact_size`` refuses the 2N points before the space is built.
    """
    radius = _check_member(n_family, radius)
    if kappa is None:
        kappa = 1 - Fraction(3, 4 * n_family)
    kappa = to_open_unit(kappa, what="kappa")
    check_exact_size(2 * n_family, cap_n)
    space = counterexample_space(n_family, radius)
    window = (1 - Fraction(1, n_family), 1 - Fraction(1, 2 * n_family))
    interval, expected_c = _family_screen(n_family, radius)
    od_full = observable_diameter(space, FULL_LINE, kappa, cap_n=cap_n)
    od_int = observable_diameter(space, interval, kappa, cap_n=cap_n)
    matches = od_full.value == radius and od_int.value == expected_c * radius
    uncorrected_lhs = min(2 * radius, od_full.value)
    original_refuted = None
    if n_family == 2:
        # the family screen IS [-R, R] here, so this directly contradicts
        # the uncorrected bound
        original_refuted = uncorrected_lhs > od_int.value
    return CounterexampleReport(
        n_family=n_family,
        radius=radius,
        kappa=kappa,
        window=window,
        in_window=window[0] <= kappa < window[1],
        interval=interval,
        od_full_line=od_full.value,
        od_interval=od_int.value,
        expected_c=expected_c,
        matches=matches,
        uncorrected_lhs=uncorrected_lhs,
        original_refuted=original_refuted,
    )


SHARPNESS_CSV_COLUMNS = (
    "n",
    "kappa",
    "radius",
    "interval_lo",
    "interval_hi",
    "od_full_line",
    "od_interval",
    "ratio",
    "revised_screen_width",
    "gap",
    "provenance",
)


@dataclass(frozen=True)
class SharpnessRow:
    """One sweep row at kappa_n = 1 - 1/n.

    ratio = od_full / od_interval = (2n-1)/(2n-2) stays above 1, while
    gap = (width of the corrected inequality's screen) - (family screen
    width) collapses to the constant 2R: the corrected screen cannot be
    shrunk by more than an additive 2R without losing the inequality.
    """

    n_family: int
    kappa: Fraction
    radius: Fraction
    interval: Interval
    od_full_line: Fraction
    od_interval: Fraction
    ratio: Fraction
    revised_screen_width: Fraction
    gap: Fraction
    provenance: str  # "exact" | "closed-form"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_family,
            "kappa": format_fraction(self.kappa),
            "radius": format_fraction(self.radius),
            "interval": screen_to_str(self.interval),
            "od_full_line": format_fraction(self.od_full_line),
            "od_interval": format_fraction(self.od_interval),
            "od_interval_decimal": render_decimal(self.od_interval),
            "ratio": format_fraction(self.ratio),
            "ratio_decimal": render_decimal(self.ratio),
            "revised_screen_width": format_fraction(self.revised_screen_width),
            "gap": format_fraction(self.gap),
            "provenance": self.provenance,
        }


def sharpness_sweep(radius, n_max: int) -> tuple[SharpnessRow, ...]:
    """Rows for n = 2..n_max at kappa_n = 1 - 1/n.

    Family members with 2n <= ``POINT_CEILING`` (n <= 11) are recomputed by
    ``verify_counterexample`` and must match the closed forms; larger ones
    carry the closed-form values with an explicit provenance flag, never
    silently mixed.  kappa_n is the left end of the validity window, where
    the heavy family is the n(2n - 1) pairs, so each exact row is cheap.

    Past ``SHARPNESS_ROW_CEILING`` the sweep is refused before any row is
    built.
    """
    radius = to_positive(radius, what="radius")
    if n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {n_max}")
    if n_max > SHARPNESS_ROW_CEILING:
        raise ResourceCapError(
            f"n_max {n_max} exceeds the sharpness row ceiling {SHARPNESS_ROW_CEILING}"
        )
    rows = []
    for n in range(2, n_max + 1):
        kappa = 1 - Fraction(1, n)
        interval, c = _family_screen(n, radius)
        od_full, od_int, provenance = radius, c * radius, "closed-form"
        if 2 * n <= POINT_CEILING:
            report = verify_counterexample(n, radius, kappa, cap_n=2 * n)
            if not report.matches:
                raise VerificationError(
                    f"n={n}: od {fraction_text(report.od_full_line)}, "
                    f"{fraction_text(report.od_interval)} != closed forms "
                    f"{fraction_text(od_full)}, {fraction_text(od_int)}"
                )
            provenance = "exact"
        ratio = od_full / od_int
        revised_width = 2 * radius / (1 - kappa)
        gap = revised_width - interval.width
        if not (ratio > 1 and gap == 2 * radius):
            raise VerificationError(
                f"n={n}: ratio {fraction_text(ratio)} must exceed 1 "
                f"and gap {fraction_text(gap)} equal 2R"
            )
        rows.append(
            SharpnessRow(
                n_family=n,
                kappa=kappa,
                radius=radius,
                interval=interval,
                od_full_line=od_full,
                od_interval=od_int,
                ratio=ratio,
                revised_screen_width=revised_width,
                gap=gap,
                provenance=provenance,
            )
        )
    return tuple(rows)


SEMICONTINUITY_CSV_COLUMNS = (
    "kappa",
    "alpha",
    "od",
    "constant_until",
    "probe_kappa",
    "probe_od",
    "right_continuous",
)


@dataclass(frozen=True)
class SemicontinuityRow:
    """od at one kappa plus a finite right-continuity certificate.

    Between consecutive achievable subset masses the heavy family cannot
    change, so od is constant on [kappa, constant_until); the probe re-runs
    the engine strictly inside that half-open stretch and must agree.
    """

    kappa: Fraction
    alpha: Fraction
    od_value: Fraction
    constant_until: Fraction
    probe_kappa: Fraction
    probe_od: Fraction

    @property
    def right_continuous(self) -> bool:
        return self.probe_od == self.od_value

    def to_json_dict(self) -> dict:
        return {
            "kappa": format_fraction(self.kappa),
            "alpha": format_fraction(self.alpha),
            "od": format_fraction(self.od_value),
            "od_decimal": render_decimal(self.od_value),
            "constant_until": format_fraction(self.constant_until),
            "probe_kappa": format_fraction(self.probe_kappa),
            "probe_od": format_fraction(self.probe_od),
            "right_continuous": self.right_continuous,
        }


@dataclass(frozen=True)
class SemicontinuityProfile:
    screen: Screen
    rows: tuple
    monotone_nonincreasing: bool
    right_continuous: bool

    def to_json_dict(self) -> dict:
        return {
            "screen": screen_to_str(self.screen),
            "rows": [r.to_json_dict() for r in self.rows],
            "monotone_nonincreasing": self.monotone_nonincreasing,
            "right_continuous": self.right_continuous,
        }


def semicontinuity_profile(
    space: FiniteMMSpace,
    screen: Screen,
    kappa_grid: Sequence,
    *,
    cap_n: int = DEFAULT_EXACT_CAP,
) -> SemicontinuityProfile:
    """od over a kappa grid with monotonicity and right-continuity checks.

    The grid is sorted and deduplicated.  For each point, the largest subset
    mass strictly below alpha = 1 - kappa (``mmspace.integer_masses``'
    ``beta`` as a mass, read after the engine call, which checks the size
    first) bounds the stretch on which the heavy family, hence od, must stay
    constant; od is re-evaluated at the midpoint of that stretch as the
    certificate.
    """
    if not kappa_grid:
        raise DomainError("kappa grid must be nonempty")
    grid = sorted({to_open_unit(k, what="kappa") for k in kappa_grid})
    rows = []
    for kappa in grid:
        alpha = 1 - kappa
        result = observable_diameter(space, screen, kappa, cap_n=cap_n)
        weights, _, beta = integer_masses(space, alpha)
        below = Fraction(beta, sum(weights))  # the weights sum to mass 1
        constant_until = 1 - below  # od constant on [kappa, constant_until)
        probe_alpha = (alpha + below) / 2
        probe_kappa = 1 - probe_alpha
        probe_od = observable_diameter(space, screen, probe_kappa, cap_n=cap_n).value
        rows.append(
            SemicontinuityRow(
                kappa=kappa,
                alpha=alpha,
                od_value=result.value,
                constant_until=constant_until,
                probe_kappa=probe_kappa,
                probe_od=probe_od,
            )
        )
    monotone = all(rows[i].od_value >= rows[i + 1].od_value for i in range(len(rows) - 1))
    right_cont = all(r.right_continuous for r in rows)
    return SemicontinuityProfile(
        screen=screen,
        rows=tuple(rows),
        monotone_nonincreasing=monotone,
        right_continuous=right_cont,
    )
