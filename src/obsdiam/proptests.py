"""Randomized property suites, runnable from the CLI or from tests.

Each suite is a pure function of (seed, count): it draws instances from
randgen and checks one exact inequality or identity per case.  A violated
property is recorded as a failure with enough detail to replay; an exception
escaping a case would mean a library bug and is allowed to propagate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .compression import anchor_walk, verify_clamp
from .errors import DomainError
from .measures import partial_diameter, pd_profile, push_forward, scaled_level
from .mmspace import Interval
from .observable import (
    _least_heavy_gap,
    _random_lipschitz_values,
    observable_diameter,
    od_grid_oracle,
    verify_revised_inequality,
)
from .prokhorov import check_pd_transfer
from .randgen import (
    jittered_pair,
    random_affine,
    random_alpha,
    random_lipschitz_pl,
    random_measure,
    random_space,
)

__all__ = ["SUITE_NAMES", "CaseFailure", "SuiteReport", "run_suite"]


@dataclass(frozen=True)
class CaseFailure:
    index: int
    detail: str

    def to_json_dict(self) -> dict:
        return {"index": self.index, "detail": self.detail}


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    count: int
    failures: tuple

    @property
    def passed(self) -> int:
        return self.count - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "count": self.count,
            "passed": self.passed,
            "ok": self.ok,
            "failures": [f.to_json_dict() for f in self.failures],
        }


def _case_lipschitz_reduction(rng: random.Random):
    mu = random_measure(rng)
    f = random_lipschitz_pl(rng)
    alpha = random_alpha(rng)
    lhs = partial_diameter(push_forward(mu, f), alpha).value
    rhs = partial_diameter(mu, alpha).value
    if lhs > rhs:
        return f"image pd {lhs} exceeds source pd {rhs} at alpha={alpha}"
    return None


def _case_affine_scaling(rng: random.Random):
    mu = random_measure(rng)
    f = random_affine(rng)
    alpha = random_alpha(rng)
    slope = f.slopes()[0]
    lhs = partial_diameter(push_forward(mu, f), alpha).value
    rhs = abs(slope) * partial_diameter(mu, alpha).value
    if lhs != rhs:
        return f"affine slope {slope}: image pd {lhs} != |s|*pd {rhs} at alpha={alpha}"
    return None


def _case_prokhorov_transfer(rng: random.Random):
    epsilon = rng.choice([Fraction(1, 20), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)])
    alpha = random_alpha(rng)
    mu, nu = jittered_pair(rng, epsilon)
    report = check_pd_transfer(mu, nu, alpha, epsilon)
    if not report.applicable:
        return f"jittered pair not within epsilon={epsilon}: distance {report.distance}"
    if report.holds is not True:
        return (
            f"transfer bound failed: pd {report.lhs} > {report.bound} "
            f"(alpha={alpha}, epsilon={epsilon})"
        )
    return None


def _case_clamp_equality(rng: random.Random):
    mu = random_measure(rng)
    alpha = random_alpha(rng)
    radius = rng.choice([Fraction(1, 2), Fraction(1), Fraction(10)])
    report = verify_clamp(mu, alpha, radius)
    failed = [name for name, held in report.checks.items() if not held]
    if failed:
        return f"clamp checks failed: {', '.join(failed)} (alpha={alpha}, R={radius})"
    return None


def _case_anchor_internals(rng: random.Random):
    alpha = random_alpha(rng)
    mu = random_measure(rng)
    r = partial_diameter(mu, alpha).value
    for _ in range(8):
        if r > 0:
            break
        mu = random_measure(rng)
        r = partial_diameter(mu, alpha).value
    if r == 0:
        return None  # all draws were alpha-concentrated; nothing to check
    # the walk is scale-free, so it runs on mu itself with unit steps scaled by r
    xs = anchor_walk(mu, alpha)
    if len(xs) * alpha > 1:
        return f"{len(xs)} anchors at alpha={alpha} break count*alpha <= 1"
    for a, b in zip(xs, xs[1:]):
        if min(xs[-1], a + r) > b:
            return f"anchor step {a} -> {b} fell short of min(x_inf, {a}+{r})"
    return None


def _case_revised_inequality(rng: random.Random):
    space = random_space(rng, max_points=6)
    kappa = random_alpha(rng)
    radius = rng.choice([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(10)])
    report = verify_revised_inequality(space, kappa, radius)
    if not report.holds:
        return (
            f"min(R, od_full)={report.lhs} exceeded od through "
            f"{report.screen}={report.od_screen.value} (kappa={kappa}, R={radius})"
        )
    return None


def _case_oracle_agreement(rng: random.Random):
    space = random_space(rng, min_points=4, max_points=4)
    width = Fraction(rng.randint(8, 96), 64)
    center = Fraction(rng.randint(-32, 32), 16)
    screen = Interval(center - width / 2, center + width / 2)
    kappa = random_alpha(rng)
    step = Fraction(1, 64)
    exact = observable_diameter(space, screen, kappa).value
    lower, upper = od_grid_oracle(space, screen, kappa, step)
    if not lower <= exact <= upper:
        return f"exact od {exact} outside the grid enclosure [{lower}, {upper}]"
    return None


def _case_cloud_bound(rng: random.Random):
    """No image pd of 64 seeded random maps may exceed the exact od, a sup
    over 1-Lipschitz maps.

    The maps are those of ``random_lipschitz_map(space, screen, seed)`` for
    seeds ``base_seed .. base_seed + 63``: the kernel makes the same draws
    and yields the same rationals, as ``(den, values)`` on one integer scale
    per case, checked by ``mmspace.check_scaled``, the check ``validate``
    runs.  ``_least_heavy_gap`` is ``witness_partial_diameter``'s sweep, so
    the image pd is ``gap / den``, and since both ``den`` and
    ``od.denominator`` are positive, ``gap / den > od`` exactly when
    ``gap * od.denominator > od.numerator * den``.  A failure reads as it
    did on fractions.
    """
    space = random_space(rng, min_points=2, max_points=4)
    kappa = random_alpha(rng)
    radius = rng.choice([Fraction(1), Fraction(2)])
    base_seed = rng.randint(0, 10**6)
    screen = Interval(-radius, radius)
    od = observable_diameter(space, screen, kappa).value
    scale, weights = space.scaled_masses
    level = scaled_level(1 - kappa, scale)
    od_num, od_den = od.numerator, od.denominator
    seeds = range(base_seed, base_seed + 64)
    for i, (den, values) in enumerate(_random_lipschitz_values(space, screen, seeds)):
        gap = _least_heavy_gap(values, weights, level)
        if gap * od_den > od_num * den:
            pd = Fraction(gap, den)
            return f"image pd {pd} of map {i} (seed {base_seed + i}) exceeds exact od {od}"
    return None


def _case_profiles(rng: random.Random):
    mu = random_measure(rng)
    prof = pd_profile(mu)
    # direct agreement at random thresholds, including the jump points
    for _ in range(4):
        alpha = random_alpha(rng)
        if prof.evaluate(alpha) != partial_diameter(mu, alpha).value:
            return f"profile disagrees with direct pd at alpha={alpha}"
    for t, v in prof.steps:
        if prof.evaluate(t) != v:
            return f"profile not left-continuous at threshold {t}"
        if prof.evaluate(t) != partial_diameter(mu, t).value:
            return f"profile disagrees with direct pd at threshold {t}"
    a1, a2 = sorted((random_alpha(rng), random_alpha(rng)))
    if prof.evaluate(a1) > prof.evaluate(a2):
        return f"profile not monotone between {a1} and {a2}"
    return None


_SUITES = {
    "lipschitz-reduction": _case_lipschitz_reduction,
    "affine-scaling": _case_affine_scaling,
    "prokhorov-transfer": _case_prokhorov_transfer,
    "clamp-equality": _case_clamp_equality,
    "anchor-internals": _case_anchor_internals,
    "revised-inequality": _case_revised_inequality,
    "oracle-agreement": _case_oracle_agreement,
    "cloud-bound": _case_cloud_bound,
    "profiles": _case_profiles,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int, count: int) -> SuiteReport:
    """Run `count` seeded cases of one named suite."""
    if name not in _SUITES:
        raise DomainError(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        )
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    case = _SUITES[name]
    rng = random.Random(seed)
    failures = []
    for index in range(count):
        detail = case(rng)
        if detail is not None:
            failures.append(CaseFailure(index=index, detail=detail))
    return SuiteReport(suite=name, seed=seed, count=count, failures=tuple(failures))
