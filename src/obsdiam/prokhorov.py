"""Prokhorov-type distances between finitely supported measures on the line.

The one-sided condition at tolerance ``eps`` asks that every Borel set A
satisfy mu(U_eps(A)) >= nu(A) - eps, with U_eps the open eps-neighborhood.
For finite supports only subsets of nu's support matter, and for a fixed
subset the left side is a step function of eps that jumps exactly at the
support-to-subset distances, so the infimum over eps is reached at either a
pairwise distance or a mass-gap value.  Both are enumerated exactly.

There is no separate symmetric variant, because on probability measures the
two directions agree (Strassen 1965; Dudley, *Real Analysis and
Probability*, section 11.6).  Suppose mu(U_eps(A)) >= nu(A) - eps for all A,
and let B be any set.  Put A = complement of U_eps(B).  No point of A lies
within eps of B, so B and U_eps(A) are disjoint, and
nu(U_eps(B)) = 1 - nu(A) >= 1 - mu(U_eps(A)) - eps >= mu(B) - eps.  So a
tolerance that works in one direction works in the other, and the two
infima are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ._rational import format_fraction, to_fraction
from .errors import DomainError, ResourceCapError, ValidationError
from .measures import DiscreteMeasure, partial_diameter
from .mmspace import FiniteMMSpace, Interval
from .observable import random_lipschitz_map

__all__ = [
    "prokhorov_onesided",
    "TransferReport",
    "check_pd_transfer",
    "MeasureCloud",
    "hausdorff_prokhorov",
    "measurement_cloud",
    "DEFAULT_SUPPORT_CAP",
]

DEFAULT_SUPPORT_CAP = 12

_ZERO = Fraction(0)


def _check_cap(mu: DiscreteMeasure, nu: DiscreteMeasure, cap: int) -> None:
    combined = len(mu) + len(nu)
    if combined > cap:
        raise ResourceCapError(
            f"combined support {combined} exceeds the subset-enumeration cap {cap}; "
            "raise cap= to proceed"
        )


def prokhorov_onesided(mu: DiscreteMeasure, nu: DiscreteMeasure, *, cap: int = DEFAULT_SUPPORT_CAP) -> Fraction:
    """inf of eps > 0 with mu(U_eps(A)) >= nu(A) - eps for all Borel A."""
    _check_cap(mu, nu, cap)
    mu_atoms = mu.atoms
    nu_atoms = nu.atoms
    worst = _ZERO
    for size in range(1, len(nu_atoms) + 1):
        for combo in combinations(range(len(nu_atoms)), size):
            nu_mass = sum(nu_atoms[i][1] for i in combo)
            if nu_mass <= worst:
                continue  # this subset cannot push the distance further
            positions = [nu_atoms[i][0] for i in combo]
            # Distance of each mu atom to the subset, then cumulative mass
            # within each distance threshold.
            reach: dict[Fraction, Fraction] = {}
            for p, m in mu_atoms:
                d = min(abs(p - a) for a in positions)
                reach[d] = reach.get(d, _ZERO) + m
            thresholds = sorted(reach)
            if not thresholds or thresholds[0] != 0:
                thresholds.insert(0, _ZERO)
            cumulative = []
            acc = _ZERO
            for d in thresholds:
                acc += reach.get(d, _ZERO)
                cumulative.append(acc)
            # Scan the stretches (threshold_k, threshold_{k+1}]: on each the
            # neighborhood mass is frozen at cumulative[k], so the condition
            # first holds at max(threshold_k, nu_mass - cumulative[k]).
            # The last stretch is unbounded, so the scan always stops on one.
            for k, d in enumerate(thresholds):
                value = max(d, nu_mass - cumulative[k])
                if k + 1 == len(thresholds) or value <= thresholds[k + 1]:
                    break
            if value > worst:
                worst = value
    return worst


@dataclass(frozen=True)
class TransferReport:
    """Outcome of the partial-diameter transfer check.

    If the certified distance is not below ``epsilon`` the check simply does
    not apply (``applicable`` False, ``holds`` None); that is a failed
    precondition, not a failed inequality.  When alpha + epsilon exceeds 1 the
    right side is vacuous (no set can carry that much mass) and the bound
    holds trivially, recorded with ``rhs_pd`` None.
    """

    alpha: Fraction
    epsilon: Fraction
    distance: Fraction
    applicable: bool
    lhs: Fraction | None
    rhs_pd: Fraction | None
    bound: Fraction | None
    holds: bool | None

    def to_json_dict(self) -> dict:
        opt = lambda v: None if v is None else format_fraction(v)  # noqa: E731
        return {
            "alpha": format_fraction(self.alpha),
            "epsilon": format_fraction(self.epsilon),
            "distance": format_fraction(self.distance),
            "applicable": self.applicable,
            "lhs": opt(self.lhs),
            "rhs_pd": opt(self.rhs_pd),
            "bound": opt(self.bound),
            "holds": self.holds,
        }


def check_pd_transfer(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    alpha,
    epsilon,
    *,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> TransferReport:
    """Check pd(mu, alpha) <= pd(nu, alpha + epsilon) + 2 * epsilon whenever
    the one-sided distance from mu to nu is certified below epsilon."""
    alpha = to_fraction(alpha, what="alpha")
    epsilon = to_fraction(epsilon, what="epsilon")
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if alpha > 1:
        raise DomainError(f"alpha must be <= 1, got {alpha}")
    distance = prokhorov_onesided(mu, nu, cap=cap)
    if distance >= epsilon:
        return TransferReport(
            alpha=alpha, epsilon=epsilon, distance=distance,
            applicable=False, lhs=None, rhs_pd=None, bound=None, holds=None,
        )
    lhs = partial_diameter(mu, alpha).value
    if alpha + epsilon > 1:
        return TransferReport(
            alpha=alpha, epsilon=epsilon, distance=distance,
            applicable=True, lhs=lhs, rhs_pd=None, bound=None, holds=True,
        )
    rhs_pd = partial_diameter(nu, alpha + epsilon).value
    bound = rhs_pd + 2 * epsilon
    return TransferReport(
        alpha=alpha, epsilon=epsilon, distance=distance,
        applicable=True, lhs=lhs, rhs_pd=rhs_pd, bound=bound, holds=lhs <= bound,
    )


@dataclass(frozen=True)
class MeasureCloud:
    """A nonempty collection of distinct measures, e.g. sampled screen images."""

    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValidationError("a measure cloud cannot be empty")
        for m in self.members:
            if not isinstance(m, DiscreteMeasure):
                raise ValidationError("cloud members must be DiscreteMeasure values")

    def __len__(self) -> int:
        return len(self.members)

    def to_json_list(self) -> list:
        return [m.to_json_dict() for m in self.members]


def hausdorff_prokhorov(
    cloud_a: MeasureCloud,
    cloud_b: MeasureCloud,
    *,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> Fraction:
    """Symmetrized Hausdorff distance between clouds, with member distances
    measured by the Prokhorov distance."""
    dist = lambda x, y: prokhorov_onesided(x, y, cap=cap)  # noqa: E731
    forward = max(min(dist(a, b) for b in cloud_b.members) for a in cloud_a.members)
    backward = max(min(dist(a, b) for a in cloud_a.members) for b in cloud_b.members)
    return max(forward, backward)


def measurement_cloud(
    space: FiniteMMSpace, radius, samples: int, seed: int
) -> MeasureCloud:
    """Sampled inner approximation of the image measures on [-R, R].

    Push the space's measure forward under ``samples`` seeded random
    1-Lipschitz maps (sub-seeds seed, seed+1, ...), deduplicating equal
    images.  An inner approximation only: the true set of image measures is
    a continuum and the sup of any statistic over the cloud is a lower bound.
    """
    radius = to_fraction(radius, what="radius")
    if radius <= 0:
        raise DomainError(f"radius must be positive, got {radius}")
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    screen = Interval(-radius, radius)
    members: list[DiscreteMeasure] = []
    seen = set()
    for i in range(samples):
        witness = random_lipschitz_map(space, screen, seed + i)
        image = witness.pushforward(space)
        if image not in seen:
            seen.add(image)
            members.append(image)
    return MeasureCloud(members=tuple(members))
