"""Range-clamped 1-Lipschitz maps that preserve a partial diameter exactly.

``anchor_walk`` makes one left-to-right pass over the atoms of mu.  It
places an anchor at each atom where the mass gathered since the previous
anchor reaches ``alpha``, and stops at ``x_infinity``, the leftmost atom with
less than ``alpha`` mass strictly to its right.  Each earlier anchor closes
its own run of atoms, of mass at least ``alpha``, left of x_infinity, and
x_infinity with the atoms right of it holds at least ``alpha`` unless it is
the first atom, so there are at most 1/alpha anchors.

The walk is scale-free.  It compares sums of masses with ``alpha`` and reads
a position only to report it as an anchor.  The sums are integer weight
sums from ``DiscreteMeasure.scaled_masses``, which reach ``alpha`` exactly
when they reach ``scaled_level(alpha, scale)`` (``measures`` docstring).
Scaling the line by 1/r (r > 0) keeps the atom order and merges no atoms,
so the walk on mu stops at the same atoms as the walk on mu scaled to
partial diameter 1, and its anchors are exactly r times the unit anchors.
Take r = pd(mu, alpha) > 0.  On the unit measure no open unit interval holds
mass ``alpha`` (that would beat the partial diameter), so consecutive unit
anchors are at least 1 apart except possibly for the final step into
x_infinity.  On mu itself each step from an anchor a therefore reaches
min(x_infinity, a + r).

One builder (``_integrate``) turns anchors into a map.  For ball radius r and
target s it starts from the constant -N*s far to the left (N anchors), has
slope s/r on the union of the open balls (a - r, a + r) around the anchors,
and is flat elsewhere.  On a measure with partial diameter 1 at level
``alpha`` and at r = s = 1 it is the compression map: slope 0 or 1, range
inside [-1/alpha, 1/alpha], and an image measure with partial diameter
exactly 1 at level ``alpha``.

``clamp_construct`` handles a general measure mu and a radius budget R.  With
r = pd(mu, alpha) > 0 it runs the builder on ``anchor_walk(mu, alpha)`` with
s = min(R, r).  By the scale argument that map is x -> s * g(x / r), where g
is the compression map of mu scaled to partial diameter 1, so it is
1-Lipschitz, lands in [-R/alpha, R/alpha], and its image measure has partial
diameter exactly min(R, r).  When r = 0 the map is the constant 0.
``verify_clamp`` builds the map and checks those three facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._rational import to_open_unit, to_positive
from .errors import VerificationError
from .measures import DiscreteMeasure, partial_diameter, push_forward, scaled_level
from .plmaps import PiecewiseLinearMap

__all__ = [
    "anchor_walk",
    "clamp_construct",
    "ClampReport",
    "verify_clamp",
]


def anchor_walk(mu: DiscreteMeasure, alpha) -> tuple:
    """The anchors of ``mu`` at level ``alpha``: strictly increasing and
    ending at x_infinity (see the module docstring)."""
    alpha = to_open_unit(alpha, what="alpha")
    positions = mu.positions
    scale, weights = mu.scaled_masses
    # an integer weight sum w has mass below alpha exactly when w < level
    level = scaled_level(alpha, scale)
    # x_infinity is positions[last]: step left while the atom to the left also
    # has less than alpha mass strictly to its right.
    last = len(positions) - 1
    tail = 0
    while last > 0 and tail + weights[last] < level:
        tail += weights[last]
        last -= 1
    anchors = []
    acc = 0
    for pos, weight in zip(positions[:last], weights):
        acc += weight
        if acc >= level:
            anchors.append(pos)
            acc = 0
    anchors.append(positions[last])
    num, den = alpha.as_integer_ratio()  # len * alpha > 1, on the integer pair
    if len(anchors) * num > den:
        raise VerificationError("anchor count exceeded 1/alpha")
    return tuple(anchors)


def _integrate(anchors, r: Fraction, s: Fraction) -> PiecewiseLinearMap:
    """Constant ``-N*s`` to the left (N = number of anchors), slope ``s/r`` on
    the union of the open balls of radius ``r`` around the anchors, slope 0
    in the gaps.

    The anchors strictly increase and every ball has radius r, so the balls
    arrive in order, each ending past the last.  A ball that overlaps or
    merely touches the run before it extends that run to its own end; the
    run may then cover a shared endpoint, which the slope does not see.
    """
    slope = s / r
    knots: list[tuple] = []
    value = -len(anchors) * s
    for a in anchors:
        if knots and a - r <= knots[-1][0]:
            end, value = knots.pop()
            value += (a + r - end) * slope
        else:
            knots.append((a - r, value))
            value += 2 * s  # a whole ball: 2r at slope s/r
        knots.append((a + r, value))
    return PiecewiseLinearMap(knots, 0, 0)


def clamp_construct(mu: DiscreteMeasure, alpha, radius) -> PiecewiseLinearMap:
    """1-Lipschitz map into [-R/alpha, R/alpha] whose image measure has
    partial diameter exactly min(R, pd(mu, alpha))."""
    alpha = to_open_unit(alpha, what="alpha")
    radius = to_positive(radius, what="radius")
    return _clamp_map(mu, alpha, radius, partial_diameter(mu, alpha).value)


def _clamp_map(mu: DiscreteMeasure, alpha: Fraction, radius: Fraction, r: Fraction):
    """``clamp_construct``'s map, given the partial diameter ``r`` of ``mu``."""
    if r == 0:
        return PiecewiseLinearMap.constant(0)
    return _integrate(anchor_walk(mu, alpha), r, min(radius, r))


@dataclass(frozen=True)
class ClampReport:
    """A clamping map, the values its contract names, and the contract's
    checks by name (see ``verify_clamp``)."""

    clamp: PiecewiseLinearMap
    source_pd: Fraction
    image_pd: Fraction
    expected_pd: Fraction  # min(R, source_pd)
    range_limit: Fraction  # R/alpha
    checks: dict


def verify_clamp(mu: DiscreteMeasure, alpha, radius) -> ClampReport:
    """Build ``clamp_construct``'s map and check its contract: the map is
    1-Lipschitz (``one_lipschitz``), its range lies in [-R/alpha, R/alpha]
    (``range_within_budget``), and its image pd is min(R, source pd)
    (``pd_equality``)."""
    alpha = to_open_unit(alpha, what="alpha")
    radius = to_positive(radius, what="radius")
    source_pd = partial_diameter(mu, alpha).value
    f = _clamp_map(mu, alpha, radius, source_pd)
    image_pd = partial_diameter(push_forward(mu, f), alpha).value
    expected = min(radius, source_pd)
    limit = radius / alpha
    lo, hi = f.bounds()
    checks = {
        "one_lipschitz": f.is_one_lipschitz(),
        "range_within_budget": lo is not None and hi is not None and -limit <= lo and hi <= limit,
        "pd_equality": image_pd == expected,
    }
    return ClampReport(f, source_pd, image_pd, expected, limit, checks)
