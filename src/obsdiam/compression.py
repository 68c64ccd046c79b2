"""Range-clamped 1-Lipschitz maps that preserve a partial diameter exactly.

The construction runs in three stages.  For a measure whose partial diameter
at level ``alpha`` equals 1, ``anchor_sequence`` walks the line left to right,
placing an anchor each time the open interval since the previous anchor has
soaked up mass at least ``alpha``; the walk is cut off at the rightmost point
``x_infinity`` beyond which less than ``alpha`` mass remains.  Because no open
unit interval can hold mass ``alpha`` (that would beat the partial diameter),
consecutive anchors are at least 1 apart except possibly for the final step
into ``x_infinity``, and there are at most 1/alpha anchors.

``build_compression`` integrates the indicator of the union of open unit
balls around the anchors, starting from the constant -N far to the left.  The
result has slope 0 or 1 everywhere, range inside [-1/alpha, 1/alpha], and its
image measure still has partial diameter exactly 1 at level ``alpha``.

``clamp_construct`` handles a general measure and a radius budget R: rescale
so the partial diameter r becomes 1, compress, then multiply by min(R, r).
The composite is 1-Lipschitz, lands in [-R/alpha, R/alpha], and its image
measure has partial diameter exactly min(R, r).  ``verify_clamp`` builds the
map and checks those three facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._rational import ZERO, fraction_text, to_open_unit, to_positive
from .errors import ContractError, VerificationError
from .measures import DiscreteMeasure, partial_diameter, push_forward
from .plmaps import PiecewiseLinearMap

__all__ = [
    "AnchorSequence",
    "anchor_sequence",
    "build_compression",
    "clamp_construct",
    "ClampReport",
    "verify_clamp",
]


@dataclass(frozen=True)
class AnchorSequence:
    """Anchors of the compression walk plus the covered region.

    ``anchors`` is strictly increasing and ends at ``x_infinity``;
    ``region`` is the union of open unit balls around the anchors, stored as
    maximal pairwise-disjoint open intervals.
    """

    x_infinity: Fraction
    anchors: tuple
    region: tuple

    @property
    def count(self) -> int:
        return len(self.anchors)

    def __post_init__(self):
        if not self.anchors:
            raise ContractError("anchor sequence cannot be empty")
        if self.anchors[-1] != self.x_infinity:
            raise ContractError("last anchor must equal x_infinity")
        for a, b in zip(self.anchors, self.anchors[1:]):
            if b <= a:
                raise ContractError("anchors must strictly increase")


def anchor_sequence(mu: DiscreteMeasure, alpha) -> AnchorSequence:
    """Anchor walk for a measure with partial diameter exactly 1 at ``alpha``."""
    alpha = to_open_unit(alpha, what="alpha")
    pd = partial_diameter(mu, alpha).value
    if pd != 1:
        raise ContractError(
            f"anchor_sequence requires partial diameter 1 at alpha={fraction_text(alpha)}, "
            f"got {fraction_text(pd)}"
        )
    atoms = mu.atoms
    n = len(atoms)

    # x_infinity: first atom position p_i such that the mass strictly right of
    # p_i falls below alpha.
    suffix = [ZERO] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + atoms[i][1]
    x_inf = None
    for i in range(n):
        if suffix[i + 1] < alpha:
            x_inf = atoms[i][0]
            break
    if x_inf is None:  # unreachable: the last atom's suffix mass is 0 < alpha
        raise VerificationError("no anchor limit found")

    anchors: list[Fraction] = []
    prev: Fraction | None = None  # None plays the role of -infinity
    while True:
        # Smallest atom q > prev with mass of the open interval (prev, q]
        # reaching alpha once q itself is about to be passed; concretely the
        # first q where the cumulative mass strictly between prev and just
        # beyond q hits alpha.
        acc = ZERO
        hit = None
        for pos, m in atoms:
            if prev is not None and pos <= prev:
                continue
            acc += m
            if acc >= alpha:
                hit = pos
                break
        nxt = x_inf if hit is None else min(x_inf, hit)
        anchors.append(nxt)
        if nxt == x_inf:
            break
        prev = nxt
        if len(anchors) > int(1 / alpha) + 1:
            raise VerificationError("anchor walk failed to terminate within 1/alpha steps")

    count = len(anchors)
    if Fraction(count) * alpha > 1:
        raise VerificationError("anchor count exceeded 1/alpha despite unit partial diameter")

    region = _merge_open_intervals([(a - 1, a + 1) for a in anchors])
    return AnchorSequence(x_infinity=x_inf, anchors=tuple(anchors), region=region)


def _merge_open_intervals(intervals):
    """Union of open intervals as maximal disjoint open intervals.

    Only genuinely overlapping intervals merge; two intervals that merely
    touch at an endpoint stay separate, since their union as open sets is not
    an interval.  (The integral of the indicator does not care either way.)
    """
    merged: list[list[Fraction]] = []
    for a, b in sorted(intervals):
        if merged and a < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


def build_compression(mu: DiscreteMeasure, alpha) -> PiecewiseLinearMap:
    """Slope-0/1 map integrating the indicator of the anchor region.

    Constant ``-N`` to the left of the region (N = number of anchors), slope 1
    on the region, slope 0 in the gaps.
    """
    seq = anchor_sequence(mu, alpha)
    n_anchors = seq.count
    knots: list[tuple] = []
    value = Fraction(-n_anchors)
    for a, b in seq.region:
        if not knots or a > knots[-1][0]:
            knots.append((a, value))
        # a == last knot x happens when two open intervals touch; the slope
        # just continues through the shared endpoint.
        value += b - a
        knots.append((b, value))
    return PiecewiseLinearMap(knots, 0, 0)


def clamp_construct(mu: DiscreteMeasure, alpha, radius) -> PiecewiseLinearMap:
    """1-Lipschitz map into [-R/alpha, R/alpha] whose image measure has
    partial diameter exactly min(R, pd(mu, alpha))."""
    alpha = to_open_unit(alpha, what="alpha")
    radius = to_positive(radius, what="radius")
    r = partial_diameter(mu, alpha).value
    if r == 0:
        return PiecewiseLinearMap.constant(0)
    rescale = PiecewiseLinearMap.affine(Fraction(1, 1) / r, 0)
    unit_measure = push_forward(mu, rescale)
    # Scaling by 1/r multiplies every partial diameter by 1/r.
    if partial_diameter(unit_measure, alpha).value != 1:
        raise VerificationError("rescaled measure does not have partial diameter 1")
    squeeze = build_compression(unit_measure, alpha)
    expand = PiecewiseLinearMap.affine(min(radius, r), 0)
    return expand.after(squeeze).after(rescale)


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
    return ClampReport(f, source_pd, image_pd, expected, limit, checks)
