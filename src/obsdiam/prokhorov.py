"""The one-sided Prokhorov distance between finitely supported measures on
the line, and the partial-diameter transfer check built on it.

The one-sided condition at tolerance ``eps`` asks that every Borel set A
satisfy mu(U_eps(A)) >= nu(A) - eps, with U_eps the open eps-neighborhood.
``prokhorov_onesided`` returns the infimum of the eps > 0 where it holds.
Only subsets of nu's support matter: trimming A to them keeps nu(A) and
shrinks the neighborhood.  Both sides move monotonically in eps, so the set
of good eps is upward closed, and every eps >= 1 is good, as
nu(A) - eps <= 0 there.  So the distance is at most 1.

Stretches.  Let t_0 = 0 <= t_1 <= ... be the pairwise distances |x - y|
(x an atom of mu, y an atom of nu) below 1, sorted, and then 1 itself.  For
eps in the stretch (t_k, t_{k+1}] an atom x lies in U_eps(A) exactly when
|x - y| <= t_k for some y in A, so the worst deficiency

    D_k = max over A of nu(A) - mu(N_k(A)),   N_k(A) = {x : |x - y| <= t_k, y in A}

is the same for all eps in the stretch (A empty makes it >= 0), and eps in
the stretch is good exactly when eps >= D_k.  Three facts turn this into an
algorithm with no subset enumeration.

1. D_k = 1 - F_k, where F_k is the maximum flow from nu's atoms to mu's
   atoms along the edges with |x - y| <= t_k (Hall's theorem in the form of
   Strassen 1965; Dudley, *Real Analysis and Probability*, section 11.6).
   In the network source -> y (capacity nu{y}) -> x (unbounded, where
   |x - y| <= t_k) -> sink (capacity mu{x}), let a cut keep the nu atoms A
   and the mu atoms X on the source side.  No unbounded edge may cross, so X
   contains N_k(A), and the capacity nu(not A) + mu(X) is smallest at
   X = N_k(A), where it is 1 - [nu(A) - mu(N_k(A))].  Max-flow min-cut gives
   F_k = min over A = 1 - D_k.

2. The greedy flow is maximum.  Take nu's atoms y_1 < y_2 < ... in order
   and fill each from the leftmost mu atom in its window [y - t_k, y + t_k]
   that has capacity left.  Both ends of the window are nondecreasing in y.
   Let f be a maximum flow that agrees with the greedy one on the atoms
   before y_j and on what y_j sends left of the mu atom x_i.  The greedy
   sends y_j -> x_i the least of what y_j and x_i have left, so f sends no
   more; say it sends delta less.  Then y_j leaves delta unsent or sends it
   to atoms x_l right of x_i, and x_i has delta spare or takes it from
   later atoms y_h.  Move it onto the edge y_j -> x_i unit by unit: unsent
   with spare adds flow, unsent with y_h takes it from y_h, x_l with spare
   reroutes it, and x_l with y_h swaps to y_j -> x_i and y_h -> x_l, an edge
   because the left end of y_h's window is at most x_i < x_l and its right
   end is at least y_j's.  The flow stays feasible and no smaller and now
   agrees one entry further; by induction the greedy flow is maximum.

3. The search is sound.  N_k(A) grows with k, so D_k is nonincreasing,
   while t_{k+1} does not decrease.  So the test D_k <= t_{k+1} fails on a
   prefix of the stretches and holds after it, and the last stretch, past 1,
   holds.  No eps in a failing stretch is good; in the first holding one the
   good eps start at max(t_k, D_k), which is therefore the distance.  A
   repeated distance gives an empty stretch (t, t]; its test passes only if
   D <= t, and then it answers t, as the stretch starting at t does, so
   repeats change nothing.

With n and m atoms, finding and sorting the distances below 1 costs at most
O(nm log nm) comparisons, and each of the O(log nm) flows O(n + m) steps.
Everything runs on integers.  Both measures' positions are put on the
pair's common position scale pscale = lcm(mu pscale, nu pscale)
(``DiscreteMeasure.scaled_positions``), so each distance |x - y| is the int
|x - y| * pscale; multiplying by pscale > 0 keeps every comparison, so the
stops sort with a plain integer sort and the flow's windows compare ints.
Both measures' masses are put on their common mass scale lcm(mu scale,
nu scale) (``DiscreteMeasure.scaled_masses``), so every capacity is an
integer weight, the greedy flow adds and compares integers, and the
deficiency 1 - F_k is exactly (scale - flow) / scale; the search compares
it with a stop t_k = s / pscale as (scale - flow) * pscale against
s * scale.  ``Fraction``s are built only at the end, for the distance
returned.  When pscale is long, each distance is keyed instead by its
floor on a scale 2^B that grows with the denominators of one pair of atoms,
not with their number (``measures`` module docstring, fact 5): those keys
sort exactly, and the search turns the O(log nm) stops it reads back into
ints on pscale.

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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ._rational import _rescale, to_at_most_one, to_positive
from .errors import check_cap
from .measures import DiscreteMeasure, floor_bits, partial_diameter, unfloor

__all__ = [
    "prokhorov_onesided",
    "TransferReport",
    "check_pd_transfer",
    "DEFAULT_SUPPORT_CAP",
]

DEFAULT_SUPPORT_CAP = 600  # 300 + 300 atoms within distance 1: under 1 s (README)


def _max_flow(xs, supply: list, ys, demand: list, reach: int) -> int:
    """Greedy maximum flow from nu's atoms (integer positions ``ys``,
    integer weights ``demand``) to mu's atoms (``xs``, ``supply``), positions
    on one scale and weights on another, each nu atom at y sending only to
    mu atoms in [y - reach, y + reach] (module docstring)."""
    capacity = supply[:]
    flow = 0
    i = 0  # mu atoms before i are used up or left of every later window
    for y, need in zip(ys, demand):
        left, right = y - reach, y + reach
        while i < len(xs) and xs[i] < left:
            i += 1
        while need and i < len(xs) and xs[i] <= right:
            sent = min(need, capacity[i])
            capacity[i] -= sent
            need -= sent
            flow += sent
            if not capacity[i]:
                i += 1
    return flow


def prokhorov_onesided(mu: DiscreteMeasure, nu: DiscreteMeasure, *, cap: int = DEFAULT_SUPPORT_CAP) -> Fraction:
    """inf of eps > 0 with mu(U_eps(A)) >= nu(A) - eps for all Borel A."""
    what = "atoms of combined support exceed the Prokhorov support cap"
    check_cap(len(mu) + len(nu), cap, what, keyword="cap")
    # positions on pscale and masses on scale (module docstring); every
    # eps >= 1 qualifies, as nu(A) - 1 <= 0, so distances of pscale or more
    # are never stops
    pscale = lcm(mu.scaled_positions[0], nu.scaled_positions[0])
    xs = _rescale(*mu.scaled_positions, pscale)
    ys = _rescale(*nu.scaled_positions, pscale)
    scale = lcm(mu.scaled_masses[0], nu.scaled_masses[0])
    supply = _rescale(*mu.scaled_masses, scale)
    demand = _rescale(*nu.scaled_masses, scale)
    near = [(bisect_right(xs, y - pscale), bisect_left(xs, y + pscale)) for y in ys]  # |x - y| < 1
    bits = floor_bits(pscale, mu.positions, nu.positions)
    if bits:
        # the key of |a/b - c/d|, from the integer pairs of the two atoms
        pairs = [x.as_integer_ratio() for x in mu.positions]
        stops = [0, 1 << bits]
        for y, (i, j) in zip(nu.positions, near):
            c, d = y.as_integer_ratio()
            stops.extend((abs(a * d - c * b) << bits) // (b * d) for a, b in pairs[i:j])
    else:
        stops = [0, pscale]
        for y, (i, j) in zip(ys, near):
            stops.extend(abs(x - y) for x in xs[i:j])
    stops.sort()

    def at(k: int) -> int:
        """stops[k] on pscale."""
        if not bits:
            return stops[k]
        stop = unfloor(stops[k], bits)
        return stop.numerator * (pscale // stop.denominator)

    # Binary search for the first stretch (stops[k], stops[k+1]] whose
    # deficiency (scale - flow) / scale is at most its right end
    # at(k + 1) / pscale; the two compare cross-multiplied.  The last
    # stretch, past 1, always qualifies and gives max(1, deficiency) = 1
    # for any deficiency.
    lo, hi = 0, len(stops) - 1
    short = 0  # stands for the deficiency of stretch hi, times scale
    while lo < hi:
        mid = (lo + hi) // 2
        gap = scale - _max_flow(xs, supply, ys, demand, at(mid))
        if gap * pscale <= at(mid + 1) * scale:
            hi, short = mid, gap
        else:
            lo = mid + 1
    return max(Fraction(at(lo), pscale), Fraction(short, scale))


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
    alpha = to_at_most_one(alpha, what="alpha")
    epsilon = to_positive(epsilon, what="epsilon")
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

