"""Exact observable diameters of finite metric measure spaces.

The observable diameter at defect ``kappa`` is the largest partial diameter,
at level ``alpha = 1 - kappa``, of the image of the space's measure under any
1-Lipschitz map into the screen.  For a finite space a map is just one value
per point, and the partial diameter of its image is the smallest spread
(max - min of values) over the inclusion-minimal heavy subsets.  So the
problem is a max-min over value assignments.

The engine works over the possible weak orderings of the values.  Once an
ordering is fixed, everything in sight is a difference constraint:

* monotonicity between consecutive slots,
* the 1-Lipschitz bounds between all pairs,
* the screen width between the extreme slots,
* and ``spread >= t`` for each minimal heavy subset, which under a fixed
  ordering is a single difference between the subset's last and first slot.

Maximizing ``t`` is parametric feasibility of a constraint graph: the system
is feasible iff the graph has no negative cycle, and the optimum is the
smallest cycle ratio (constant weight sum over count of t-edges).  Starting
from a cheap upper bound, each infeasibility certificate (a negative cycle)
lowers ``t`` to that cycle's exact rational ratio, and the first feasible
``t`` is the exact optimum for the ordering.  Ties between values need no
special handling because slot constraints are non-strict.

Most orderings never reach that solve.  Cheap seed witnesses (constant and
distance-to-anchor maps) set an incumbent first, and two bounds then cut
the orderings that cannot beat it:

* **Global bound.**  No 1-Lipschitz image spreads a heavy subset S wider than
  its metric diameter, nor wider than the screen, so
  ``UB = min(width, min over S of diam S)`` caps the answer.  When a seed
  already reaches UB the search is skipped.  On a line space over the full
  line the distance-to-leftmost-point seed is an isometry and always does.
* **Prefix search.**  Orderings are built slot by slot, depth first.  Once
  every point of a heavy subset is placed, its first and last slot are fixed
  for all completions, so their distance bounds the ordering's ``t``; on an
  interval screen, spans laid end to end (the greedy chain, counted as spans
  complete) bound ``t`` by ``width / chain``.  Both only tighten as the
  prefix grows, so a prefix whose bound does not beat the incumbent cuts its
  whole subtree.  A prefix whose first point exceeds every unplaced point is
  cut too: each of its orderings ends below where it starts, and negating
  values realizes the reversed ordering, which starts lower.

The search visits the surviving orderings in the lexicographic order of
``itertools.permutations`` and cuts only orderings whose own upper bound
could not beat the incumbent.  A plain sweep over all orderings skips those
too, so both meet the same improving orderings in the same order, and the
reported witness -- the first ordering to reach the optimum -- is the same.
Distances are scaled to a common integer denominator once, so the bounds and
Bellman-Ford run on plain ints.

All arithmetic is integer or rational; reported values are exact.  Every
reported value is re-checked against its witness with an explicit
``VerificationError``, never an ``assert``, so the check survives ``-O``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ._rational import format_fraction, render_decimal, to_fraction, to_open_unit
from .errors import DomainError, ResourceCapError, VerificationError
from .measures import partial_diameter
from .mmspace import (
    DEFAULT_HEAVY_CAP,
    FULL_LINE,
    FiniteMMSpace,
    FullLine,
    Interval,
    LipschitzWitness,
    Screen,
    heavy_minimal_subsets,
    screen_to_str,
)

__all__ = [
    "OdResult",
    "observable_diameter",
    "od_grid_oracle",
    "random_lipschitz_map",
    "witness_partial_diameter",
    "RevisedInequalityReport",
    "verify_revised_inequality",
    "DEFAULT_EXACT_CAP",
]

DEFAULT_EXACT_CAP = 8

_ZERO = Fraction(0)


@dataclass(frozen=True)
class OdResult:
    """An exact observable-diameter value with an achieving witness."""

    value: Fraction
    witness: LipschitzWitness

    def to_json_dict(self) -> dict:
        return {
            "value": format_fraction(self.value),
            "value_decimal": render_decimal(self.value),
            "exact": True,
            "witness": [format_fraction(v) for v in self.witness.values],
        }


def witness_partial_diameter(space: FiniteMMSpace, witness: LipschitzWitness, alpha) -> Fraction:
    """Partial diameter of the witness's image measure; the self-check used
    to certify every reported observable diameter."""
    return partial_diameter(witness.pushforward(space), alpha).value


def _screen_base(screen: Screen) -> Fraction:
    return screen.a if isinstance(screen, Interval) else _ZERO


def observable_diameter(
    space: FiniteMMSpace,
    screen: Screen,
    kappa,
    *,
    cap_n: int = DEFAULT_EXACT_CAP,
) -> OdResult:
    """Exact observable diameter with an achieving witness.

    Raises ResourceCapError above ``cap_n`` points; the grid oracle is the
    fallback for certified lower bounds on larger spaces.
    """
    kappa = to_open_unit(kappa, what="kappa")
    if not isinstance(screen, (Interval, FullLine)):
        raise DomainError(f"screen must be an Interval or FULL_LINE, got {screen!r}")
    n = len(space)
    if n > cap_n:
        raise ResourceCapError(
            f"{n} points exceed the exact enumeration cap {cap_n}; "
            "raise cap_n or fall back to od_grid_oracle for a lower bound"
        )
    alpha = 1 - kappa
    base = _screen_base(screen)
    if n == 1:
        witness = LipschitzWitness((base,))
        return OdResult(value=_ZERO, witness=witness)

    family = heavy_minimal_subsets(
        space, alpha, cap=max(cap_n, DEFAULT_HEAVY_CAP)
    ).minimal_subsets
    if any(len(s) == 1 for s in family):
        # Some single point already carries mass alpha, so every image measure
        # has a zero-diameter heavy set.
        witness = LipschitzWitness((base,) * n)
        return OdResult(value=_ZERO, witness=witness)

    dmat = space.dist_matrix
    width = screen.width if isinstance(screen, Interval) else None

    # Common integer scale so Bellman-Ford runs on plain ints.
    denominators = {d.denominator for row in dmat for d in row}
    if width is not None:
        denominators.add(width.denominator)
    scale = lcm(*denominators)
    dmat_scaled = [[int(d * scale) for d in row] for row in dmat]
    width_scaled = int(width * scale) if width is not None else None

    # No image spreads a heavy subset wider than its diameter or the screen.
    diam_scaled = min(
        max(dmat_scaled[i][j] for i in subset for j in subset) for subset in family
    )
    upper = Fraction(diam_scaled, scale)
    if width is not None and width < upper:
        upper = width

    best = _ZERO
    best_witness = LipschitzWitness((base,) * n)
    for seed_witness in _seed_witnesses(space, screen):
        value = witness_partial_diameter(space, seed_witness, alpha)
        if value > best:
            best, best_witness = value, seed_witness
            if best == upper:
                break

    if best == upper:
        orderings = ()  # a seed already meets the global bound
    else:
        # the lambda reads ``best`` as the loop below raises it
        orderings = _pruned_orderings(
            n, family, dmat_scaled, width_scaled, scale, diam_scaled, lambda: best
        )
    for perm in orderings:
        slot_of = [0] * n
        for slot, point in enumerate(perm):
            slot_of[point] = slot

        spans = set()
        ub = None
        for subset in family:
            lo = min(slot_of[i] for i in subset)
            hi = max(slot_of[i] for i in subset)
            spans.add((lo, hi))
            d = dmat[perm[lo]][perm[hi]]
            if ub is None or d < ub:
                ub = d
        kept = _minimal_spans(spans)
        if width is not None:
            chain = _greedy_chain(kept)
            pigeonhole = width / chain
            if pigeonhole < ub:
                ub = pigeonhole
        if ub <= best:
            continue

        edges = _order_edges(n, perm, kept, dmat_scaled, width_scaled)
        result = _max_t_for_order(edges, n, scale, ub, best)
        if result is None:
            continue
        t, potentials = result
        values = [_ZERO] * n
        shift = base - potentials[0]
        for slot in range(n):
            values[perm[slot]] = potentials[slot] + shift
        candidate = LipschitzWitness(tuple(values))
        _check_witness(space, candidate, alpha, t)
        best, best_witness = t, candidate

    best_witness.validate(space, screen)
    _check_witness(space, best_witness, alpha, best)
    return OdResult(value=best, witness=best_witness)


def _check_witness(space, witness, alpha, value) -> None:
    achieved = witness_partial_diameter(space, witness, alpha)
    if achieved != value:
        raise VerificationError(
            f"witness achieves partial diameter {achieved}, not the claimed {value}"
        )


def _pruned_orderings(n, family, dmat_scaled, width_scaled, scale, diam_scaled, incumbent):
    """Orderings of range(n) in lexicographic order, minus whole subtrees of
    prefixes whose bound cannot beat ``incumbent()``.

    The bound of a prefix is the least of ``diam_scaled``, the first-to-last
    distance of every heavy subset already fully placed, and (on an interval
    screen) the width over the greedy chain of those subsets' spans, all over
    ``scale``.  It never falls below the upper bound ``observable_diameter``
    computes for any completion.  ``incumbent`` is read again after every
    yield, so it may rise while the caller consumes the orderings.
    """
    full = (1 << n) - 1
    # point -> (mask of the subset's other points, the other points)
    closing = [[] for _ in range(n)]
    for subset in family:
        for p in subset:
            others = tuple(i for i in subset if i != p)
            closing[p].append((sum(1 << i for i in others), others))
    perm = []
    slot_of = [0] * n
    slot_at = slot_of.__getitem__

    def floor():
        best = incumbent()
        return best.numerator * scale, best.denominator

    def extend(placed, d_min, chain, frontier, limit, den):
        """Yield the surviving completions of ``perm``; return the incumbent
        as (numerator * scale, denominator), refreshed after every yield."""
        slot = len(perm)
        for p in range(n):
            bit = 1 << p
            if placed & bit:
                continue
            child = placed | bit
            if child != full and (perm[0] if perm else p) > (full & ~child).bit_length() - 1:
                continue  # every completion ends below its first point
            d_next, chain_next, frontier_next = d_min, chain, frontier
            row = dmat_scaled[p]
            for mask, others in closing[p]:
                if mask & placed != mask:
                    continue
                lo = min(map(slot_at, others))
                d = row[perm[lo]]
                if d < d_next:
                    d_next = d
                if lo >= frontier_next:
                    # spans close in slot order, so this is the greedy chain
                    chain_next, frontier_next = chain + 1, slot
            if d_next * den <= limit:
                continue
            if width_scaled is not None and width_scaled * den <= limit * max(chain_next, 1):
                continue
            slot_of[p] = slot
            perm.append(p)
            if child == full:
                yield tuple(perm)
                limit, den = floor()
            else:
                limit, den = yield from extend(
                    child, d_next, chain_next, frontier_next, limit, den
                )
            perm.pop()
        return limit, den

    return extend(0, diam_scaled, 0, -1, *floor())


def _seed_witnesses(space: FiniteMMSpace, screen: Screen):
    """Cheap feasible witnesses that give the enumeration a head start:
    the distance-to-anchor maps, squeezed affinely when the screen is short."""
    n = len(space)
    base = _screen_base(screen)
    width = screen.width if isinstance(screen, Interval) else None
    yield LipschitzWitness((base,) * n)
    for anchor in range(n):
        values = [space.dist(i, anchor) for i in range(n)]
        spread = max(values)
        if spread == 0:
            continue
        if width is not None and spread > width:
            factor = width / spread
            values = [v * factor for v in values]
        yield LipschitzWitness(tuple(v + base for v in values))


def _minimal_spans(spans):
    """Antichain of slot spans under containment; wider spans are implied."""
    out = []
    min_hi = None
    for lo, hi in sorted(spans, key=lambda s: (-s[0], s[1])):
        if min_hi is None or hi < min_hi:
            out.append((lo, hi))
            min_hi = hi
    return out


def _greedy_chain(spans) -> int:
    """Most spans that can be laid end to end; their spreads stack inside the
    screen width, giving the pigeonhole bound width / count."""
    count = 0
    frontier = None
    for lo, hi in sorted(spans, key=lambda s: s[1]):
        if frontier is None or lo >= frontier:
            count += 1
            frontier = hi
    return count


def _order_edges(n, perm, spans, dmat_scaled, width_scaled):
    """Difference-constraint edges (src, dst, const_scaled, t_count) meaning
    y[dst] - y[src] <= const - t * t_count, on slot variables."""
    edges = []
    for k in range(n - 1):
        edges.append((k + 1, k, 0, 0))  # y_k <= y_{k+1}
    for p in range(n):
        row = dmat_scaled[perm[p]]
        for q in range(p + 1, n):
            edges.append((p, q, row[perm[q]], 0))  # Lipschitz, other side implied
    if width_scaled is not None:
        edges.append((0, n - 1, width_scaled, 0))
    for lo, hi in spans:
        edges.append((hi, lo, 0, 1))  # y_hi - y_lo >= t
    return edges


def _max_t_for_order(edges, n_slots, scale, upper, floor_best):
    """Exact max feasible t for one ordering, or None once it cannot beat
    ``floor_best``.  Each infeasible probe returns a negative cycle whose
    exact ratio becomes the next (strictly smaller) probe; the first feasible
    probe is the optimum because feasibility is monotone in t."""
    t = upper
    while True:
        if t <= floor_best:
            return None
        t_num, t_den = t.numerator, t.denominator
        weights = [c * t_den - t_num * scale * k for (_, _, c, k) in edges]
        potentials, cycle = _bellman_ford(n_slots, edges, weights)
        if cycle is None:
            return t, [Fraction(p, scale * t_den) for p in potentials]
        const_sum = sum(edges[e][2] for e in cycle)
        t_count = sum(edges[e][3] for e in cycle)
        if t_count == 0:
            raise VerificationError("negative cycle without t-edges in a feasible base system")
        ratio = Fraction(const_sum, scale * t_count)
        if ratio >= t:
            raise VerificationError("cycle ratio failed to decrease")
        t = ratio


def _bellman_ford(n_nodes, edges, weights):
    """Feasible potentials for y[dst] <= y[src] + w, or a negative cycle.

    Starting all potentials at 0 plays the role of a virtual source.  Returns
    (potentials, None) when feasible, (None, cycle_edge_indices) otherwise.
    """
    dist = [0] * n_nodes
    pred = [-1] * n_nodes
    last_pass = n_nodes - 1
    for sweep in range(n_nodes):
        changed = False
        for idx, (src, dst, _, _) in enumerate(edges):
            candidate = dist[src] + weights[idx]
            if candidate < dist[dst]:
                dist[dst] = candidate
                pred[dst] = idx
                changed = True
                if sweep == last_pass:
                    # An update on the extra pass certifies a negative cycle;
                    # walking predecessors n times lands inside it.
                    node = dst
                    for _ in range(n_nodes):
                        if pred[node] < 0:
                            raise VerificationError("predecessor chain broke off")
                        node = edges[pred[node]][0]
                    cycle = []
                    cursor = node
                    while True:
                        edge_idx = pred[cursor]
                        if edge_idx < 0:
                            raise VerificationError("predecessor chain broke off")
                        cycle.append(edge_idx)
                        cursor = edges[edge_idx][0]
                        if cursor == node:
                            break
                    if sum(weights[e] for e in cycle) >= 0:
                        raise VerificationError("extracted cycle is not negative")
                    return None, cycle
        if not changed:
            break
    return dist, None


def od_grid_oracle(
    space: FiniteMMSpace,
    screen: Interval,
    kappa,
    grid_step,
    *,
    cap_n: int = 4,
) -> Fraction:
    """Brute-force lower bound: best min-heavy-spread over all assignments of
    grid values inside the screen that respect the Lipschitz bounds.

    Independent of the exact engine (no orderings, no constraint graphs), so
    it doubles as a cross-check oracle.  Enumerates with the smallest value
    pinned to the left screen end, which loses nothing since the objective
    and all constraints are translation invariant on the grid.

    Enclosure: for n points and step h the result g obeys
    g <= od <= g + (n - 1) * h.  The left side holds because each grid
    assignment searched is a 1-Lipschitz map into the screen.  For the right
    side, sort an optimal witness's values, f(p_1) <= ... <= f(p_n), and
    floor each gap to whole steps: k_1 = 0 and
    k_{j+1} = k_j + floor((f(p_{j+1}) - f(p_j)) / h).  A sum of floors is at
    most the floor of the sum, so k_l - k_j <= floor((f(p_l) - f(p_j)) / h)
    for j < l.  Hence the rounded map is 1-Lipschitz on the grid and spans
    at most floor(width / h) steps, so it stays inside the screen and the
    search meets it.  Each floor loses less than one step and a heavy
    subset spans at most n - 1 gaps, so every heavy spread shrinks by less
    than (n - 1) * h, and g > od - (n - 1) * h.  The early return of 0 for
    a heavy singleton is exact, since that subset's spread is always 0.
    """
    kappa = to_open_unit(kappa, what="kappa")
    if not isinstance(screen, Interval):
        raise DomainError("the grid oracle needs a bounded interval screen")
    step = to_fraction(grid_step, what="grid_step")
    if step <= 0:
        raise DomainError(f"grid_step must be positive, got {step}")
    n = len(space)
    if n > cap_n:
        raise ResourceCapError(
            f"{n} points exceed the grid-oracle cap {cap_n}; raise cap_n to proceed"
        )
    alpha = 1 - kappa
    family = heavy_minimal_subsets(space, alpha).minimal_subsets
    if n == 1 or any(len(s) == 1 for s in family):
        return _ZERO

    span = screen.width / step
    top = span.numerator // span.denominator  # grid indices run 0..top
    bound = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                q = space.dist(i, j) / step
                bound[i][j] = q.numerator // q.denominator

    completed_at: list[list[tuple]] = [[] for _ in range(n)]
    for subset in family:
        completed_at[max(subset)].append(subset)

    ks = [0] * n
    best = 0

    def recurse(var: int, cap: int, anchor: int) -> None:
        nonlocal best
        if var == n:
            best = cap
            return
        lo, hi = 0, top
        for i in range(var):
            b = bound[i][var]
            lo = max(lo, ks[i] - b)
            hi = min(hi, ks[i] + b)
        if var == anchor:
            lo, hi = max(lo, 0), min(hi, 0)
        for k in range(lo, hi + 1):
            ks[var] = k
            cap_here = cap
            for subset in completed_at[var]:
                vals = [ks[i] for i in subset]
                spread = max(vals) - min(vals)
                if spread < cap_here:
                    cap_here = spread
            if cap_here > best:
                recurse(var + 1, cap_here, anchor)

    for anchor in range(n):
        recurse(0, top, anchor)
    return Fraction(best) * step


def random_lipschitz_map(space: FiniteMMSpace, screen: Screen, seed: int) -> LipschitzWitness:
    """Seeded random 1-Lipschitz witness: lower envelope of cones over random
    anchors, clipped to the screen.  Both steps preserve the Lipschitz bound,
    and a fixed seed reproduces the witness exactly."""
    if not isinstance(screen, (Interval, FullLine)):
        raise DomainError(f"screen must be an Interval or FULL_LINE, got {screen!r}")
    rng = random.Random(seed)
    n = len(space)
    diam = space.diameter
    if isinstance(screen, Interval):
        lo, hi = screen.a - diam, screen.b + diam
    else:
        lo, hi = -diam, diam
    span = hi - lo
    anchors = [lo + span * Fraction(rng.randint(0, 64), 64) for _ in range(n)]
    values = [
        min(anchors[j] + space.dist(i, j) for j in range(n)) for i in range(n)
    ]
    if isinstance(screen, Interval):
        values = [min(screen.b, max(screen.a, v)) for v in values]
    witness = LipschitzWitness(tuple(values))
    witness.validate(space, screen)
    return witness


@dataclass(frozen=True)
class RevisedInequalityReport:
    """min(R, od on the full line) <= od on the screen [-R/(1-kappa), R/(1-kappa)]."""

    kappa: Fraction
    radius: Fraction
    od_full: OdResult
    screen: Interval
    od_screen: OdResult
    lhs: Fraction
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "kappa": format_fraction(self.kappa),
            "radius": format_fraction(self.radius),
            "od_full_line": self.od_full.to_json_dict(),
            "screen": screen_to_str(self.screen),
            "od_screen": self.od_screen.to_json_dict(),
            "lhs": format_fraction(self.lhs),
            "holds": self.holds,
        }


def verify_revised_inequality(
    space: FiniteMMSpace, kappa, radius, *, cap_n: int = DEFAULT_EXACT_CAP
) -> RevisedInequalityReport:
    """Check the screen-size correction: a radius-R budget survives on the
    screen [-R/(1-kappa), R/(1-kappa)]."""
    kappa = to_open_unit(kappa, what="kappa")
    radius = to_fraction(radius, what="radius")
    if radius <= 0:
        raise DomainError(f"radius must be positive, got {radius}")
    od_full = observable_diameter(space, FULL_LINE, kappa, cap_n=cap_n)
    reach = radius / (1 - kappa)
    screen = Interval(-reach, reach)
    od_screen = observable_diameter(space, screen, kappa, cap_n=cap_n)
    lhs = min(radius, od_full.value)
    return RevisedInequalityReport(
        kappa=kappa,
        radius=radius,
        od_full=od_full,
        screen=screen,
        od_screen=od_screen,
        lhs=lhs,
        holds=lhs <= od_screen.value,
    )
