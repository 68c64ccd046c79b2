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

When one point weighs the level on its own (its integer weight reaches
``level``), every image has a heavy set of spread 0 and the answer is 0,
read off the weights before anything else.  Otherwise no point is heavy
alone, and the engine builds one neighbour table: for each point p, every
point as ``(scaled distance, bit, weight)``, nearest first, with p itself
first at distance 0.  The seeds and the prefix search both read it.

Most orderings never reach the solve.  Cheap seed witnesses (constant and
distance-to-anchor maps) set an incumbent first, and bounds then cut the
orderings that cannot beat it.  A seed is scored by a two-pointer sweep
over its anchor's row of the neighbour table, which finds the narrowest
heavy window of values, the seed's partial diameter (``_seed_value``).
Scores are compared as integer pairs; the first anchor to reach the best
one wins, and its witness is the only one built:

* **Global bound.**  A 1-Lipschitz image spreads a heavy set S no wider than
  its metric diameter or the screen, and the window of values it spans is
  heavy, so ``UB = min(width, diam S)`` caps the answer for every heavy S.
  From the width, each seed's sweep lowers UB to the diameter of each
  minimal heavy window of its anchor's row (``_seed_value``), for every
  anchor before UB is read.  UB may exceed the least diameter of a minimal
  heavy subset; the arguments below need only ``UB >= od``.  On a line
  space the leftmost point's row is in position order, and a heavy set's
  interval ``[min, max]`` is as wide as the set and holds a minimal heavy
  window of that row, so UB is the least heavy diameter; over the full line
  the distance-to-leftmost-point seed, an isometry, reaches it.  When a
  seed reaches UB the prefix search cuts its empty prefix, whose bound is
  UB, by the same test as every other prefix, so it places no point.
* **Prefix search.**  Orderings are built slot by slot, depth first.  Write
  ``y_0 <= ... <= y_{n-1}`` for the slot values and ``t`` for the smallest
  spread of a heavy subset.  Once every point of a heavy subset is placed,
  its span ``[lo, hi]`` (first and last slot) is *closed*: it is the same in
  every completion, and ``y_hi - y_lo >= t``.  Three bounds then hold for
  every completion of the prefix, a fourth cut looks at the unplaced
  points together, and a fifth bound looks at two chains that overlap in
  a full ordering.

  - **(B1) Chain-Lipschitz.**  Let ``E(a, b)`` be the most closed spans that
    can be laid end to end (each starting at or after the previous one's
    end) inside slots ``[a, b]``.  Their spreads stack, so
    ``t * E(a, b) <= y_b - y_a <= d(perm[a], perm[b])``.  In the constraint
    graph this is the cycle of those span edges closed by the Lipschitz edge
    from slot a to slot b, and a cycle's ratio bounds ``t``.  With
    ``E = 1``, B1 is the first-to-last distance of each closed subset.

    The spans come from the prefix masses alone, by a *window lemma*.  Call
    the slot window ``[a, b]`` heavy when the points at slots a..b are.
    The inclusion-minimal closed spans are exactly the inclusion-minimal
    heavy windows.  Indeed a closed span is a heavy window, since it holds
    its subset, and a heavy window holds a minimal heavy subset, whose
    closed span lies inside it.  So a heavy window inside a minimal span M
    holds a span inside M, which is M; and a minimal heavy window W holds a
    span, a heavy window inside W and so W itself, while any span inside W
    is a heavy window inside W, hence W again.

    When point p fills slot s, masses are positive, so ``[a, s]`` is heavy
    exactly when ``a <= lo``, the last slot with
    ``before[s] + w_p - before[a] >= level`` (``before[a]`` is the mass of
    slots ``< a``; one ``bisect_right``; ``lo = -1`` when there is none,
    and ``lo < s`` because no point is heavy alone).  Every span closing
    at s is a heavy window ending at s, so it starts at or before lo, and
    ``E(a, l)`` grows with l.  If ``[lo, s - 1]`` is not heavy, ``[lo, s]`` is
    a minimal heavy window, hence a span, the one closing at s with the
    largest first slot, and
    ``E(a, s) = max(E(a, s - 1), E(a, lo) + 1)`` for ``a <= lo`` and
    ``E(a, s - 1)`` otherwise.  If ``[lo, s - 1]`` is heavy, the window
    ``[lo, s]`` is not minimal and changes nothing: ``[lo, s - 1]`` holds
    a span ``[l, b]`` closed before s with ``l >= lo``, so
    ``E(a, s - 1) >= E(a, l) + 1 >= E(a, lo) + 1`` already, and the same
    update leaves ``E(a, s) = E(a, s - 1)``.  By the same lemma a leaf
    reads its ordering's minimal spans off the full ordering: they are the
    minimal heavy windows of its slot weights
    (``measures.minimal_heavy_windows``).
  - **(B2) Remaining mass.**  Let f be the frontier of the longest chain
    from slot 0 (its ``E(0, s)`` spans end at f, or f = 0 when none has
    closed), T the points at slots ``>= f``, and ``beta`` the largest mass
    of a non-heavy set (``mmspace.integer_masses``).  In any completion,
    start at ``j_0 = f`` and let ``j_{i+1}`` be the least slot with slots
    ``[j_i, j_{i+1}]`` heavy.  Each chunk ``[j_i, j_{i+1})`` before a
    window end is non-heavy, so its mass is at most ``beta``, and so is the
    tail after the last of the m windows.
    The chunks and the tail split T, so ``mass(T) <= (m + 1) * beta``, and
    ``m >= k = ceil(mass(T) / beta) - 1``.  Each window holds a heavy
    subset, hence a span of spread ``>= t``, and the windows lie end to end
    after f.  So ``t * (E(0, s) + k) <= y_{n-1} - y_0 <= W``, where W is the
    screen width (``diam X`` on the full line, see ``_scaled``) and, while
    points are unplaced, also the largest distance from ``perm[0]`` to one
    of them, which is at least ``d(perm[0], perm[n-1])``.  With ``k = 0``,
    B2 is the width over the greedy chain.
  - **(B3) Ball mass.**  Take a placed slot a with ``lo < a <= s``, so
    that slots ``a..s`` are not heavy, and let r be the least radius such
    that those points together with the unplaced points within r of
    ``perm[a]`` are heavy (the unplaced points are taken nearest first).  That set holds a
    minimal heavy subset, whose spread is at least t.  In every completion
    the unplaced points sit at slots after s, so the set's largest value is
    ``y_q`` for an unplaced q in it, and its least is at least ``y_a``.
    Hence ``t <= y_q - y_a <= d(perm[a], q) <= r``.  When slots ``a..s``
    are heavy on their own, a closed span lies inside them and B1 already
    gives ``t <= d(perm[a], perm[s])``, so the slots ``a <= lo`` need no
    ball.  B3 is what cuts a prefix before any span has closed: when heavy
    subsets hold most of the points, B1 and B2 see nothing until deep in
    the search, while the ball around an early point already fixes a
    radius.
  - **(B4) Deadlines.**  Write I for the incumbent, and let ``light`` be
    the most points whose total weight stays below the level: the lightest
    ones, counted up the sorted weights.  Any ``light + 1`` points are
    heavy, and ``light >= 1`` since no point is heavy alone.  Take a prefix
    whose last point fills slot s, and an unplaced point q that a
    completion puts at slot ``b > s``.  The windows of ``light + 1`` slots
    that start at s and share end slots, ``[s, s + light]``,
    ``[s + light, s + 2 light]`` and so on, are heavy, so each holds a
    span, and ``floor((b - s) / light)`` of them lie end to end inside
    ``[s, b]``, after any chain of spans inside ``[a, s]``.  So for every
    placed slot a,
    ``t * (E(a, s) + floor((b - s) / light)) <= y_b - y_a``, which is at
    most ``d(perm[a], q)`` and at most the width W.  Let ``M(a, q)`` be the
    largest k with ``k * I < min(d(perm[a], q), W)``; it is at least 0,
    since distances and W are positive.  In a completion with ``t > I``
    every count k above obeys ``k * I < k * t <= min(d(perm[a], q), W)``
    or is 0, so ``floor((b - s) / light) <= spare(q)``, the least over the
    placed slots a of ``M(a, q) - E(a, s)``.  That is, q sits at or before
    its *deadline* ``s - 1 + light * (1 + spare(q))``.  The unplaced points
    fill slots ``s + 1 .. n - 1``, one each, so by Hall's theorem (the i
    points with the earliest deadlines need i slots by the i-th of them) a
    completion beating I needs the i-th least deadline, counted from
    i = 1, at or after slot s + i.  Otherwise, or when some spare is
    negative, the prefix is cut.

    A spare of at least ``room = floor((n - 1 - s) / light)`` puts the
    deadline at or after the last slot, where it constrains nothing, so
    only the pairs with ``M(a, q) - E(a, s) < room`` count.  Since
    ``E(a, s) <= E(0, s)``, every spare is at most ``M_W - E(0, s)``, with
    ``M_W`` the largest k with ``k * I < W``.  If that is below room, every
    deadline falls before the last slot, the ``n - 1 - s`` unplaced points
    have one slot fewer, and the prefix is cut at once.  Otherwise
    ``(room + E(a, s)) * I < W``, so the counted pairs are those with
    ``d(perm[a], q) <= (room + E(a, s)) * I``, and for them ``min(d, W)``
    is d.  The search finds them by walking ``perm[a]``'s row of the
    neighbour table, nearest first, out to that radius.  That radius never
    grows with a, because a chain inside ``[a + 1, s]`` lies inside
    ``[a, s]``.  Once it falls below the least distance of the space, no
    later slot adds a pair.  At ``s >= n - light`` room is 0, so only a
    negative spare could cut, and the search skips the check: leaving out a
    cut changes nothing it returns.  B4 cuts most when heavy sets are
    small, with uniform masses at large kappa.  On the benchmark's od
    corpus it halves the prefixes searched.
  - **(B5) Two spans.**  At a leaf the child's point p fills the last slot
    s = n - 1.  For slots ``a1 < a2 < b1 < s`` add the Lipschitz bounds
    ``y_s - y_a1 <= d(perm[a1], p)`` and
    ``y_b1 - y_a2 <= d(perm[a2], perm[b1])``.  The left sides sum to
    ``(y_b1 - y_a1) + (y_s - y_a2)``, and B1's chains put each term at
    least t times its count, so
    ``t * (E(a1, b1) + E(a2, s)) <= d(perm[a1], p) + d(perm[a2], perm[b1])``
    when both counts are positive.  In the leaf's constraint graph this is
    the cycle through the two chains of span edges and the two Lipschitz
    edges, and a cycle's ratio bounds ``t``.  B1 closes one chain with one
    Lipschitz edge, so it misses such a cycle when the two spans overlap.
    ``E(a, b)`` only falls as a rises, so each scan over a first slot stops
    at its first zero (``_two_span_bound``).  B5 runs only at leaves, where
    it settles most orderings that cannot beat the incumbent without a
    Bellman-Ford run: on the benchmark's od corpus 104 leaf solves become
    72.  At inner prefixes it cut too few to pay for its scan.

  A prefix's bound is the least of UB and every B1, B2 and B3 value along
  its path, so it only tightens as the prefix grows, and a prefix whose bound
  does not beat the incumbent cuts its whole subtree, as does a prefix
  that B4 cuts.  A full ordering's bound also takes B5.  The bounds are
  kept on integers: chain counts, the point weights, the level and
  ``beta`` on the masses' integer scale, the masses of the placed
  prefixes, the neighbour table, and distances scaled as below.  A prefix
  whose first point exceeds every unplaced point is cut too: each of its
  orderings ends below where it starts, and negating values realizes the
  reversed ordering, which starts lower.

The search visits the surviving orderings in the lexicographic order of
``itertools.permutations`` and cuts only orderings whose optimum is at most
their bound, which is at most the incumbent; B3 and B5 are no exception,
since like B1 and B2 they bound the optimum of every completion, and B4
cuts only completions whose optimum is at most the incumbent.  A plain sweep
over all orderings gets no strict improvement from those either, so both
meet the same improving orderings in the same order.  The search calls a
``leaf`` at each surviving ordering with its bound; the leaf solves the
ordering and hands the incumbent back for the cuts that follow.  The solve
starts from that bound instead of a weaker one.  The bound is at least the
ordering's optimum, UB included, since the width edge keeps every optimum
at most the width, and every cycle ratio is at least the optimum, so the
first feasible probe is still the exact optimum, on the same constraint
graph, with the same potentials.  The reported witness -- the first
ordering to reach the optimum -- is therefore the same.
Distances are scaled to a common integer denominator once, so the bounds and
Bellman-Ford run on plain ints.

All arithmetic is integer or rational; reported values are exact.  Every
reported value is re-checked against its witness with an explicit
``VerificationError``, never an ``assert``, so the check survives ``-O``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import floor
from operator import add

from ._rational import (
    ZERO,
    format_fraction,
    fraction_text,
    render_decimal,
    to_at_most_one,
    to_open_unit,
    to_positive,
)
from .errors import DomainError, ResourceCapError, VerificationError, check_cap
from .measures import minimal_heavy_windows, scaled_level
from .mmspace import (
    FULL_LINE,
    FiniteMMSpace,
    Interval,
    LipschitzWitness,
    Screen,
    check_point_ceiling,
    check_scaled,
    check_screen,
    integer_masses,
    on_scale,
    screen_scale,
)

__all__ = [
    "OdResult",
    "observable_diameter",
    "od_grid_oracle",
    "random_lipschitz_map",
    "witness_partial_diameter",
    "RevisedInequalityReport",
    "verify_revised_inequality",
    "check_exact_size",
    "check_grid_size",
    "DEFAULT_EXACT_CAP",
    "DEFAULT_GRID_CAP",
]

DEFAULT_EXACT_CAP = 10
DEFAULT_GRID_CAP = 4
# (top + 1)^(n - 1) grid assignments to the points besides a pinned one; the
# oracle lists fewer placements than that of all points but the last (README
# times a 4-point run)
GRID_CEILING = 22


def check_exact_size(n: int, cap_n: int = DEFAULT_EXACT_CAP) -> None:
    """Refuse ``n`` points for the exact engine before any work: past
    ``cap_n``, which a caller may raise, then past ``POINT_CEILING``, which
    nothing raises."""
    check_cap(n, cap_n, "points exceed the exact enumeration cap")
    check_point_ceiling(n)


def check_grid_size(n: int, cap_n: int = DEFAULT_GRID_CAP) -> None:
    """``check_exact_size`` for the grid oracle, with its own cap."""
    check_cap(n, cap_n, "points exceed the grid-oracle cap")
    check_point_ceiling(n)


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
    to certify every reported observable diameter.

    The image is not built.  The witness's integer values
    (``scaled_values``) are sorted together with the point weights
    (``scaled_masses``), and the result is the least value gap over the
    minimal heavy windows of the sorted weights against ``scaled_level``
    (``measures.minimal_heavy_windows``; every heavy window holds one, no
    wider).  Points with equal values stay apart; by ``_seed_value``'s
    window argument the order among tied values does not change the least
    width, which is the least spread of a heavy set.  As in
    ``partial_diameter``, alpha <= 0 gives 0 and alpha > 1 raises
    ``DomainError``; a witness of the wrong length raises
    ``ValidationError`` first.
    """
    witness._check_length(space)
    alpha = to_at_most_one(alpha, what="alpha")
    if alpha <= 0:
        return ZERO
    den, ints = witness.scaled_values
    scale, weights = space.scaled_masses
    return Fraction(_least_heavy_gap(ints, weights, scaled_level(alpha, scale)), den)


def _least_heavy_gap(ints, weights, level) -> int:
    """The least value gap over the minimal heavy windows of ``ints`` sorted
    with their ``weights`` against ``level``: the partial diameter of the
    image, times the scale of ``ints``.  Some window is heavy when ``level``
    is at most the total weight."""
    values, sorted_weights = zip(*sorted(zip(ints, weights)))
    return min(values[j] - values[i] for i, j in minimal_heavy_windows(sorted_weights, level))


def observable_diameter(
    space: FiniteMMSpace,
    screen: Screen,
    kappa,
    *,
    cap_n: int = DEFAULT_EXACT_CAP,
) -> OdResult:
    """Exact observable diameter with an achieving witness.

    ``check_exact_size`` refuses the space before any work.  The search's
    worst case grows like n!, so a space above ``cap_n`` points needs it
    raised explicitly; past ``POINT_CEILING`` points it is refused whatever
    ``cap_n`` says.
    """
    kappa = to_open_unit(kappa, what="kappa")
    check_screen(screen)
    n = len(space)
    check_exact_size(n, cap_n)
    alpha = 1 - kappa
    weights, level, beta = integer_masses(space, alpha)
    if max(weights) >= level:
        # Some single point already carries mass alpha, so every image measure
        # has a zero-diameter heavy set: the constant map at the left end
        # witnesses 0
        base = screen.a if isinstance(screen, Interval) else ZERO
        return OdResult(ZERO, LipschitzWitness((base,) * n))

    scale, dmat_scaled, base_scaled, width_scaled = _scaled(space, screen)
    # point -> (distance, bit, weight) of every point, nearest first, the
    # point itself first at distance 0: the seeds' values and the search's
    # balls (B3) and reach (B2, read in reverse)
    bits = [1 << q for q in range(n)]
    nearest = [sorted(zip(row, bits, weights)) for row in dmat_scaled]

    # Seed the incumbent with the distance-to-anchor maps, scored as integer
    # pairs; the first anchor to reach the best score gets the one witness.
    # Each sweep lowers UB, the width at first, by the heavy windows it meets.
    best, best_witness = ZERO, None
    best_num, best_den, winner = 0, 1, None
    upper_scaled = width_scaled
    for anchor in range(n):
        num, den, upper_scaled = _seed_value(
            nearest[anchor], dmat_scaled, level, scale, width_scaled, upper_scaled
        )
        if num * best_den > best_num * den:
            best_num, best_den, winner = num, den, anchor
    if winner is not None:
        best = Fraction(best_num, best_den)
        best_witness = _seed_witness(dmat_scaled[winner], scale, width_scaled, base_scaled)

    def leaf(perm, bound):
        """Solve one surviving ordering; return the incumbent after it."""
        nonlocal best, best_witness
        edges = _order_edges(perm, weights, level, dmat_scaled, width_scaled)
        result = _max_t_for_order(edges, n, scale, bound, best)
        if result is not None:
            t, potentials, den = result
            shift = base_scaled * t.denominator - potentials[0]  # slot 0 at the left end
            ints = [0] * n
            for point, potential in zip(perm, potentials):
                ints[point] = potential + shift
            candidate = LipschitzWitness._from_scaled(den, ints)
            _check_witness(space, candidate, alpha, t)
            best, best_witness = t, candidate
        return best

    _pruned_orderings(
        n, dmat_scaled, nearest, width_scaled, scale, upper_scaled,
        weights, level, beta, best, leaf,
    )

    if best_witness is None:
        # no seed and no leaf beat 0: the constant map at the left end
        best_witness = LipschitzWitness._from_scaled(scale, [base_scaled] * n)
    best_witness.validate(space, screen)
    _check_witness(space, best_witness, alpha, best)
    return OdResult(best, best_witness)


def _scaled(space: FiniteMMSpace, screen: Screen):
    """``(scale, dmat_scaled, base_scaled, width_scaled)``: the distances,
    the screen's left end and its width times ``scale``, the
    ``mmspace.screen_scale`` of the space and screen, as ints, so the bounds
    and Bellman-Ford run on plain ints.

    Any common scale gives the same values and witnesses.  Every bound, edge
    weight and Bellman-Ford potential is homogeneous in the scale: scaling
    the distances, the left end and the width by ``c`` scales each of them
    by ``c``, which keeps every comparison.  Each bound and cycle ratio is
    read back over ``scale``, and each witness over ``scale`` times a
    denominator of t, which scale by ``c`` too, so they are the same
    rationals.

    The full line is searched as the screen ``[0, diam X]``: its width is
    the largest distance.  That changes no value: a 1-Lipschitz image
    spreads at most ``diam X``, so a translate of it lies in ``[0, diam X]``,
    and translation keeps every spread.  It changes no witness either.  The
    seeds spread at most ``diam X``, so none is squeezed, and ``UB`` already
    sits below ``diam X``.  In ``_order_edges`` the width edge
    ``(0, n - 1)`` comes right after the Lipschitz edges, the one between
    the same slots among them, and no Lipschitz edge ends at slot 0, so none
    lowers ``dist[0]`` in between.  Hence whenever a Bellman-Ford sweep
    reaches the width edge,
    ``dist[n - 1] <= dist[0] + d(perm[0], perm[n - 1]) * t_den``, and the
    width edge, of weight ``W * t_den >= d(perm[0], perm[n - 1]) * t_den``,
    never relaxes: the potentials, the predecessors and every negative cycle
    are those of the graph without it.  In the prefix search W enters only
    B2 and B4.  B4 reads it through ``min(d, W)``, which is d here, since
    no distance exceeds ``diam X``.  Before a leaf the farthest unplaced
    point is at most ``diam X`` away, so B2 reads the same; at a leaf it
    may now tighten the bound, but not below the ordering's optimum, since
    ``y_{n-1} - y_0 <= diam X``.  A leaf it cuts could not beat the
    incumbent, and otherwise the solve's probes stay above the optimum
    until the first feasible one, which is the optimum itself, on the same
    graph with the same potentials.
    """
    scale = screen_scale(space, screen)
    dmat_scaled, ends = on_scale(space, screen, scale)
    if ends is None:
        return scale, dmat_scaled, 0, max(map(max, dmat_scaled))
    a, b = ends
    return scale, dmat_scaled, a, b - a


def _check_witness(space, witness, alpha, value) -> None:
    achieved = witness_partial_diameter(space, witness, alpha)
    if achieved != value:
        raise VerificationError(
            f"witness achieves partial diameter {fraction_text(achieved)}, "
            f"not the claimed {fraction_text(value)}"
        )


def _pruned_orderings(
    n, dmat_scaled, nearest, width_scaled, scale, root, weights, level, beta, incumbent, leaf
):
    """Search the orderings of range(n) in lexicographic order, minus whole
    subtrees of prefixes whose bound cannot beat the incumbent, and call
    ``leaf(perm, bound)`` at each surviving ordering.

    ``leaf`` gets the ordering and a ``Fraction`` at least its exact
    optimum; it solves the ordering and returns the incumbent after it,
    which every later cut reads.  ``incumbent`` is the starting incumbent, a
    ``Fraction``.  A prefix's bound is the least of ``root`` (UB) and the
    chain-Lipschitz (B1), remaining-mass (B2) and ball-mass (B3) bounds of
    every prefix on its path, all over ``scale``.  A prefix that passes them
    is still cut when its unplaced points cannot all meet their deadlines
    (B4, ``_deadlines_missed``), and a full ordering's bound is lowered by
    the two-span bound (B5, ``_two_span_bound``) before ``leaf`` is
    called, or the ordering is cut.  The module docstring proves all five.
    The empty prefix is cut by the same test as every other, before any
    set-up, so when a seed already meets UB the search returns at once.
    ``weights``, ``level`` and ``beta`` come from
    ``mmspace.integer_masses``; no point may weigh ``level`` alone.
    ``nearest[p]`` is the engine's neighbour table: every point as ``(scaled
    distance, bit, weight)``, nearest first, p itself first.  B3 reads it
    forward and B2's reach backward, and both skip the placed points, p
    among them.  The search reads no subset: by the module docstring's
    window lemma, B1's chains come from the masses of the placed prefixes.
    """
    limit, den = incumbent.numerator * scale, incumbent.denominator  # on the bounds' scale
    if root * den <= limit:
        return
    full = (1 << n) - 1
    total = sum(weights)
    # B4: any light + 1 points are heavy; deadlines fall before the last
    # slot only at slots below n - light
    light = sum(acc < level for acc in accumulate(sorted(weights)))
    shallow = n - light
    closest = min(row[1][0] for row in nearest)  # the least distance
    perm = []
    before = [0]  # before[a]: mass of the points at slots < a
    chains = [None] * n  # chains[b][a] = E(a, b) for the placed slots

    def extend(placed, before_frontier, bound, count):
        """Search the completions of ``perm``.

        ``placed`` is the bit set of the placed points; ``before_frontier``
        the mass of the points before the greedy chain's frontier;
        ``bound / (count * scale)`` the prefix's bound.
        """
        nonlocal limit, den
        slot = len(perm)
        prev = chains[slot - 1] if slot else ()
        # B2's k for the frontier where it is, and for the frontier moved
        # to this slot: the heavy windows that fit end to end after it
        placed_mass = before[slot]
        stay = max(-(-(total - before_frontier) // beta) - 1, 0)
        advance = max(-(-(total - placed_mass) // beta) - 1, 0)
        for p in range(n):
            bit = 1 << p
            if placed & bit:
                continue
            child = placed | bit
            start = perm[0] if slot else p
            if child != full and start > (full & ~child).bit_length() - 1:
                continue  # every completion ends below its first point
            held = placed_mass + weights[p]
            # the last first slot of a heavy window ending at this slot
            lo = bisect_right(before, held - level) - 1
            col = [*prev, 0]
            if lo >= 0:
                # E(a, slot) = max(E(a, slot - 1), E(a, lo) + 1) for a <= lo,
                # and E(a, lo) <= E(a, slot - 1)
                for a, e in enumerate(chains[lo]):
                    if e == col[a]:
                        col[a] = e + 1
            b_num, b_den = bound, count
            row = dmat_scaled[p]
            for a in range(slot):  # B1 on the pairs (a, slot)
                e = col[a]
                if e and row[perm[a]] * b_den < b_num * e:
                    b_num, b_den = row[perm[a]], e
            frontier, stack = before_frontier, col[0] + stay  # B2's E(0, slot) + k
            if slot and col[0] > prev[0]:
                frontier, stack = placed_mass, col[0] + advance
            # B2's W: the width, and while points are unplaced the distance
            # from the first point to the farthest of them
            reach = width_scaled
            if child != full:
                for d, far_bit, _ in reversed(nearest[start]):
                    if not child & far_bit:
                        if d < reach:
                            reach = d
                        break
            if stack and reach * b_den < b_num * stack:
                b_num, b_den = reach, stack
            if b_num * den <= limit * b_den:
                continue
            if child == full:
                # B5: two spans closed by two Lipschitz edges
                b_num, b_den = _two_span_bound(row, dmat_scaled, perm, chains, col, b_num, b_den)
            else:
                # B3: slots a..slot plus the unplaced points nearest perm[a]
                # out to radius d are heavy, so t <= d; slots lo..slot are
                # heavy on their own, and B1 covers them
                for a in range(slot, lo, -1):
                    need = level - held + before[a]
                    for d, near_bit, w in nearest[perm[a] if a < slot else p]:
                        if child & near_bit:
                            continue
                        if d * b_den >= b_num:
                            break
                        need -= w
                        if need <= 0:
                            b_num, b_den = d, 1
                            break
            if b_num * den <= limit * b_den:
                continue
            if slot < shallow:  # never at a leaf, since light >= 1
                # B4: every unplaced point needs a slot by its deadline,
                # slot - 1 + light * (1 + spare); spares of room or more
                # put no deadline before the last slot
                room = (n - 1 - slot) // light
                if (col[0] + room) * limit >= width_scaled * den:
                    continue
                spares = {}
                for a, e in enumerate(col):
                    # the unplaced q with spare below room against slot a
                    near = (room + e) * limit // den
                    if near < closest:
                        # e, and so near, never grows with a; a zero
                        # incumbent stops here at a = 0
                        break
                    for d, near_bit, _ in nearest[perm[a] if a < slot else p]:
                        if d > near:
                            break
                        if child & near_bit:
                            continue
                        spare = (d * den - 1) // limit - e
                        if spare < spares.get(near_bit, room):
                            spares[near_bit] = spare
                if spares and _deadlines_missed(spares.values(), light):
                    continue
            perm.append(p)
            before.append(held)
            chains[slot] = col
            if child == full:
                best = leaf(tuple(perm), Fraction(b_num, b_den * scale))
                limit, den = best.numerator * scale, best.denominator
            else:
                extend(child, frontier, b_num, b_den)
            before.pop()
            perm.pop()

    extend(0, 0, root, 1)


def _two_span_bound(row, dmat_scaled, perm, chains, col, num, den) -> tuple:
    """``(num, den)`` lowered to the least two-span bound (B5) of the leaf
    child whose point fills the last slot ``s = len(perm)``:
    ``(d(perm[a1], p) + d(perm[a2], perm[b1])) / (E(a1, b1) + E(a2, s))``
    over slots ``a1 < a2 < b1 < s``, with ``row`` the distances from the
    child's point p, ``chains[b][a] = E(a, b)`` for ``b < s`` and
    ``col[a] = E(a, s)``.  ``E(a, b)`` only falls as a rises, so each loop
    over a first slot stops at its first zero."""
    s = len(perm)
    for b1 in range(2, s):
        chain, far = chains[b1], dmat_scaled[perm[b1]]
        for a1 in range(b1 - 1):
            e1 = chain[a1]
            if not e1:
                break
            d1 = row[perm[a1]]
            for a2 in range(a1 + 1, b1):
                e2 = col[a2]
                if not e2:
                    break
                d = d1 + far[perm[a2]]
                if d * den < num * (e1 + e2):
                    num, den = d, e1 + e2
    return num, den


def _deadlines_missed(spares, light) -> bool:
    """Whether unplaced points with these ``spares`` cannot take distinct
    slots after the child by their deadlines (B4, Hall's condition): the one
    with the i-th least spare, i from 1, may sit at most
    ``light * (1 + spare) - 1`` slots past the child, and needs the i-th
    free slot.  Points left out have spares past every deadline that
    matters."""
    for i, spare in enumerate(sorted(spares), 1):
        if light * (1 + spare) - 1 < i:
            return True
    return False


def _seed_value(nearest_row, dmat_scaled, level, scale, width_scaled, upper) -> tuple:
    """``(num, den, upper)``: the distance-to-anchor seed's partial diameter
    ``num / den`` and ``upper`` lowered to the diameter of each minimal heavy
    window of the anchor's row of the neighbour table: every point as
    ``(scaled distance, bit, weight)``, nearest first, on ``level``'s scale.

    The seed's value is the narrowest heavy window of values, by the
    two-pointer sweep of ``measures.minimal_heavy_windows`` over the row,
    which is already sorted.  The order among equal distances does not
    matter.  A window of the row weighs at most the window of values
    between its ends, and the row's window from the first point at one
    value to the last point at another holds every point with a value
    between them.  So the least width is the same in any order sorted by
    distance.  It equals the least spread of a minimal heavy subset S of
    points:

    * a set of values is heavy exactly when its preimage is;
    * the window ``[min S, max S]`` holds the values of S, so it is heavy
      and exactly as wide as S spreads;
    * every heavy window's preimage is heavy, so it holds a minimal heavy
      subset, whose values lie in the window and spread at most its width.

    Squeezing the seed onto a screen narrower than its spread multiplies
    every spread by width / spread.

    A minimal heavy window ``[i, j]`` (``[i + 1, j]`` and ``[i, j - 1]``
    light) is a heavy set, so od is at most its diameter (the global
    bound), which is at least ``d_j - d_i`` by the triangle inequality
    through the anchor; a window with ``d_j - d_i >= upper`` is skipped.

    The sweep is written out here, fused with UB's window diameters, and
    does not call ``minimal_heavy_windows``: it runs once per anchor on
    every engine call, and calling the helper, which builds a list first,
    measured 15-30% slower per seed call (CPython 3.11.7, shared 2-vCPU VM).
    """
    spread = nearest_row[-1][0]
    low = spread  # the whole space is heavy, and the anchor sits at 0
    acc = i = 0
    for j, (d, _, w) in enumerate(nearest_row):
        acc += w
        if acc < level:
            continue
        while acc - nearest_row[i][2] >= level:
            acc -= nearest_row[i][2]
            i += 1
        gap = d - nearest_row[i][0]
        if gap < low:
            low = gap
        if gap < upper and acc - w < level:
            window = [bit.bit_length() - 1 for _, bit, _ in nearest_row[i : j + 1]]
            upper = min(upper, max(dmat_scaled[p][q] for p in window for q in window))
    if spread > width_scaled:
        return low * width_scaled, scale * spread, upper
    return low, scale, upper


def _seed_witness(distances, scale, width_scaled, base_scaled) -> LipschitzWitness:
    """The distance-to-anchor map from the anchor's scaled ``distances``,
    squeezed affinely when the screen is short and shifted to the left end
    ``base_scaled / scale``."""
    spread = max(distances)
    if spread > width_scaled:
        scale, distances = scale * spread, [d * width_scaled for d in distances]
        base_scaled *= spread
    return LipschitzWitness._from_scaled(scale, [d + base_scaled for d in distances])


def _order_edges(perm, weights, level, dmat_scaled, width_scaled):
    """Difference-constraint edges (src, dst, const_scaled, t_count) meaning
    y[dst] - y[src] <= const - t * t_count, on slot variables.

    The order edges come first, last slot first, so one Bellman-Ford sweep
    carries a decrease at slot n - 1 down to slot 0.  The width edge comes
    right after the Lipschitz edges (``_scaled``).  The t-edges are the
    ordering's minimal heavy spans, first slot descending: by the module
    docstring's window lemma, the minimal heavy windows of the slot weights
    ``weights[p] for p in perm`` against ``level``.

    The order of the edges changes no value, potential or witness.  On a
    feasible probe ``_bellman_ford`` returns the shortest-path distances
    from a virtual source, which depend on the graph alone.  On an
    infeasible one it may find another negative cycle; that changes only
    the probes before the first feasible one, which is the optimum in any
    order (``_max_t_for_order``)."""
    n = len(perm)
    edges = [(k + 1, k, 0, 0) for k in range(n - 2, -1, -1)]  # y_k <= y_{k+1}
    for p in range(n):
        row = dmat_scaled[perm[p]]
        for q in range(p + 1, n):
            edges.append((p, q, row[perm[q]], 0))  # Lipschitz, other side implied
    edges.append((0, n - 1, width_scaled, 0))
    for lo, hi in minimal_heavy_windows([weights[p] for p in perm], level)[::-1]:
        edges.append((hi, lo, 0, 1))  # y_hi - y_lo >= t
    return edges


def _max_t_for_order(edges, n_slots, scale, upper, floor_best):
    """``(t, potentials, den)`` for one ordering: the exact max feasible t
    and the slot values at it, the integer potentials over
    ``den = scale * t.denominator``; or None once t cannot beat
    ``floor_best``.  Each infeasible probe returns a negative cycle whose
    exact ratio becomes the next (strictly smaller) probe; the first feasible
    probe is the optimum because feasibility is monotone in t.  Every cycle
    ratio is at least the optimum, so which negative cycle a probe finds
    changes only the probes before it."""
    t = upper
    while True:
        if t <= floor_best:
            return None
        t_num, t_den = t.numerator, t.denominator
        per_count = t_num * scale
        arcs = [(src, dst, c * t_den - per_count * k) for src, dst, c, k in edges]
        potentials, cycle = _bellman_ford(n_slots, arcs)
        if cycle is None:
            return t, potentials, scale * t_den
        const_sum = sum(edges[e][2] for e in cycle)
        t_count = sum(edges[e][3] for e in cycle)
        if t_count == 0:
            raise VerificationError("negative cycle without t-edges in a feasible base system")
        ratio = Fraction(const_sum, scale * t_count)
        if ratio >= t:
            raise VerificationError("cycle ratio failed to decrease")
        t = ratio


def _bellman_ford(n_nodes, arcs):
    """Feasible potentials for y[dst] <= y[src] + weight over the
    ``(src, dst, weight)`` arcs, or a negative cycle.

    Starting all potentials at 0 plays the role of a virtual source.  Returns
    (potentials, None) when feasible, (None, cycle_arc_indices) otherwise.
    The potentials returned are the shortest-path distances from that
    source, the one fixed point of the relaxations when there is no
    negative cycle, so the order of the arcs does not change them.
    """
    dist = [0] * n_nodes
    pred = [-1] * n_nodes
    last_pass = n_nodes - 1
    for sweep in range(n_nodes):
        changed = False
        for idx, (src, dst, weight) in enumerate(arcs):
            candidate = dist[src] + weight
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
                        node = arcs[pred[node]][0]
                    cycle = []
                    cursor = node
                    while True:
                        arc_idx = pred[cursor]
                        if arc_idx < 0:
                            raise VerificationError("predecessor chain broke off")
                        cycle.append(arc_idx)
                        cursor = arcs[arc_idx][0]
                        if cursor == node:
                            break
                    if sum(arcs[e][2] for e in cycle) >= 0:
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
    cap_n: int = DEFAULT_GRID_CAP,
) -> tuple:
    """Brute-force enclosure ``(lower, upper)`` of the observable diameter.
    ``lower`` is the best min-heavy-spread over all assignments of grid
    values inside the screen that respect the Lipschitz bounds, and
    ``upper = lower + (n - 1) * step``.

    Independent of the exact engine (no orderings, no constraint graphs), so
    it doubles as a cross-check oracle.

    One search lists integer vectors k, in steps: point 0 is pinned at 0,
    every value stays within top = floor(width / step) of every other (the
    window [max - top, min + top] of the values placed so far), every pair
    keeps its floored Lipschitz bound, and point 1 sits at or above point 0.
    This loses nothing.  The translation k -> k - min k is a bijection from
    the vectors with point 0 at 0 and spread at most top onto the grid maps
    with minimum 0 inside [0, top], the maps of the screen up to a shift;
    the objective and every constraint are translation invariant, so the
    search over those vectors has the same best value.  Negation keeps point
    0 at 0, and it keeps every floored Lipschitz bound (the bound matrix is
    symmetric), the window and every spread, so the vectors with point 1
    below point 0 add no value that their negations do not.

    Enclosure: for n points and step h the result g obeys
    g <= od <= g + (n - 1) * h.  The left side holds because each grid
    assignment searched is a 1-Lipschitz map into the screen.  For the right
    side, sort an optimal witness's values, f(p_1) <= ... <= f(p_n), and
    floor each gap to whole steps: k_1 = 0 and
    k_{j+1} = k_j + floor((f(p_{j+1}) - f(p_j)) / h).  A sum of floors is at
    most the floor of the sum, so k_l - k_j <= floor((f(p_l) - f(p_j)) / h)
    for j < l.  Hence the rounded map is 1-Lipschitz on the grid and spans
    at most floor(width / h) steps, so it stays inside the screen and the
    search meets it up to translation and negation.  Each floor loses less than one step and a heavy
    subset spans at most n - 1 gaps, so every heavy spread shrinks by less
    than (n - 1) * h, and g > od - (n - 1) * h.  The early return of 0 for
    a heavy singleton is exact, since that subset's spread is always 0.

    The search lists no heavy subset.  Along a path it keeps ``cap``, the
    least spread of the minimal heavy subsets among the points placed so
    far, and when point ``var`` takes value k it lowers ``cap`` by those
    that ``var`` completes: the minimal heavy subsets of points 0..var that
    contain ``var``.  It reads them from the placed values instead, sorted
    with their weights, by ``_seed_value``'s window argument: each minimal
    window that is heavy together with ``var`` (weighs at least
    ``level - w_var``; ``measures.minimal_heavy_windows``) gives a range
    ``[low, high]``, and the least of ``max(high, k) - min(low, k)`` over
    those ranges and ``cap`` is the same ``cap_here`` as over the completed
    subsets and ``cap``:

    * a heavy set S containing ``var`` has its placed values inside the
      window from the first position at its least value to the last at its
      greatest.  That window holds S minus ``var``, so it is heavy with
      ``var``, and with k it spreads ``max(high, k) - min(low, k)``, the
      same as S;
    * a window that is not minimal holds a minimal one (drop end positions
      while it stays heavy with ``var``), which spreads no wider, with k or
      without;
    * conversely, a window heavy with ``var`` and ``var`` itself make a
      heavy set of points 0..var, which holds a minimal heavy subset M.  If
      M contains ``var``, ``var`` completes M, and M spreads no wider than
      the window with k.  If M omits ``var``, its last point came earlier,
      and ``cap`` already counts M.

    So ``cap_here`` matches the family's node by node, and the search
    visits the same nodes.

    The last point is placed in closed form.  At ``var = n - 1`` a value k
    only raises ``best`` to g(k) = min(cap, min_r s_r(k)), where
    s_r(k) = max(high_r, k) - min(low_r, k) over the ranges r, so the node
    needs the largest g(k) over the integers k of [lo, hi].  Each s_r is
    ``high_r - k`` up to ``low_r``, ``high_r - low_r`` up to ``high_r``
    and ``k - low_r`` after: integer valued on integers, and it changes by
    at most 1 per unit step, rising by exactly 1 only on its last stretch
    and falling by exactly 1 only on its first.  That largest value is met
    at lo, at hi, or at floor((high_t + low_r) / 2) for two ranges r and t
    (``_last_point_values``).  Let k* be the least integer of [lo, hi] where
    g is greatest, M = g(k*), and j the last integer such that g = M at
    every integer of [k*, j], j <= hi.  If k* = lo or j = hi, lo or hi is
    met.  Otherwise g(k* - 1) <= M - 1 and g(j + 1) <= M - 1, since g is
    integer valued on integers.  Take the function that is least at
    k* - 1: it is at least g(k*) = M at k*, so it rose by 1 in one step.
    It is not the constant cap, so it is some s_r on its last stretch,
    ``k - low_r``, and ``k* - low_r = M``.  Likewise the function least at
    j + 1 fell by 1, so it is some s_t on its first stretch and
    ``high_t - j = M``.  Then (high_t + low_r) / 2 = (j + k*) / 2, whose
    floor lies in [k*, j], where g = M.  So the leaf tries at most
    2 + r^2 values for r ranges, r <= n - 1, where it tried all
    hi - lo + 1.

    So the search lists at most (top + 1)^(n - 1) - top^(n - 1)
    <= (n - 1) * (top + 1)^(n - 2) placements of points 0..n - 2 (for
    n >= 2) and tries those few values of the last point on each.  Once
    (top + 1)^(n - 1) passes 2^``GRID_CEILING`` the grid is refused before
    the search, and no cap keyword raises this ceiling.
    """
    kappa = to_open_unit(kappa, what="kappa")
    if not isinstance(screen, Interval):
        raise DomainError("the grid oracle needs a bounded interval screen")
    step = to_positive(grid_step, what="grid_step")
    n = len(space)
    check_grid_size(n, cap_n)
    mass_scale, weights = space.scaled_masses
    level = scaled_level(1 - kappa, mass_scale)
    slack = (n - 1) * step
    if max(weights) >= level:
        return ZERO, slack

    top = floor(screen.width / step)  # grid indices run 0..top
    # the first test keeps the power small when the step is tiny
    if top >= 1 << GRID_CEILING or (top + 1) ** (n - 1) > 1 << GRID_CEILING:
        raise ResourceCapError(
            f"{n} points at grid step {fraction_text(step)} on a screen of width "
            f"{fraction_text(screen.width)} exceed the grid ceiling of 2^{GRID_CEILING} "
            "assignments to the points besides a pinned one; use a coarser --grid-step "
            "(grid_step in the library); --cap-n cannot raise it"
        )
    # floor(d / step) on integers: d = dd / scale and step = p / q give
    # d / step = dd * q / (scale * p), with dd >= 0 and a positive divisor
    scale, rows = space.scaled_dist
    per_step = scale * step.numerator
    bound = [[d * step.denominator // per_step for d in row] for row in rows]

    ks = [0] * n  # point 0 stays pinned at 0
    best = 0

    def recurse(var: int, cap: int, least: int, most: int) -> None:
        nonlocal best
        # the placed values span [least, most]; the window keeps the spread <= top
        lo, hi = most - top, least + top
        if var == 1:
            lo = 0  # the reflection: point 1 at or above point 0
        # bound is symmetric, so row var lists the bounds to the placed points
        for b, placed in zip(bound[var][:var], ks):
            lo = max(lo, placed - b)
            hi = min(hi, placed + b)
        # each minimal window of placed values that is heavy with var spans
        # [low, high] and spreads max(high, k) - min(low, k) when var takes
        # value k (docstring)
        values, placed_weights = zip(*sorted(zip(ks[:var], weights)))
        ranges = [
            (values[i], values[j])
            for i, j in minimal_heavy_windows(placed_weights, level - weights[var])
        ]
        leaf = var == n - 1
        # the last point tries only the values that hold its best one (docstring)
        candidates = _last_point_values(lo, hi, ranges) if leaf else range(lo, hi + 1)
        for k in candidates:
            cap_here = cap
            for low, high in ranges:
                spread = (high if high > k else k) - (low if low < k else k)
                if spread < cap_here:
                    cap_here = spread
            if cap_here > best:
                if leaf:
                    best = cap_here
                else:
                    ks[var] = k
                    recurse(var + 1, cap_here, min(least, k), max(most, k))

    # point 0 completes no subset: a heavy singleton has returned above
    recurse(1, top, 0, 0)
    lower = Fraction(best) * step
    return lower, lower + slack


def _last_point_values(lo: int, hi: int, ranges) -> list:
    """The integers of ``[lo, hi]`` among which the grid oracle's last point
    finds its best value: lo, hi and floor((high_t + low_r) / 2) for every
    two ranges r and t (proof in ``od_grid_oracle``)."""
    values = {lo, hi}
    values.update((high + low) // 2 for _, high in ranges for low, _ in ranges)
    return [k for k in values if lo <= k <= hi]


def random_lipschitz_map(space: FiniteMMSpace, screen: Screen, seed: int) -> LipschitzWitness:
    """Seeded random 1-Lipschitz witness: lower envelope of cones over random
    anchors, clipped to the screen.  Both steps preserve the Lipschitz bound,
    and a fixed seed reproduces the witness exactly.

    The anchors are ``lo + (hi - lo) * r / 64`` for ``r = randint(0, 64)``,
    one draw per point in point order from ``random.Random(seed)``, where
    ``[lo, hi]`` is the screen widened by the space's diameter on both sides
    (``[-diam, diam]`` on the full line).  The values come from the one
    construction kernel, ``_random_lipschitz_values``, which builds and
    checks them on one integer scale; the witness is its result for this
    one seed, reduced.
    """
    den, values = next(_random_lipschitz_values(space, screen, (seed,)))
    return LipschitzWitness._from_scaled(den, values)


def _random_lipschitz_values(space: FiniteMMSpace, screen: Screen, seeds):
    """Yield ``(den, values)``, unreduced, for each seed of ``seeds``: the
    values of ``random_lipschitz_map(space, screen, seed)`` times ``den``.

    Everything per space and screen is computed once per call, on one
    integer scale, ``den = 64 * mmspace.screen_scale(space, screen)``: the
    screen ends ``a, b`` and every distance times ``den`` are integer
    multiples of 64, so ``(hi - lo) / 64`` is an integer ``step`` on that
    scale and each anchor ``lo + step * r`` is exact.  Sums, minima and the
    clamp commute with multiplying by the positive ``den``, so each value is
    the integer result over ``den``, the same rational the arithmetic on
    fractions gives.  Per seed the draws are those of the witness:
    ``random.Random(seed)``, then ``randint(0, 64)`` once per point in point
    order.  Each seed's values pass ``mmspace.check_scaled``, ``validate``'s
    check, before they are yielded.  A screen of the wrong type raises
    ``DomainError`` before any draw.
    """
    check_screen(screen)
    n = len(space)
    den = 64 * screen_scale(space, screen)
    rows, ends = on_scale(space, screen, den)
    a, b = ends or (0, 0)
    diam = max(map(max, rows))
    lo = a - diam
    step = (b + diam - lo) // 64
    for seed in seeds:
        randint = random.Random(seed).randint
        anchors = [lo + step * randint(0, 64) for _ in range(n)]
        values = [min(map(add, anchors, row)) for row in rows]
        if ends:
            values = [min(b, max(a, v)) for v in values]
        check_scaled(space, rows, ends, den, values)
        yield den, values


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


def verify_revised_inequality(space: FiniteMMSpace, kappa, radius) -> RevisedInequalityReport:
    """Check the screen-size correction: a radius-R budget survives on the
    screen [-R/(1-kappa), R/(1-kappa)]."""
    kappa = to_open_unit(kappa, what="kappa")
    radius = to_positive(radius, what="radius")
    od_full = observable_diameter(space, FULL_LINE, kappa)
    reach = radius / (1 - kappa)
    screen = Interval(-reach, reach)
    od_screen = observable_diameter(space, screen, kappa)
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
