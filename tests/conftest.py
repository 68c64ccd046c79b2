"""Shared test plumbing: brute-force oracles and hypothesis strategies.

The oracles restate the definitions as directly as possible (quadratic scans,
full subset enumeration) so the library's cleverer algorithms are checked
against something naive.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, permutations
from math import floor, lcm

from hypothesis import strategies as st

from obsdiam import (
    DiscreteMeasure,
    DomainError,
    Interval,
    LipschitzWitness,
    PiecewiseLinearMap,
    ValidationError,
    VerificationError,
    heavy_minimal_subsets,
    partial_diameter,
    push_forward,
)
from obsdiam._rational import (
    ZERO, fraction_text, to_at_most_one, to_fraction, to_open_unit, to_positive,
)
from obsdiam.measures import minimal_heavy_windows, scaled_level
from obsdiam.mmspace import FullLine
from obsdiam.observable import _max_t_for_order


def exactly(message: str) -> str:
    """A ``pytest.raises`` pattern matching ``message`` and nothing else."""
    return f"^{re.escape(message)}$"


def reciprocal_prime_atoms(k: int) -> list:
    """Uniform mass on 1/p for the first k primes (k <= 5 000): positions
    with pairwise coprime denominators, whose lcm is the product of the
    primes, about 70 000 bits at k = 5 000."""
    limit = 48612  # the 5 000th prime is 48 611
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, 221):  # 221^2 > limit
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    primes = [p for p in range(limit) if sieve[p]][:k]
    return [(Fraction(1, p), Fraction(1, k)) for p in primes]


def long_denominator_distances(n: int, rng) -> list:
    """An n x n distance matrix, as strings, whose off-diagonal entries are
    1 + 1/q for random 4,000-digit q: every distance lies in (1, 2], so the
    triangle inequality holds, and the common denominator is the product of
    n (n - 1) / 2 pairwise coprime q, as a rule."""
    dist = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = rng.randrange(10**3999, 10**4000)
            dist[i][j] = dist[j][i] = f"{q + 1}/{q}"
    return dist


# -- brute-force oracles -------------------------------------------------------


def pd_window_scan(mu: DiscreteMeasure, alpha) -> Fraction:
    """Definition-level partial diameter: try every window of atoms."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        return Fraction(0)
    atoms = mu.atoms
    best = None
    for i in range(len(atoms)):
        acc = Fraction(0)
        for j in range(i, len(atoms)):
            acc += atoms[j][1]
            if acc >= alpha:
                width = atoms[j][0] - atoms[i][0]
                if best is None or width < best:
                    best = width
                break  # wider windows from this i are never better
    assert best is not None
    return best


def measure_atoms_oracle(atoms) -> tuple:
    """Canonical atoms of a measure by the Fraction construction the integer
    view replaced: merge equal positions by adding Fraction masses, check the
    Fraction total, and sort the (position, mass) pairs directly."""
    merged: dict[Fraction, Fraction] = {}
    count = 0
    for pos, mass in atoms:
        pos = to_fraction(pos, what="atom position")
        mass = to_fraction(mass, what="atom mass")
        if mass <= 0:
            raise ValidationError(f"atom mass must be positive, got {fraction_text(mass)}")
        merged[pos] = merged.get(pos, ZERO) + mass
        count += 1
    if count == 0:
        raise ValidationError("a measure needs at least one atom")
    total = sum(merged.values())
    if total != 1:
        raise ValidationError(f"atom masses must sum to 1 exactly, got {fraction_text(total)}")
    return tuple(sorted(merged.items()))


def pd_sweep_oracle(atoms, alpha) -> tuple:
    """``(value, window)`` by the Fraction two-pointer sweep the integer sweep
    replaced, on canonical atoms and 0 < alpha <= 1: the first narrowest
    window in order of its right end."""
    best = window = None
    acc = ZERO
    i = 0
    for j, (pos_j, mass_j) in enumerate(atoms):
        acc += mass_j
        while acc - atoms[i][1] >= alpha:
            acc -= atoms[i][1]
            i += 1
        if acc >= alpha:
            width = pos_j - atoms[i][0]
            if best is None or width < best:
                best = width
                window = (atoms[i][0], pos_j)
    return best, window


def pd_profile_oracle(atoms) -> tuple:
    """Profile steps by the Fraction construction the integer one replaced:
    every window's Fraction width and mass, the best mass per width, and the
    lower staircase in order of width."""
    n = len(atoms)
    prefix = [ZERO]
    for _, m in atoms:
        prefix.append(prefix[-1] + m)
    best_mass: dict[Fraction, Fraction] = {}
    for i in range(n):
        for j in range(i, n):
            width = atoms[j][0] - atoms[i][0]
            mass = prefix[j + 1] - prefix[i]
            if width not in best_mass or mass > best_mass[width]:
                best_mass[width] = mass
    steps = []
    reached = ZERO
    for width in sorted(best_mass):
        if best_mass[width] > reached:
            reached = best_mass[width]
            steps.append((reached, width))
    return tuple(steps)


def range_check_oracle(check, value, what: str) -> Fraction:
    """``check`` (``to_open_unit``, ``to_positive`` or ``to_at_most_one``)
    by the Fraction comparisons that the integer pairs replaced."""
    value = to_fraction(value, what=what)
    inside, wanted = {
        to_open_unit: (lambda v: 0 < v < 1, "lie in (0, 1)"),
        to_positive: (lambda v: v > 0, "be positive"),
        to_at_most_one: (lambda v: v <= 1, "be <= 1"),
    }[check]
    if not inside(value):
        raise DomainError(f"{what} must {wanted}, got {fraction_text(value)}")
    return value


def forbid_fraction_order(monkeypatch) -> None:
    """Make every ``<``, ``<=``, ``>`` and ``>=`` on a Fraction raise, until
    ``monkeypatch.undo()``: code that passes compared no Fraction."""

    def refuse(self, other):
        raise AssertionError("a Fraction was compared")

    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, refuse)


def outcome(call, *args):
    """What ``call(*args)`` returns, with its type, or the type and message
    of what it raises."""
    try:
        value = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value


def pd_profile_evaluate_oracle(steps, alpha) -> Fraction:
    """A profile's value at ``alpha`` by the Fraction bisect the integer
    levels replaced: 0 at or below 0, else the value of the first step whose
    threshold is at least ``alpha``."""
    alpha = range_check_oracle(to_at_most_one, alpha, "alpha")
    if alpha <= 0:
        return ZERO
    # (alpha,) sorts before every step (alpha, v)
    return steps[bisect_left(steps, (alpha,))][1]


def _every_subset_mass(space) -> dict:
    """{index tuple: mass} for every subset of points, each sum one
    ``Fraction`` add onto the sum of the tuple without its last point."""
    n, masses = len(space), space.masses
    mass = {(): ZERO}
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            mass[combo] = mass[combo[:-1]] + masses[combo[-1]]
    return mass


def heavy_subsets_bruteforce(space, alpha):
    """All inclusion-minimal index subsets with mass >= alpha.  Masses are
    positive, so a heavy set has a heavy proper subset exactly when it has
    one with a single point fewer."""
    mass = _every_subset_mass(space)
    minimal = [
        combo
        for combo, m in mass.items()
        if m >= alpha
        and all(mass[combo[:i] + combo[i + 1:]] < alpha for i in range(len(combo)))
    ]
    return sorted(minimal, key=lambda t: (len(t), t))


def heaviest_light_bruteforce(space, alpha) -> Fraction:
    """The largest mass of a subset of points below alpha (the empty set
    weighs 0)."""
    return max(m for m in _every_subset_mass(space).values() if m < alpha)


def prokhorov_feasible(mu: DiscreteMeasure, nu: DiscreteMeasure, eps: Fraction) -> bool:
    """Direct check of the one-sided condition at tolerance eps: every subset
    of nu's support must satisfy mu(open eps-neighborhood) >= nu(A) - eps."""
    nu_atoms = nu.atoms
    for size in range(1, len(nu_atoms) + 1):
        for combo in combinations(nu_atoms, size):
            positions = [p for p, _ in combo]
            nu_mass = sum(m for _, m in combo)
            reached = sum(
                m
                for p, m in mu.atoms
                if min(abs(p - a) for a in positions) < eps
            )
            if reached < nu_mass - eps:
                return False
    return True


def prokhorov_subset_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Fraction:
    """One-sided Prokhorov distance by enumerating all 2^|supp nu| subsets.

    This is the enumerator the library's max-flow search replaced.  For each
    subset A it scans the stretches between the mu-to-A distances for the
    least eps with mu(U_eps(A)) >= nu(A) - eps, and returns the worst subset's.
    """
    mu_atoms = mu.atoms
    nu_atoms = nu.atoms
    worst = Fraction(0)
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
                reach[d] = reach.get(d, Fraction(0)) + m
            thresholds = sorted(reach)
            if thresholds[0] != 0:
                thresholds.insert(0, Fraction(0))
            cumulative = []
            acc = Fraction(0)
            for d in thresholds:
                acc += reach.get(d, Fraction(0))
                cumulative.append(acc)
            # On the stretch (threshold_k, threshold_{k+1}] the neighborhood
            # mass is frozen at cumulative[k], so the condition first holds
            # at max(threshold_k, nu_mass - cumulative[k]).  The last
            # stretch is unbounded, so the scan always stops on one.
            for k, d in enumerate(thresholds):
                value = max(d, nu_mass - cumulative[k])
                if k + 1 == len(thresholds) or value <= thresholds[k + 1]:
                    break
            if value > worst:
                worst = value
    return worst


def minimal_spans(spans):
    """Antichain of slot spans under containment; wider spans are implied."""
    out = []
    min_hi = None
    for lo, hi in sorted(spans, key=lambda s: (-s[0], s[1])):
        if min_hi is None or hi < min_hi:
            out.append((lo, hi))
            min_hi = hi
    return out


def greedy_chain(spans) -> int:
    """Most spans that can be laid end to end; their spreads stack inside the
    screen width, giving the pigeonhole bound width / count."""
    count = 0
    frontier = None
    for lo, hi in sorted(spans, key=lambda s: s[1]):
        if frontier is None or lo >= frontier:
            count += 1
            frontier = hi
    return count


def seed_witnesses(space, screen):
    """The engine's seed witnesses as explicit maps: the constant map, then
    the distance-to-anchor maps, squeezed affinely when the screen is short.
    The engine scores the anchor maps on integer distances and builds only
    those that improve on its incumbent."""
    n = len(space)
    base = screen.a if isinstance(screen, Interval) else Fraction(0)
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


def seed_value_oracle(family, distances, scale, width_scaled) -> Fraction:
    """Partial diameter of the distance-to-anchor seed with the anchor's
    scaled ``distances``: the least spread of a minimal heavy subset, scored
    subset by subset, times width / spread when the screen squeezes it."""
    low = min(
        max(distances[i] for i in subset) - min(distances[i] for i in subset)
        for subset in family
    )
    spread = max(distances)
    if spread > width_scaled:
        return Fraction(low * width_scaled, scale * spread)
    return Fraction(low, scale)


def od_permutation_oracle(space, screen, kappa):
    """Exact observable diameter by the plain sweep over all n!/2 orderings.

    This is the enumerator the engine's pruned prefix search replaced.  It
    visits every ordering in ``itertools.permutations`` order and shares only
    the per-ordering constraint solve with the engine, so agreement on value
    *and* witness checks the search order and every cut.  On the full line
    its constraint graphs have no width edge, where the engine searches the
    screen ``[0, diam X]``, so agreement there also checks that the two
    give the same answers.  Returns ``(value, witness)``.
    """
    kappa = Fraction(kappa)
    alpha = 1 - kappa
    n = len(space)
    base = screen.a if isinstance(screen, Interval) else Fraction(0)
    family = heavy_minimal_subsets(space, alpha).minimal_subsets
    if n == 1 or any(len(s) == 1 for s in family):
        return Fraction(0), LipschitzWitness((base,) * n)
    dmat = space.dist_matrix
    width = screen.width if isinstance(screen, Interval) else None
    denominators = {d.denominator for row in dmat for d in row}
    if width is not None:
        denominators.add(width.denominator)
    scale = lcm(*denominators)
    dmat_scaled = [[int(d * scale) for d in row] for row in dmat]
    width_scaled = int(width * scale) if width is not None else None

    best = Fraction(0)
    best_witness = LipschitzWitness((base,) * n)
    for seed_witness in seed_witnesses(space, screen):
        value = witness_pd_oracle(space, seed_witness, alpha)
        if value > best:
            best, best_witness = value, seed_witness
    for perm in permutations(range(n)):
        if perm[0] > perm[-1]:
            continue
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
        kept = minimal_spans(spans)
        if width is not None:
            ub = min(ub, width / greedy_chain(kept))
        if ub <= best:
            continue
        edges = _oracle_order_edges(n, perm, kept, dmat_scaled, width_scaled)
        result = _max_t_for_order(edges, n, scale, ub, best)
        if result is None:
            continue
        t, potentials, den = result
        values = [Fraction(0)] * n
        shift = base - Fraction(potentials[0], den)
        for slot in range(n):
            values[perm[slot]] = Fraction(potentials[slot], den) + shift
        best, best_witness = t, LipschitzWitness(tuple(values))
    return best, best_witness


def _oracle_order_edges(n, perm, spans, dmat_scaled, width_scaled):
    """Difference-constraint edges (src, dst, const_scaled, t_count) meaning
    y[dst] - y[src] <= const - t * t_count, on slot variables; no width edge
    when ``width_scaled`` is None (the full line)."""
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


def grid_oracle_reference(space, screen, kappa, step) -> tuple:
    """``(lower, upper)`` by the anchored search that ``od_grid_oracle``
    replaced: one pass per anchor, which pins that point at 0 and lists
    every other point over [0, top], so a grid map is met once for each
    point at its minimum.  Each value k lists every completing subset's
    placed values and takes max - min.  No caps or ceilings; callers keep
    the grid small."""
    kappa = Fraction(kappa)
    step = Fraction(step)
    n = len(space)
    family = heavy_minimal_subsets(space, 1 - kappa).minimal_subsets
    slack = (n - 1) * step
    if any(len(s) == 1 for s in family):
        return Fraction(0), slack
    top = floor(screen.width / step)
    bound = [[floor(d / step) for d in row] for row in space.dist_matrix]
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
    lower = Fraction(best) * step
    return lower, lower + slack


def grid_search_per_k_oracle(space, screen, kappa, step) -> tuple:
    """``(lower, upper)`` by ``od_grid_oracle``'s one pinned and reflected
    search as it was before the last point got its closed form: every point,
    the last one too, takes each grid value k in its range in turn, and each
    k lowers the cap by the spread of every range of placed values heavy
    with the point.  No caps or ceilings; callers keep the grid small."""
    kappa = Fraction(kappa)
    step = Fraction(step)
    n = len(space)
    mass_scale, weights = space.scaled_masses
    level = scaled_level(1 - kappa, mass_scale)
    slack = (n - 1) * step
    if max(weights) >= level:
        return Fraction(0), slack
    top = floor(screen.width / step)
    bound = [[floor(d / step) for d in row] for row in space.dist_matrix]
    ks = [0] * n
    best = 0

    def recurse(var: int, cap: int, least: int, most: int) -> None:
        nonlocal best
        lo, hi = most - top, least + top
        if var == 1:
            lo = 0
        for b, placed in zip(bound[var][:var], ks):
            lo = max(lo, placed - b)
            hi = min(hi, placed + b)
        values, placed_weights = zip(*sorted(zip(ks[:var], weights)))
        ranges = [
            (values[i], values[j])
            for i, j in minimal_heavy_windows(placed_weights, level - weights[var])
        ]
        for k in range(lo, hi + 1):
            cap_here = min([cap] + [max(high, k) - min(low, k) for low, high in ranges])
            if cap_here > best:
                if var == n - 1:
                    best = cap_here
                else:
                    ks[var] = k
                    recurse(var + 1, cap_here, min(least, k), max(most, k))

    recurse(1, top, 0, 0)
    lower = Fraction(best) * step
    return lower, lower + slack


def witness_pd_oracle(space, witness: LipschitzWitness, alpha) -> Fraction:
    """Partial diameter of a witness's image by the path the integer sweep
    replaced: build the image measure, merging points with equal values,
    and run ``partial_diameter`` on it."""
    return partial_diameter(witness.pushforward(space), alpha).value


def random_lipschitz_map_oracle(space, screen, rng) -> LipschitzWitness:
    """The random witness by the Fraction arithmetic the integer scale
    replaced, drawing from ``rng`` (the library seeds ``random.Random(seed)``):
    anchors ``lo + span * r / 64`` on the screen widened by the diameter, the
    lower envelope of their cones, then the clamp onto an interval screen."""
    n = len(space)
    diam = space.diameter
    if isinstance(screen, Interval):
        lo, hi = screen.a - diam, screen.b + diam
    else:
        lo, hi = -diam, diam
    span = hi - lo
    anchors = [lo + span * Fraction(rng.randint(0, 64), 64) for _ in range(n)]
    values = [min(anchors[j] + space.dist(i, j) for j in range(n)) for i in range(n)]
    if isinstance(screen, Interval):
        values = [min(screen.b, max(screen.a, v)) for v in values]
    witness = LipschitzWitness(tuple(values))
    lipschitz_validate_oracle(witness, space, screen)
    return witness


def lipschitz_validate_oracle(witness: LipschitzWitness, space, screen) -> None:
    """``LipschitzWitness.validate`` by Fraction comparisons, as before the
    common integer scale: length, then the screen's type, then the screen,
    then the pairs (i, j) with i < j in order, raising the same messages."""
    values = witness.values
    n = len(space)
    if len(values) != n:
        raise ValidationError(f"witness has {len(values)} values for a {n}-point space")
    if not isinstance(screen, (Interval, FullLine)):
        raise DomainError(f"screen must be an Interval or FULL_LINE, got {screen!r}")
    for v in values:
        if isinstance(screen, Interval) and not screen.a <= v <= screen.b:
            raise ValidationError(f"witness value {fraction_text(v)} escapes the screen")
    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) > space.dist(i, j):
                raise ValidationError(
                    "witness is not 1-Lipschitz between "
                    f"{space.labels[i]} and {space.labels[j]}: "
                    f"|{fraction_text(values[i])} - {fraction_text(values[j])}| "
                    f"> {fraction_text(space.dist(i, j))}"
                )


def anchor_walk_oracle(mu: DiscreteMeasure, alpha) -> tuple:
    """Anchors, ending at x_infinity, of a measure with partial diameter
    exactly 1 at ``alpha``.

    This is the walk the library's single pass replaced: x_infinity comes
    from an n-entry suffix-mass list, and each anchor rescans the atoms from
    the first one.
    """
    alpha = to_open_unit(alpha, what="alpha")
    pd = partial_diameter(mu, alpha).value
    if pd != 1:
        raise DomainError(
            f"anchor_walk_oracle requires partial diameter 1 at alpha={fraction_text(alpha)}, "
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

    return tuple(anchors)


def _merge_overlapping(intervals):
    """Union of open intervals as maximal disjoint open intervals: only
    overlapping intervals merge, and touching ones stay separate."""
    merged: list[list[Fraction]] = []
    for a, b in sorted(intervals):
        if merged and a < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


def clamp_compose_oracle(mu: DiscreteMeasure, alpha, radius) -> PiecewiseLinearMap:
    """Clamping map by the construction the library's one-pass builder
    replaced: rescale mu to partial diameter 1, compress with unit balls
    around ``anchor_walk_oracle``'s anchors, multiply by min(R, r), and
    compose the three maps symbolically with ``after``.  Balls that only
    touch stay separate here and meet at a shared knot, where the library
    merges them."""
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
    anchors = anchor_walk_oracle(unit_measure, alpha)
    knots: list[tuple] = []
    value = Fraction(-len(anchors))
    for a, b in _merge_overlapping([(a - 1, a + 1) for a in anchors]):
        if not knots or a > knots[-1][0]:
            knots.append((a, value))
        # a == last knot x happens when two open intervals touch; the slope
        # just continues through the shared endpoint.
        value += b - a
        knots.append((b, value))
    squeeze = PiecewiseLinearMap(knots, 0, 0)
    expand = PiecewiseLinearMap.affine(min(radius, r), 0)
    return expand.after(squeeze).after(rescale)


def pl_value_oracle(f: PiecewiseLinearMap, x) -> Fraction:
    """f(x) by the Fraction evaluation the integer lines replaced: the value
    at the nearest knot at or left of x plus that piece's slope times the
    offset, with the rays read from the first and last knot."""
    x = to_fraction(x, what="argument")
    knots = f.knots
    slopes = f.slopes()
    xs = [kx for kx, _ in knots]
    if x <= xs[0]:
        return knots[0][1] + slopes[0] * (x - xs[0])
    if x >= xs[-1]:
        return knots[-1][1] + slopes[-1] * (x - xs[-1])
    i = bisect_right(xs, x) - 1
    return knots[i][1] + slopes[i + 1] * (x - xs[i])


# -- hypothesis strategies -------------------------------------------------------


@st.composite
def rational_measures(draw, max_atoms: int = 6):
    """Measures with dyadic positions and exact rational masses."""
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    positions = draw(
        st.lists(
            st.integers(min_value=-40, max_value=40),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    den = draw(st.sampled_from([1, 2, 4]))
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n)
    )
    total = sum(weights)
    return DiscreteMeasure(
        (Fraction(p, den), Fraction(w, total)) for p, w in zip(positions, weights)
    )


@st.composite
def alphas(draw):
    den = draw(st.integers(min_value=2, max_value=20))
    num = draw(st.integers(min_value=1, max_value=den - 1))
    return Fraction(num, den)
