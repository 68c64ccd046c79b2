import gc
import hashlib
import random
import time
import tracemalloc
from fractions import Fraction as F
from itertools import permutations
from math import gcd
from types import SimpleNamespace

import pytest

from obsdiam import (
    FULL_LINE,
    DiscreteMeasure,
    DomainError,
    FiniteMMSpace,
    Interval,
    LipschitzWitness,
    ResourceCapError,
    ValidationError,
    VerificationError,
    heavy_minimal_subsets,
    observable_diameter,
    od_grid_oracle,
    partial_diameter,
    random_lipschitz_map,
    verify_revised_inequality,
    witness_partial_diameter,
)
import obsdiam.mmspace as mmspace
import obsdiam.observable as observable
from obsdiam.measures import minimal_heavy_windows
from obsdiam.mmspace import check_scaled, integer_masses, on_scale
from obsdiam.observable import (
    _last_point_values,
    _max_t_for_order,
    _order_edges,
    _pruned_orderings,
    _random_lipschitz_values,
    _scaled,
    _seed_value,
    _seed_witness,
)
from obsdiam.randgen import SPACE_KINDS, random_alpha, random_space

from conftest import (
    exactly,
    grid_oracle_reference,
    grid_search_per_k_oracle,
    heaviest_light_bruteforce,
    heavy_subsets_bruteforce,
    minimal_spans,
    od_permutation_oracle,
    random_lipschitz_map_oracle,
    seed_value_oracle,
    witness_pd_oracle,
)

X2 = FiniteMMSpace.line_space([1, 2, 3, 4])


def _heaviest_light_mass(space, alpha):
    """``integer_masses``' beta as a mass: the weights sum to mass 1."""
    weights, _, beta = integer_masses(space, alpha)
    return F(beta, sum(weights))


# -- frozen values -------------------------------------------------------------------


def test_od_x2_full_line():
    got = observable_diameter(X2, FULL_LINE, F(3, 5))
    assert got.value == 1


def test_od_x2_narrow_interval():
    got = observable_diameter(X2, Interval(-1, 1), F(3, 5))
    assert got.value == F(2, 3)


def test_od_x3_interval():
    sp = FiniteMMSpace.line_space([1, 2, 3, 4, 5, 6])
    assert observable_diameter(sp, Interval(-2, 2), F(7, 10)).value == F(4, 5)


def test_od_x4_interval():
    sp = FiniteMMSpace.line_space([2 * k for k in range(1, 9)])
    assert observable_diameter(sp, Interval(-6, 6), F(4, 5)).value == F(12, 7)


def test_od_zero_when_one_point_carries_enough():
    sp = FiniteMMSpace.line_space([0, 10], masses=[F(2, 3), F(1, 3)])
    # alpha = 1 - kappa = 1/2 <= 2/3, so the heavy family contains a singleton
    assert observable_diameter(sp, FULL_LINE, F(1, 2)).value == 0
    # the first point weighs the level exactly at kappa 1/2, and a hair
    # below 1/2 it is light alone, so both engines search
    sp = FiniteMMSpace.line_space([0, 1, 3], masses=[F(1, 2), F(1, 4), F(1, 4)])
    for screen in (FULL_LINE, Interval(0, 3)):
        assert observable_diameter(sp, screen, F(1, 2)).value == 0
        assert observable_diameter(sp, screen, F(1, 2) - F(1, 10**6)).value == 1
    assert _heaviest_light_mass(sp, F(1, 2)) == F(1, 4)
    assert _heaviest_light_mass(sp, F(1, 2) + F(1, 10**6)) == F(1, 2)
    assert od_grid_oracle(sp, Interval(0, 3), F(1, 2), 1) == (0, 2)
    assert od_grid_oracle(sp, Interval(0, 3), F(1, 2) - F(1, 10**6), 1) == (1, 3)


def test_od_single_point_space():
    sp = FiniteMMSpace.line_space([5])
    assert observable_diameter(sp, Interval(-1, 1), F(1, 2)).value == 0


def test_od_witness_respects_interval_base():
    got = observable_diameter(X2, Interval(3, 6), F(3, 5))
    assert got.value == 1
    assert all(3 <= v <= 6 for v in got.witness.values)


# -- certification -------------------------------------------------------------------


def test_reported_value_is_achieved_by_its_witness():
    rng = random.Random(4242)
    for _ in range(60):
        sp = random_space(rng, max_points=5)
        kappa = random_alpha(rng)
        screen = FULL_LINE if rng.random() < 0.5 else Interval(F(-3, 2), F(5, 2))
        got = observable_diameter(sp, screen, kappa)
        got.witness.validate(sp, screen)
        assert witness_partial_diameter(sp, got.witness, 1 - kappa) == got.value
        assert _heaviest_light_mass(sp, 1 - kappa) == heaviest_light_bruteforce(sp, 1 - kappa)


# -- witness image sweep -------------------------------------------------------------


def _sweep_alphas(rng, sp):
    """0, a hair above it, the mass of a random nonempty subset (where heavy
    and light meet) and 1."""
    subset = rng.sample(range(len(sp)), rng.randint(1, len(sp)))
    return (F(0), F(1, 10**9), sp.mass_of(subset), F(1))


def test_witness_sweep_matches_measure_oracle_on_engine_and_random_witnesses():
    rng = random.Random(2611)
    checked = 0
    for n in range(1, 9):
        for _ in range(3 if n > 6 else 6):
            sp = random_space(rng, min_points=n, max_points=n)
            screen = FULL_LINE if rng.random() < 0.5 else Interval(F(-1), F(1))
            kappa = random_alpha(rng)
            witnesses = [
                observable_diameter(sp, screen, kappa).witness,
                *(random_lipschitz_map(sp, screen, rng.randint(0, 10**6)) for _ in range(3)),
            ]
            for witness in witnesses:
                for alpha in (*_sweep_alphas(rng, sp), 1 - kappa):
                    got = witness_partial_diameter(sp, witness, alpha)
                    assert got == witness_pd_oracle(sp, witness, alpha)
                    checked += 1
    assert checked > 700


def test_witness_sweep_matches_measure_oracle_on_tied_values():
    sp = FiniteMMSpace.line_space(range(6), [F(1, 12), F(1, 4), F(1, 6), F(1, 12), F(1, 3), F(1, 12)])
    for values in (
        (0, 1, 1, 1, 2, 2),
        (3, 3, 3, 3, 3, 3),
        (2, 0, 2, 0, 2, 0),
        (F(1, 2), 0, F(1, 2), 1, 0, F(1, 2)),
    ):
        witness = LipschitzWitness(values)
        for alpha in (F(1, 10**9), F(1, 12), F(1, 3), F(5, 12), F(1, 2), F(2, 3), F(11, 12), F(1)):
            assert witness_partial_diameter(sp, witness, alpha) == witness_pd_oracle(sp, witness, alpha)
    rng = random.Random(2612)
    for _ in range(200):
        sp = random_space(rng, max_points=8)
        levels = [F(k, 2) for k in range(rng.randint(1, 3))]
        witness = LipschitzWitness(tuple(rng.choice(levels) for _ in range(len(sp))))
        for alpha in _sweep_alphas(rng, sp):
            assert witness_partial_diameter(sp, witness, alpha) == witness_pd_oracle(sp, witness, alpha)


def test_witness_sweep_matches_measure_oracle_on_long_values():
    primes = (3, 5, 7, 11, 13, 17, 19, 23)
    rng = random.Random(2613)
    for _ in range(100):
        sp = random_space(rng, max_points=8)
        n = len(sp)
        coprime = LipschitzWitness(
            tuple(F(rng.randint(-50, 50), p) for p in rng.sample(primes, n))
        )
        huge = LipschitzWitness(
            tuple(F(rng.randrange(10**300), 10**299 + rng.randrange(10**299)) for _ in range(n))
        )
        for witness in (coprime, huge):
            for alpha in _sweep_alphas(rng, sp):
                got = witness_partial_diameter(sp, witness, alpha)
                assert got == witness_pd_oracle(sp, witness, alpha)


def test_witness_sweep_refuses_alpha_above_one_as_partial_diameter_does():
    sp = FiniteMMSpace.line_space([0, 1, 2])
    witness = LipschitzWitness((0, 1, 2))
    message = "alpha must be <= 1, got 3/2"
    with pytest.raises(DomainError, match=exactly(message)):
        witness_partial_diameter(sp, witness, F(3, 2))
    with pytest.raises(DomainError, match=exactly(message)):
        witness_pd_oracle(sp, witness, F(3, 2))


@pytest.mark.parametrize("values", [(0, 1, 2, 3), (0, 1)], ids=["four", "two"])
def test_witness_of_the_wrong_length_is_refused(values):
    """A witness with a value too many or too few for the space is refused
    with ``validate``'s message, not cut short or read as bad masses."""
    sp = FiniteMMSpace.line_space([0, 1, 2])
    witness = LipschitzWitness(values)
    message = f"witness has {len(values)} values for a 3-point space"
    with pytest.raises(ValidationError, match=exactly(message)):
        witness_partial_diameter(sp, witness, F(1, 2))
    with pytest.raises(ValidationError, match=exactly(message)):
        witness.pushforward(sp)
    with pytest.raises(ValidationError, match=exactly(message)):
        witness.validate(sp, FULL_LINE)


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_od_matches_permutation_oracle_value_and_witness(kind):
    """The pruned prefix search meets the same improving orderings in the
    same order as the full sweep, so value and witness agree exactly."""
    rng = random.Random(f"oracle/{kind}")
    for n in range(2, 8):
        sp = random_space(rng, min_points=n, max_points=n, kind=kind)
        for screen in (FULL_LINE, Interval(-1, 1)):
            for kappa in (F(1, 3), F(1, 2), F(3, 4)):
                got = observable_diameter(sp, screen, kappa)
                value, witness = od_permutation_oracle(sp, screen, kappa)
                assert (got.value, got.witness.values) == (value, witness.values), (
                    n, screen, kappa
                )


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_full_line_matches_every_screen_of_width_at_least_the_diameter(kind):
    """Every 1-Lipschitz image spreads at most diam X, so od on the full line
    equals od on any screen [c, c + w] with w >= diam X, and the engine finds
    the same witness there, shifted by c."""
    rng = random.Random(f"full-line-screens/{kind}")
    for n in range(2, 9):
        sp = random_space(rng, min_points=n, max_points=n, kind=kind)
        diam = max(map(max, sp.dist_matrix))
        screens = [
            (c, Interval(c, c + w))
            for c, w in ((F(0), diam), (F(-5, 3), diam + F(1, 7)), (F(2, 9), 2 * diam + 1))
        ]
        for kappa in (F(1, 3), F(1, 2), F(3, 4)):
            full = observable_diameter(sp, FULL_LINE, kappa)
            for c, screen in screens:
                got = observable_diameter(sp, screen, kappa)
                assert got.value == full.value, (n, screen, kappa)
                assert got.witness.values == tuple(v + c for v in full.witness.values), (
                    n, screen, kappa
                )


def test_searching_od_call_runs_no_heavy_search(monkeypatch):
    """The engine takes the weights, the level and beta from
    ``integer_masses`` and UB from the seeds' heavy windows, so it runs no
    heavy-subset search.  It calls the prefix search even when a seed
    already meets UB; then the search cuts its own empty prefix, no ordering
    is solved, and the seed's witness is returned.  The grid oracle reads
    heavy windows of its placed values and needs no beta, so it calls
    neither ``heavy_minimal_subsets`` nor ``integer_masses``."""
    calls = {"families": 0, "searches": 0, "solves": 0}
    masses = []

    def counted_family(*args):
        calls["families"] += 1
        return heavy_minimal_subsets(*args)

    def counted_masses(*args):
        masses.append(args)
        return integer_masses(*args)

    def counted_search(*args):
        calls["searches"] += 1
        return _pruned_orderings(*args)

    def counted_solve(*args):
        calls["solves"] += 1
        return _max_t_for_order(*args)

    monkeypatch.setattr(mmspace, "heavy_minimal_subsets", counted_family)
    monkeypatch.setattr(observable, "_pruned_orderings", counted_search)
    monkeypatch.setattr(observable, "_max_t_for_order", counted_solve)
    assert observable_diameter(X2, Interval(-1, 1), F(3, 5)).value == F(2, 3)
    assert calls["families"] == 0
    assert calls["searches"] == 1
    # here the seeds stay below UB and one ordering is solved
    calls.update(families=0, searches=0, solves=0)
    assert observable_diameter(X2, Interval(-1, 1), F(1, 3)).value == F(3, 2)
    assert calls == {"families": 0, "searches": 1, "solves": 1}

    # the distance-to-leftmost-point seed of a line space on the full line
    # is an isometry, so it meets UB and the search cuts its root
    calls.update(families=0, searches=0, solves=0)
    line = FiniteMMSpace.line_space(range(8))
    got = observable_diameter(line, FULL_LINE, F(1, 2))
    assert calls == {"families": 0, "searches": 1, "solves": 0}
    assert got.value == 3
    assert got.witness.values == tuple(range(8))
    # the grid oracle needs no beta, so it reads the weights and the level
    # itself; the engine module holds its own integer_masses binding
    monkeypatch.setattr(mmspace, "integer_masses", counted_masses)
    monkeypatch.setattr(observable, "integer_masses", counted_masses)
    calls.update(families=0)
    od_grid_oracle(X2, Interval(-1, 1), F(3, 5), F(1, 2))
    assert calls["families"] == 0
    assert masses == []


def test_seed_values_match_their_witnesses():
    """Each distance-to-anchor seed is scored as an integer pair by a window
    sweep, without building its witness.  The score must be the witness's
    partial diameter and the per-subset least spread, squeezed screens
    included.  Line spaces with equal gaps make windows tie, an anchor
    inside them gives equal distances, and skewed masses make tied windows
    differ in mass.  The bound each sweep returns is the least diameter of
    a minimal heavy window of the anchor's row, or the bound handed in when
    that is less, as a plain scan over every window of the row finds it."""
    rng = random.Random("seed-values")
    cases = [
        (random_space(rng, min_points=2, max_points=7), 1 - random_alpha(rng))
        for _ in range(40)
    ]
    for n in (3, 5, 8):
        even = FiniteMMSpace.line_space(range(0, 2 * n, 2))
        for space in (even, _skewed(even)):
            cases += [(space, alpha) for alpha in (F(1, 3), F(1, 2), F(3, 4))]
    checked = 0
    for sp, alpha in cases:
        family = heavy_minimal_subsets(sp, alpha).minimal_subsets
        if any(len(s) == 1 for s in family):
            continue  # the engine returns 0 before seeding
        weights, level, _ = integer_masses(sp, alpha)
        for screen in (FULL_LINE, Interval(-1, 1), Interval(0, F(1, 7))):
            scale, dmat_scaled, base_scaled, width_scaled = _scaled(sp, screen)
            table = _neighbour_table(dmat_scaled, weights)
            upper = expected = width_scaled
            for distances, nearest in zip(dmat_scaled, table):
                num, den, upper = _seed_value(
                    nearest, dmat_scaled, level, scale, width_scaled, upper
                )
                expected = min(expected, _row_window_bound(nearest, dmat_scaled, level))
                assert upper == expected
                value = F(num, den)
                witness = _seed_witness(distances, scale, width_scaled, base_scaled)
                witness.validate(sp, screen)
                assert value == witness_partial_diameter(sp, witness, alpha)
                assert value == seed_value_oracle(family, distances, scale, width_scaled)
                checked += 1
    assert checked >= 500


def _row_window_bound(nearest, dmat_scaled, level):
    """The least diameter of a minimal heavy window of one row of the
    neighbour table: a run of the row that is heavy and stops being heavy
    when either end point is dropped."""
    points = [bit.bit_length() - 1 for _, bit, _ in nearest]
    weights = [w for _, _, w in nearest]
    diameters = []
    for i in range(len(points)):
        for j in range(i, len(points)):
            mass = sum(weights[i : j + 1])
            if mass >= level > max(mass - weights[i], mass - weights[j]):
                window = points[i : j + 1]
                diameters.append(max(dmat_scaled[p][q] for p in window for q in window))
    return min(diameters)


def _neighbour_table(dmat_scaled, weights):
    """For each point, every point as ``(scaled distance, bit, weight)``,
    nearest first, as the engine hands it to the seeds and the search."""
    return [
        sorted((d, 1 << q, w) for q, (d, w) in enumerate(zip(row, weights)))
        for row in dmat_scaled
    ]


def _clustered(n, k, first):
    """n points on a line: k of them one apart, at the low indices when
    ``first`` and at the high ones otherwise, and gaps of 10 elsewhere."""
    gaps = [1] * (k - 1) + [10] * (n - k) if first else [10] * (n - k) + [1] * (k - 1)
    positions = [0]
    for gap in gaps:
        positions.append(positions[-1] + gap)
    return FiniteMMSpace.line_space(positions)


def _window_upper(space, screen, alpha):
    """The engine's UB: the screen width, lowered by every anchor's sweep."""
    weights, level, _ = integer_masses(space, alpha)
    scale, dmat_scaled, _, width_scaled = _scaled(space, screen)
    upper = width_scaled
    for nearest in _neighbour_table(dmat_scaled, weights):
        _, _, upper = _seed_value(nearest, dmat_scaled, level, scale, width_scaled, upper)
    return upper


def test_window_upper_bound_is_sound_and_exact_on_line_spaces():
    """UB guards the end of the search: a UB below od would cut the empty
    prefix at a seed short of the optimum, and that seed would still pass
    the witness check.  Every window behind UB is heavy, so UB is at least
    the least diameter of a heavy set, or the width when that is less; on
    a line space the leftmost point's windows are intervals, and UB equals
    it.  Equal gaps tie many windows at the least diameter; a tight cluster
    at the first or the last points puts the one least window at either end
    of the leftmost point's row."""
    rng = random.Random("least-diameter")
    line_rng = random.Random("least-diameter/line")
    checked = 0
    for n in range(2, 13):
        k = (n + 1) // 2  # the size of a minimal heavy subset at alpha 1/2
        cases = [(random_space(rng, min_points=n, max_points=n), False)]
        cases.append((random_space(line_rng, min_points=n, max_points=n, kind="line"), True))
        cases.append((FiniteMMSpace.line_space(range(n)), True))
        cases += [(_clustered(n, k, first), True) for first in (True, False)]
        for sp, line in cases:
            for alpha in (F(1, 3), F(1, 2), F(3, 4)):
                family = heavy_subsets_bruteforce(sp, alpha)
                for screen in (FULL_LINE, Interval(-1, 1)):
                    _, dmat_scaled, _, width_scaled = _scaled(sp, screen)
                    least = min(max(dmat_scaled[i][j] for i in s for j in s) for s in family)
                    upper = _window_upper(sp, screen, alpha)
                    if line:
                        assert upper == min(least, width_scaled), (n, alpha, screen)
                    else:
                        assert upper >= min(least, width_scaled), (n, alpha, screen)
                    checked += 1
    assert checked == 11 * 5 * 3 * 2


def test_twenty_point_line_space_sets_up_in_time():
    """On a line space over the full line the isometric seed meets UB, so
    the call is the set-up and the seed sweeps; neither the seeds nor UB
    may walk the 184 756 minimal heavy subsets."""
    sp = FiniteMMSpace.line_space(range(20))
    start = time.process_time()
    got = observable_diameter(sp, FULL_LINE, F(1, 2), cap_n=20)
    elapsed = time.process_time() - start
    assert got.value == 9
    assert got.witness.values == tuple(range(20))
    assert elapsed < 1.2, elapsed


def test_twenty_two_point_line_space_runs_in_time_and_memory():
    """At the point ceiling the engine lists 2 * 2^11 half sums for beta and
    builds no subset: the 705 432 minimal heavy subsets of 22 points at
    alpha 1/2 would take seconds and about 100 MB.  A result holds its
    value and its witness, and the peak of the whole call stays under
    1 MB."""
    sp = FiniteMMSpace.line_space(range(22))
    start = time.process_time()
    got = observable_diameter(sp, FULL_LINE, F(1, 2), cap_n=22)
    elapsed = time.process_time() - start
    assert got.value == 10
    assert got.witness.values == tuple(range(22))
    assert elapsed < 0.2, elapsed
    assert _heaviest_light_mass(sp, F(1, 2)) == F(5, 11)
    gc.collect()
    tracemalloc.start()
    try:
        again = observable_diameter(sp, FULL_LINE, F(1, 2), cap_n=22)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again == got
    assert peak < 1_000_000, peak
    assert kept < 100_000, kept


def test_od_values_and_witnesses_pinned_past_the_oracle():
    """The permutation oracle stops at n = 7.  At n = 8 and 9 a digest of
    ``repr(OdResult)`` pins every value and lexicographic witness, so a
    change of either, or of the search order that picks the witness,
    shows here."""
    reprs = []
    for n in (8, 9):
        rng = random.Random(f"witness-identity/{n}")
        for kind in SPACE_KINDS:
            sp = random_space(rng, min_points=n, max_points=n, kind=kind)
            for screen in (FULL_LINE, Interval(-1, 1)):
                for kappa in (F(1, 3), F(1, 2), F(3, 4)):
                    reprs.append(repr(observable_diameter(sp, screen, kappa)))
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()[:16]
    assert digest == "e9cb188e33457dcb"


def _check_prefix_bounds(space, screen, kappa) -> bool:
    """Run the prefix search at incumbents just below each ordering optimum
    and require it to reach a leaf at every ordering that reaches that
    optimum, with a bound at least the optimum.  The leaf's constraint
    graph (``_order_edges``) must carry the ordering's minimal spans.

    Each ordering's optimum is solved from the global bound with floor 0.
    A prefix whose bound is below the optimum of one of its completions
    would cut that completion at an incumbent just below the optimum, so
    this checks every prefix the search evaluates.  Returns False when a
    heavy singleton leaves nothing to search.
    """
    n = len(space)
    alpha = 1 - kappa
    family = heavy_minimal_subsets(space, alpha).minimal_subsets
    if any(len(s) == 1 for s in family):
        return False
    weights, heavy_level, beta = integer_masses(space, alpha)
    scale, dmat_scaled, _, width_scaled = _scaled(space, screen)
    diam_scaled = min(max(dmat_scaled[i][j] for i in s for j in s) for s in family)
    upper_scaled = min(diam_scaled, width_scaled)
    upper = F(upper_scaled, scale)
    nearest = _neighbour_table(dmat_scaled, weights)

    optimum, minimal = {}, {}
    for perm in permutations(range(n)):
        if perm[0] > perm[-1]:
            continue  # the search's reversal symmetry
        slot_of = {point: slot for slot, point in enumerate(perm)}
        spans = {
            (min(slot_of[i] for i in s), max(slot_of[i] for i in s)) for s in family
        }
        minimal[perm] = tuple(minimal_spans(spans))
        edges = _order_edges(perm, weights, heavy_level, dmat_scaled, width_scaled)
        assert tuple((lo, hi) for hi, lo, _, t in edges if t) == minimal[perm], perm
        result = _max_t_for_order(edges, n, scale, upper, F(0))
        optimum[perm] = F(0) if result is None else result[0]

    # bounds and optima are ratios with denominators at most scale * (n + 1)
    eps = F(1, 2 * scale * (n + 1) ** 2)
    for level in sorted(set(optimum.values()) - {0}):
        reached = {}

        def leaf(perm, bound):
            reached[perm] = bound
            return level - eps  # the incumbent never rises

        _pruned_orderings(
            n, dmat_scaled, nearest, width_scaled, scale, upper_scaled,
            weights, heavy_level, beta, level - eps, leaf,
        )
        for perm, value in optimum.items():
            if value >= level:
                assert perm in reached, (perm, value)
        for perm, bound in reached.items():
            assert bound >= optimum[perm], (perm, bound, optimum[perm])
    return True


def _skewed(space):
    """The same metric with masses proportional to 1, 4, 9, ..., n^2."""
    weights = [(i + 1) ** 2 for i in range(len(space))]
    return FiniteMMSpace(
        space.labels, space.dist_matrix, [F(w, sum(weights)) for w in weights]
    )


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_prefix_bounds_never_cut_an_ordering_that_beats_the_incumbent(kind):
    rng = random.Random(f"prefix-bounds/{kind}")
    checked = 0
    for n in (4, 5, 6):
        sp = random_space(rng, min_points=n, max_points=n, kind=kind)
        for space in (sp, _skewed(sp)):
            for screen in (FULL_LINE, Interval(-1, 1)):
                for kappa in (F(1, 4), F(1, 3), F(1, 2), F(3, 4)):
                    checked += _check_prefix_bounds(space, screen, kappa)
    # one n = 7 case takes about half a second, so two cases per kind
    sp = random_space(rng, min_points=7, max_points=7, kind=kind)
    checked += _check_prefix_bounds(sp, Interval(-1, 1), F(1, 3))
    checked += _check_prefix_bounds(_skewed(sp), FULL_LINE, F(1, 2))
    assert checked >= 32


def test_minimal_heavy_spans_are_the_minimal_heavy_windows():
    """The window lemma behind the prefix search: under any ordering, the
    minimal spans of the minimal heavy subsets are the minimal slot windows
    whose points are heavy, so a leaf reads them off its slot weights with
    ``minimal_heavy_windows``.  Alpha is drawn at random and at a subset's
    mass, where a window reaches the level exactly."""
    rng = random.Random("window-lemma")
    cases = 0
    for n in [*range(2, 10)] * 6:
        sp = random_space(rng, min_points=n, max_points=n)
        subset = rng.sample(range(n), rng.randint(1, n - 1))
        for alpha in (random_alpha(rng), sp.mass_of(subset)):
            heavy = heavy_minimal_subsets(sp, alpha)
            weights, level, _ = integer_masses(sp, alpha)
            for _ in range(30):
                perm = rng.sample(range(n), n)
                slot_of = {point: slot for slot, point in enumerate(perm)}
                spans = {
                    (min(slot_of[i] for i in s), max(slot_of[i] for i in s))
                    for s in heavy.minimal_subsets
                }
                windows = {
                    (a, b)
                    for a in range(n)
                    for b in range(a, n)
                    if sum(weights[p] for p in perm[a:b + 1]) >= level
                }
                assert minimal_spans(spans) == minimal_spans(windows), (perm, alpha)
                slot_weights = [weights[p] for p in perm]
                assert minimal_heavy_windows(slot_weights, level)[::-1] == minimal_spans(spans)
                cases += 1
    assert cases == 2880


def _relabelled(space, order):
    """The same space with point i of the result being point order[i]."""
    return FiniteMMSpace(
        [space.labels[j] for j in order],
        [[space.dist_matrix[i][j] for j in order] for i in order],
        [space.masses[j] for j in order],
    )


@pytest.mark.parametrize("n", [8, 9, 10])
def test_od_value_is_unchanged_by_relabelling(n):
    """Past the oracles' reach, permuting the points must leave od as it is.
    The window bisection, B3's slot range and the reversal cut depend on
    slot order, so a relabelling sends the search down other prefixes.
    Values only: the lexicographic witness may differ."""
    rng = random.Random(f"relabelling/{n}")
    for kind in SPACE_KINDS:
        sp = random_space(rng, min_points=n, max_points=n, kind=kind)
        other = _relabelled(sp, rng.sample(range(n), n))
        for screen in (FULL_LINE, Interval(-1, 1)):
            for kappa in (F(1, 3), F(1, 2), F(3, 4)):
                assert (
                    observable_diameter(other, screen, kappa).value
                    == observable_diameter(sp, screen, kappa).value
                ), (kind, screen, kappa)


def test_od_never_exceeds_sound_upper_bounds():
    """Any heavy subset's value spread is capped by its metric diameter, and
    by the screen width; the reported od must respect both."""
    rng = random.Random(777)
    for _ in range(60):
        sp = random_space(rng, min_points=2, max_points=5)
        kappa = random_alpha(rng)
        alpha = 1 - kappa
        width = F(7, 3)
        fam = heavy_minimal_subsets(sp, alpha)
        cap = min(
            max(sp.dist(i, j) for i in s for j in s) if len(s) > 1 else F(0)
            for s in fam.minimal_subsets
        )
        assert observable_diameter(sp, FULL_LINE, kappa).value <= cap
        boxed = observable_diameter(sp, Interval(0, width), kappa).value
        assert boxed <= min(cap, width)


def test_od_line_space_full_line_equals_pd():
    """On collinear spaces the identity map is optimal, so od over the full
    line collapses to the measure's partial diameter."""
    rng = random.Random(1001)
    for _ in range(40):
        sp = random_space(rng, max_points=6, kind="line")
        kappa = random_alpha(rng)
        # read positions off the metric, anchored at an endpoint (the point
        # farthest from atom 0) so nothing reflects onto a collision
        end = max(range(len(sp)), key=lambda j: sp.dist(0, j))
        mu = DiscreteMeasure(zip((sp.dist(end, j) for j in range(len(sp))), sp.masses))
        assert (
            observable_diameter(sp, FULL_LINE, kappa).value
            == partial_diameter(mu, 1 - kappa).value
        )


def test_od_monotone_in_screen():
    rng = random.Random(555)
    for _ in range(30):
        sp = random_space(rng, max_points=5)
        kappa = random_alpha(rng)
        inner = Interval(F(-1, 2), F(1, 2))
        outer = Interval(-2, 3)
        a = observable_diameter(sp, inner, kappa).value
        b = observable_diameter(sp, outer, kappa).value
        c = observable_diameter(sp, FULL_LINE, kappa).value
        assert a <= b <= c


def _scaled_metric(space, c):
    """The same points and masses with every distance times ``c``."""
    return FiniteMMSpace(
        space.labels,
        tuple(tuple(c * d for d in row) for row in space.dist_matrix),
        space.masses,
    )


def test_od_scales_with_the_metric():
    """od(cX; cS, kappa) = c * od(X; S, kappa), with the screen scaled by c.
    Past the permutation oracle, at n = 8, 9 and 10, the witness values
    scale by c as well."""
    rng = random.Random(321)
    for _ in range(20):
        sp = random_space(rng, min_points=2, max_points=5, kind="line")
        kappa = random_alpha(rng)
        scale = F(3, 2)
        assert (
            observable_diameter(_scaled_metric(sp, scale), FULL_LINE, kappa).value
            == scale * observable_diameter(sp, FULL_LINE, kappa).value
        )
    rng = random.Random("od-scaling")
    cases = 0
    for n in (8, 9, 10):
        for kind in SPACE_KINDS:
            sp = random_space(rng, min_points=n, max_points=n, kind=kind)
            scaled = {c: _scaled_metric(sp, c) for c in (F(3, 2), F(1, 3))}
            for screen in (FULL_LINE, Interval(-1, 1)):
                for kappa in (F(1, 3), F(1, 2), F(3, 4)):
                    want = observable_diameter(sp, screen, kappa)
                    for c, scaled_sp in scaled.items():
                        scaled_screen = FULL_LINE if screen == FULL_LINE else Interval(-c, c)
                        got = observable_diameter(scaled_sp, scaled_screen, kappa)
                        assert got.value == c * want.value, (n, kind, c, screen, kappa)
                        assert got.witness.values == tuple(c * v for v in want.witness.values)
                        cases += 1
    assert cases == 108


def _truncated_metric(space, c):
    """The same points and masses with every distance cut to ``min(d, c)``."""
    return FiniteMMSpace(
        space.labels,
        tuple(tuple(min(d, c) for d in row) for row in space.dist_matrix),
        space.masses,
    )


def _merged(space, p, q):
    """The quotient that glues point q onto point p: the shortest-path
    metric once d(p, q) is 0 (Floyd-Warshall), with q's mass added to p's."""
    n = len(space)
    d = [list(row) for row in space.dist_matrix]
    d[p][q] = d[q][p] = F(0)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    masses = list(space.masses)
    masses[p] += masses[q]
    keep = [i for i in range(n) if i != q]
    return FiniteMMSpace(
        [space.labels[i] for i in keep],
        [[d[i][j] for j in keep] for i in keep],
        [masses[i] for i in keep],
    )


def test_od_never_grows_under_truncation_or_merging():
    """Past the permutation oracle, at n = 8 and 9, two push-forwards
    along 1-Lipschitz maps must not raise od.

    If pi: X -> Y is 1-Lipschitz and pushes mu to nu, every 1-Lipschitz
    g: Y -> S gives the 1-Lipschitz g o pi: X -> S with the same image
    measure, so od(Y; S, kappa) <= od(X; S, kappa) on every screen S.

    * Truncation: ``min(d, c)`` is a metric, since
      min(d(x, z), c) <= min(d(x, y) + d(y, z), c)
      <= min(d(x, y), c) + min(d(y, z), c), and the identity onto it is
      1-Lipschitz, as min(d, c) <= d; it keeps the measure.
    * Merging p and q: the shortest-path metric once d(p, q) is 0 is
      d'(x, y) = min(d(x, y), d(x, p) + d(q, y), d(x, q) + d(p, y)).  It
      is at most d, so the quotient map is 1-Lipschitz, and it is positive
      between any two classes, as d(x, p) + d(q, y) = 0 only for x = p and
      y = q.  The quotient map sends q's mass to p.

    c is the median distinct distance, and the pair is drawn per space.
    """
    rows = 0
    for n in (8, 9):
        rng = random.Random(f"od-metamorphic/{n}")
        for kind in SPACE_KINDS:
            for _ in range(3):
                sp = random_space(rng, min_points=n, max_points=n, kind=kind)
                distances = sorted({d for row in sp.dist_matrix for d in row if d})
                truncated = _truncated_metric(sp, distances[len(distances) // 2])
                merged = _merged(sp, *rng.sample(range(n), 2))
                for screen in (FULL_LINE, Interval(-1, 1)):
                    for kappa in (F(1, 3), F(1, 2), F(3, 4)):
                        od = observable_diameter(sp, screen, kappa).value
                        for image in (truncated, merged):
                            assert observable_diameter(image, screen, kappa).value <= od, (
                                n, kind, screen, kappa, image is merged
                            )
                        rows += 1
    assert rows == 108


def test_od_kappa_domain():
    for bad in (0, 1, F(3, 2), F(-1, 4)):
        with pytest.raises(DomainError):
            observable_diameter(X2, FULL_LINE, bad)


def test_od_cap_names_cap_n():
    # heavy first atom keeps the cleared run cheap: the cap fires on point
    # count alone, before any mass is inspected
    sp = FiniteMMSpace.line_space(range(11), masses=[F(9, 10)] + [F(1, 100)] * 10)
    with pytest.raises(ResourceCapError) as err:
        observable_diameter(sp, FULL_LINE, F(1, 2))
    assert "cap 10" in str(err.value) and "raise cap_n" in str(err.value)
    # raising the cap clears it; the 9/10 atom alone is heavy, so od = 0
    assert observable_diameter(sp, FULL_LINE, F(1, 2), cap_n=11).value == 0


# -- grid oracle ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grid_oracle_bounds_exact_from_below(n):
    """The enclosure proved in od_grid_oracle's docstring: the grid value
    trails the exact one by at most (n - 1) steps, and the oracle returns
    exactly that enclosure.  Five points run at a coarser step."""
    rng = random.Random(99)
    step = F(1, 64) if n < 5 else F(1, 16)
    for _ in range(30):
        sp = random_space(rng, min_points=n, max_points=n)
        kappa = random_alpha(rng)
        width = F(rng.randint(8, 96), 64)
        lo = F(rng.randint(-32, 32), 16)
        screen = Interval(lo, lo + width)
        exact = observable_diameter(sp, screen, kappa).value
        lower, upper = od_grid_oracle(sp, screen, kappa, step, cap_n=5)
        assert upper == lower + (n - 1) * step
        assert lower <= exact <= upper


def test_grid_oracle_exact_on_grid_aligned_instance():
    # X2 squeezed into [-1, 1]: the optimum 2/3 is off-grid at step 1/64,
    # so the oracle lands on the nearest achievable multiple below
    grid, _ = od_grid_oracle(X2, Interval(-1, 1), F(3, 5), F(1, 64))
    exact = F(2, 3)
    assert grid <= exact < grid + 3 * F(1, 64)
    assert grid == F(42, 64)  # regression pin


def _reference_cases(rng, min_width, max_width):
    """60 random cases of 2 to 4 points, then 20 of 5 points."""
    for count, min_points, max_points in ((60, 2, 4), (20, 5, 5)):
        for _ in range(count):
            sp = random_space(rng, min_points=min_points, max_points=max_points)
            kappa = random_alpha(rng)
            lo = F(rng.randint(-32, 32), 16)
            yield sp, Interval(lo, lo + F(rng.randint(min_width, max_width), 64)), kappa


@pytest.mark.parametrize("step", [F(1, 4), F(1, 8), F(1, 16)])
def test_grid_oracle_matches_per_k_reference(step):
    """The one pinned and reflected search with precomputed (min, max) of
    each completing subset gives the same enclosure as the anchored search
    that lists the subset's values at every grid value."""
    for sp, screen, kappa in _reference_cases(random.Random(4242), 8, 96):
        want = grid_oracle_reference(sp, screen, kappa, step)
        assert od_grid_oracle(sp, screen, kappa, step, cap_n=5) == want


@pytest.mark.parametrize("step", [F(1, 3), F(2, 7), F(3, 10)])
def test_grid_oracle_floors_distances_off_the_step(step):
    """Steps that divide no quarter distance: the integer floor of d / step
    gives the enclosure of the Fraction floor in the reference."""
    for sp, screen, kappa in _reference_cases(random.Random(4343), 32, 128):
        assert od_grid_oracle(sp, screen, kappa, step, cap_n=5) == grid_oracle_reference(
            sp, screen, kappa, step
        )


# n -> the largest top = floor(width / step) drawn for n points
LAST_POINT_TOPS = {2: 64, 3: 24, 4: 10, 5: 6}


@pytest.mark.parametrize("step", [F(1, 64), F(1, 8), F(1, 4), F(1, 3), F(2, 7)])
def test_grid_oracle_places_the_last_point_in_closed_form(step):
    """The last point's value tried only at lo, at hi and next to the
    breakpoints of the spreads gives the enclosure of the search that tries
    every grid value in its range: 300 seeded cases per step, 75 for each
    n = 2..5, so 1,500 over the five steps."""
    rng = random.Random(f"grid-last-point/{step}")
    for n, most in LAST_POINT_TOPS.items():
        for _ in range(75):
            sp = random_space(rng, min_points=n, max_points=n)
            kappa = random_alpha(rng)
            lo = F(rng.randint(-32, 32), 16)
            screen = Interval(lo, lo + step * F(rng.randint(1, 64 * most), 64))
            want = grid_search_per_k_oracle(sp, screen, kappa, step)
            assert od_grid_oracle(sp, screen, kappa, step, cap_n=5) == want


def test_last_point_values_hold_the_best_grid_value():
    """The proof in od_grid_oracle's docstring, node by node: over 20,000
    seeded windows [lo, hi] (some empty), caps and up to four ranges, the
    largest min(cap, spreads) over every integer of the window is met among
    the values ``_last_point_values`` lists, all inside the window."""
    rng = random.Random("last-point-values")
    for _ in range(20000):
        ranges = [tuple(sorted((rng.randint(-20, 20), rng.randint(-20, 20))))
                  for _ in range(rng.randint(0, 4))]
        cap = rng.randint(0, 40)
        lo = rng.randint(-30, 30)
        hi = lo + rng.randint(-2, 40)

        def g(k):
            return min([cap] + [max(high, k) - min(low, k) for low, high in ranges])

        values = _last_point_values(lo, hi, ranges)
        assert all(lo <= k <= hi for k in values)
        assert max(map(g, values), default=None) == max(map(g, range(lo, hi + 1)), default=None)


def test_grid_oracle_meets_a_screen_spanning_optimum_at_once():
    """Uniform masses whose best map spans the whole screen.  Pinned by
    translation alone, the search raises its incumbent one grid step per
    leaf and takes 0.05-0.08 s; with point 1 at or above point 0 it meets
    the optimum early and takes under 1 ms (CPython 3.11.7 on a shared
    2-vCPU x86-64 VM)."""
    sp = FiniteMMSpace.line_space([0, F(9, 4), 4, F(17, 4)])
    screen = Interval(F(-107, 128), F(43, 128))
    want = (F(75, 64), F(39, 32))
    assert grid_oracle_reference(sp, screen, F(2, 5), F(1, 64)) == want
    start = time.process_time()
    assert od_grid_oracle(sp, screen, F(2, 5), F(1, 64)) == want
    assert time.process_time() - start < 0.02


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grid_oracle_is_unchanged_by_relabelling(n):
    """Permuting the points changes which point is pinned at 0 and which is
    kept at or above it; the enclosure must stay the same."""
    rng = random.Random(f"grid-relabelling/{n}")
    step = F(1, 16)
    for _ in range(12):
        sp = random_space(rng, min_points=n, max_points=n)
        kappa = random_alpha(rng)
        lo = F(rng.randint(-32, 32), 16)
        screen = Interval(lo, lo + F(rng.randint(8, 96), 64))
        want = od_grid_oracle(sp, screen, kappa, step, cap_n=5)
        for _ in range(3):
            other = _relabelled(sp, rng.sample(range(n), n))
            assert od_grid_oracle(other, screen, kappa, step, cap_n=5) == want


def test_grid_oracle_four_wide_points_in_time():
    """README's grid example: 161^3 assignments to the points besides a
    pinned one.  The bound fails a search run once per anchor, which takes
    1.6-2.6 s (CPython 3.11.7 on a shared 2-vCPU x86-64 VM)."""
    sp = FiniteMMSpace.line_space([0, 10, 20, 30])
    start = time.process_time()
    got = od_grid_oracle(sp, Interval(0, 4), F(2, 3), F(1, 40))
    elapsed = time.process_time() - start
    assert got == (F(53, 40), F(7, 5))
    assert elapsed < 1, elapsed


def test_grid_oracle_rejects_full_line():
    with pytest.raises(DomainError):
        od_grid_oracle(X2, FULL_LINE, F(1, 2), F(1, 8))


def test_grid_oracle_step_must_be_positive():
    with pytest.raises(DomainError):
        od_grid_oracle(X2, Interval(0, 1), F(1, 2), 0)


def test_grid_oracle_cap():
    sp = FiniteMMSpace.line_space(range(5))
    with pytest.raises(ResourceCapError):
        od_grid_oracle(sp, Interval(0, 1), F(1, 2), F(1, 8))
    assert od_grid_oracle(sp, Interval(0, 1), F(1, 2), F(1, 8), cap_n=5)[0] >= 0


def test_grid_oracle_refuses_a_wide_grid_before_any_heavy_search():
    """22 unit-spaced points at step 1 on [0, 2] pass the raised cap and the
    point ceiling, and their 3^21 grid assignments fail the grid ceiling.
    Before that test the oracle reads only the weights and the level; the
    C(22, 11) minimal heavy subsets, built there first, took about 1.3 s of
    CPU time and a 100 MB peak (CPython 3.11.7 on a shared 2-vCPU x86-64
    VM)."""
    sp = FiniteMMSpace.line_space(range(22))
    message = "22 points at grid step 1 on a screen of width 2 exceed the grid ceiling"
    start = time.process_time()
    with pytest.raises(ResourceCapError, match=message):
        od_grid_oracle(sp, Interval(0, 2), F(1, 2), 1, cap_n=22)
    elapsed = time.process_time() - start
    assert elapsed < 0.1, elapsed
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=message):
            od_grid_oracle(sp, Interval(0, 2), F(1, 2), 1, cap_n=22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


# -- random witnesses ----------------------------------------------------------------


def test_random_lipschitz_map_deterministic_and_valid():
    sp = FiniteMMSpace.line_space([0, 1, 3])
    screen = Interval(-2, 2)
    a = random_lipschitz_map(sp, screen, seed=11)
    b = random_lipschitz_map(sp, screen, seed=11)
    c = random_lipschitz_map(sp, screen, seed=12)
    assert a.values == b.values
    assert a.values != c.values
    a.validate(sp, screen)
    c.validate(sp, screen)


def _coprime_interval(rng, scale):
    """A screen whose end denominators are odd primes not dividing ``scale``,
    drawn separately for each end."""
    dens = [d for d in (3, 5, 7, 11, 13) if gcd(d, scale) == 1]
    a = F(rng.randint(-40, 40), rng.choice(dens))
    return Interval(a, a + F(rng.randint(1, 60), rng.choice(dens)))


def test_random_lipschitz_map_matches_fraction_oracle(monkeypatch):
    """The integer scale gives the Fraction construction's witness and leaves
    the generator in the same state, so the same draws were made."""
    made = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(observable, "random", SimpleNamespace(Random=Recording))
    rng = random.Random(2718)
    cases = 0
    for n in range(1, 8):
        for _ in range(75):
            sp = random_space(rng, min_points=n, max_points=n)
            scale, _ = sp.scaled_dist
            for screen in (FULL_LINE, _coprime_interval(rng, scale)):
                seed = rng.randint(0, 10**6)
                got = random_lipschitz_map(sp, screen, seed)
                oracle_rng = random.Random(seed)
                assert got == random_lipschitz_map_oracle(sp, screen, oracle_rng)
                assert made.pop().getstate() == oracle_rng.getstate()
                cases += 1
    assert cases >= 1000


@pytest.mark.parametrize("seeds_per_call", [1, 40])
def test_random_lipschitz_values_match_the_witness_and_the_oracle(monkeypatch, seeds_per_call):
    """The construction kernel's ``(den, values)``, reduced, is the witness
    of ``random_lipschitz_map`` and of the Fraction oracle for every seed,
    and each seed's generator ends in the oracle's state, whether one call
    serves one seed or 40: n = 1..8, the full line and screens whose end
    denominators are coprime to the distance scale."""
    made = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(observable, "random", SimpleNamespace(Random=Recording))
    rng = random.Random(f"kernel/{seeds_per_call}")
    maps = 0
    for n in range(1, 9):
        for _ in range(120 // seeds_per_call + 1):
            sp = random_space(rng, min_points=n, max_points=n)
            scale, _ = sp.scaled_dist
            for screen in (FULL_LINE, _coprime_interval(rng, scale)):
                seeds = [rng.randint(0, 10**6) for _ in range(seeds_per_call)]
                got = list(_random_lipschitz_values(sp, screen, seeds))
                kernel_rngs = made[:]
                made.clear()
                assert len(got) == len(kernel_rngs) == len(seeds)
                for seed, (den, values), kernel_rng in zip(seeds, got, kernel_rngs):
                    g = gcd(den, *values)
                    reduced = (den // g, tuple(v // g for v in values))
                    witness = random_lipschitz_map(sp, screen, seed)
                    assert made.pop().getstate() == kernel_rng.getstate()
                    oracle_rng = random.Random(seed)
                    oracle = random_lipschitz_map_oracle(sp, screen, oracle_rng)
                    assert reduced == witness.scaled_values == oracle.scaled_values
                    assert kernel_rng.getstate() == oracle_rng.getstate()
                    maps += 1
    assert maps >= 1000


def test_check_scaled_raises_the_messages_of_validate():
    """The one witness check is live on hand-made integers: values off the
    screen, or breaking the Lipschitz bound of one pair, raise
    ``validate``'s exact messages."""
    sp = FiniteMMSpace.line_space([0, 1, 3])
    rows, ends = on_scale(sp, Interval(-2, 2), 12)
    check_scaled(sp, rows, ends, 12, [0, 12, 24])  # 0, 1, 2: on the screen and 1-Lipschitz
    with pytest.raises(ValidationError, match=exactly("witness value 5/2 escapes the screen")):
        check_scaled(sp, rows, ends, 12, [0, 12, 30])
    message = "witness is not 1-Lipschitz between p0 and p1: |0 - 3/2| > 1"
    with pytest.raises(ValidationError, match=exactly(message)):
        check_scaled(sp, rows, ends, 12, [0, 18, 24])
    rows, ends = on_scale(sp, FULL_LINE, 6)
    assert ends is None
    check_scaled(sp, rows, ends, 6, [0, 6, 7])
    message = "witness is not 1-Lipschitz between p0 and p2: |0 - 4| > 3"
    with pytest.raises(ValidationError, match=exactly(message)):
        check_scaled(sp, rows, ends, 6, [0, 6, 24])


# -- revised inequality --------------------------------------------------------------


def test_revised_inequality_x3_is_tight():
    """At kappa = 2/3 the corrected bound is attained with equality, so any
    strictly-smaller screen would falsify it."""
    sp = FiniteMMSpace.line_space([1, 2, 3, 4, 5, 6])
    report = verify_revised_inequality(sp, F(2, 3), 1)
    assert report.holds
    assert report.lhs == 1
    assert report.od_screen.value == 1
    assert report.screen == Interval(-3, 3)


def test_revised_inequality_random_spaces():
    rng = random.Random(2718)
    for _ in range(60):
        sp = random_space(rng, max_points=6)
        kappa = random_alpha(rng)
        radius = rng.choice([F(1, 2), F(1), F(10)])
        assert verify_revised_inequality(sp, kappa, radius).holds


def test_revised_inequality_rejects_bad_radius():
    with pytest.raises(DomainError):
        verify_revised_inequality(X2, F(1, 2), 0)
