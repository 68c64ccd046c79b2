import json
import random
import time
import tracemalloc
from fractions import Fraction as F
from math import lcm

import pytest
from conftest import (
    exactly,
    heaviest_light_bruteforce,
    heavy_subsets_bruteforce,
    lipschitz_validate_oracle,
    long_denominator_distances,
    reciprocal_prime_atoms,
)

from obsdiam import (
    FULL_LINE,
    DiscreteMeasure,
    DomainError,
    FiniteMMSpace,
    Interval,
    LipschitzWitness,
    ResourceCapError,
    ValidationError,
    heavy_minimal_subsets,
    observable_diameter,
    parse_screen,
    random_lipschitz_map,
    screen_to_str,
)
from obsdiam._rational import fraction_text
from obsdiam.mmspace import integer_masses
from obsdiam.randgen import random_alpha, random_space


# -- construction -------------------------------------------------------------------


def test_line_space_basics():
    sp = FiniteMMSpace.line_space([1, 2, 3, 4])
    assert sp.labels == ("p0", "p1", "p2", "p3")
    assert sp.masses == (F(1, 4),) * 4
    assert sp.dist(0, 3) == 3
    assert sp.diameter == 3
    # no points: the constructor's message, not a division by zero
    with pytest.raises(ValidationError, match=exactly("a space needs at least one point")):
        FiniteMMSpace.line_space([])


def test_space_ceiling_refuses_long_distance_denominators():
    # 22 points at distances 1 + 1/q, q random 4 000-digit ints: the common
    # denominator of the 484 distances passes 2^28 bits after about 41 of
    # the 231 q, so the space is refused before any distance int, or the
    # triangle check on them, exists
    rng = random.Random("long-distances")
    labels = [f"p{i}" for i in range(22)]
    dist = long_denominator_distances(22, rng)
    message = (
        "484 distances with a common denominator of [0-9]+ or more bits "
        "exceed the integer-distance ceiling of 2\\^28 bits"
    )
    start = time.process_time()
    with pytest.raises(ResourceCapError, match=f"^{message}$"):
        FiniteMMSpace(labels, dist, [F(1, 22)] * 22)
    assert time.process_time() - start < 2
    # 10 points, the default cap, stay inside the ceiling
    dist = long_denominator_distances(10, rng)
    sp = FiniteMMSpace(labels[:10], dist, [F(1, 10)] * 10)
    scale, rows = sp.scaled_dist
    assert scale == lcm(*{int(d.partition("/")[2]) for row in dist for d in row if d != "0"})
    assert sp.dist(3, 7) == F(dist[3][7]) and rows[7][3] == rows[3][7]


def test_witness_ceiling_refuses_coprime_value_denominators():
    # values 1/p over the first 5 000 primes: their common denominator, the
    # product of the primes, passes 2^28 bits over 5 000 values at about
    # 53 700 bits, before any value int is built
    values = [p for p, _ in reciprocal_prime_atoms(5000)]
    message = (
        "5000 values with a common denominator of [0-9]+ or more bits "
        "exceed the integer-value ceiling of 2\\^28 bits"
    )
    start = time.process_time()
    with pytest.raises(ResourceCapError, match=f"^{message}$"):
        LipschitzWitness(values)
    assert time.process_time() - start < 1
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=message):
            LipschitzWitness(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # 500 of them stay inside the ceiling
    witness = LipschitzWitness(values[:500])
    den, ints = witness.scaled_values
    assert den == lcm(*(v.denominator for v in values[:500]))
    assert witness.values == tuple(values[:500])


def test_line_space_rejects_duplicates():
    with pytest.raises(ValidationError):
        FiniteMMSpace.line_space([0, 1, 1])


def test_triangle_violation_is_named():
    dist = ((0, 1, 5), (1, 0, 1), (5, 1, 0))
    with pytest.raises(ValidationError) as err:
        FiniteMMSpace(["a", "b", "c"], dist, [F(1, 3)] * 3)
    msg = str(err.value)
    assert "triangle" in msg
    assert "a" in msg and "c" in msg


def test_symmetry_and_diagonal_checks():
    with pytest.raises(ValidationError):
        FiniteMMSpace(["a", "b"], ((0, 1), (2, 0)), [F(1, 2)] * 2)
    with pytest.raises(ValidationError):
        FiniteMMSpace(["a", "b"], ((1, 1), (1, 0)), [F(1, 2)] * 2)
    with pytest.raises(ValidationError):
        FiniteMMSpace(["a", "b"], ((0, 0), (0, 0)), [F(1, 2)] * 2)


def test_masses_validated():
    with pytest.raises(ValidationError):
        FiniteMMSpace(["a", "b"], ((0, 1), (1, 0)), [F(1, 2), F(1, 3)])
    with pytest.raises(ValidationError):
        FiniteMMSpace(["a", "b"], ((0, 1), (1, 0)), [F(0), F(1)])


def test_duplicate_labels_rejected():
    with pytest.raises(ValidationError):
        FiniteMMSpace(["a", "a"], ((0, 1), (1, 0)), [F(1, 2)] * 2)


def test_mass_of_subset():
    sp = FiniteMMSpace.line_space([0, 1, 2], masses=[F(1, 2), F(1, 3), F(1, 6)])
    assert sp.mass_of([0, 2]) == F(2, 3)
    assert sp.mass_of([]) == 0


def test_json_round_trip(tmp_path):
    sp = FiniteMMSpace.line_space([0, F(1, 2), 3], masses=[F(1, 4), F(1, 4), F(1, 2)])
    path = tmp_path / "space.json"
    sp.dump(path)
    assert FiniteMMSpace.load(path) == sp


def test_equality_and_hash_read_the_integer_matrix():
    rng = random.Random(15)
    for _ in range(200):
        sp = random_space(rng, max_points=6)
        twin = FiniteMMSpace.from_json_dict(json.loads(json.dumps(sp.to_json_dict())))
        assert twin == sp and hash(twin) == hash(sp)
        assert twin.scaled_dist == sp.scaled_dist
    # both metrics store the integer rows ((0, 1), (1, 0)); only the scale differs
    half, third = FiniteMMSpace.line_space([0, F(1, 2)]), FiniteMMSpace.line_space([0, F(1, 3)])
    assert half.scaled_dist[1] == third.scaled_dist[1]
    assert half != third
    assert half.dist_matrix == ((0, F(1, 2)), (F(1, 2), 0))
    assert half.dist(0, 1) == F(1, 2) and type(half.dist(0, 1)) is F


# -- screens -----------------------------------------------------------------------


def test_interval_width():
    assert Interval(-1, F(3, 2)).width == F(5, 2)


def test_interval_requires_order():
    with pytest.raises(ValidationError):
        Interval(2, 2)


def test_screen_parsing_round_trip():
    assert parse_screen("fullline") is FULL_LINE
    s = parse_screen("interval:-1/2:3")
    assert s == Interval(F(-1, 2), 3)
    assert parse_screen(screen_to_str(s)) == s
    assert screen_to_str(FULL_LINE) == "fullline"
    with pytest.raises((ValidationError, DomainError)):
        parse_screen("disk:0:1")
    with pytest.raises((ValidationError, DomainError)):
        parse_screen("interval:1")


# -- witnesses ----------------------------------------------------------------------


def test_witness_validate_happy_path():
    sp = FiniteMMSpace.line_space([1, 2, 3, 4])
    w = LipschitzWitness((F(-1), F(-1, 3), F(1, 3), F(1)))
    w.validate(sp, Interval(-1, 1))  # should not raise


def test_witness_rejects_lipschitz_violation():
    sp = FiniteMMSpace.line_space([0, 1])
    with pytest.raises(ValidationError) as err:
        LipschitzWitness((F(0), F(2))).validate(sp, FULL_LINE)
    assert "p0" in str(err.value) and "p1" in str(err.value)


def test_witness_rejects_escaping_screen():
    sp = FiniteMMSpace.line_space([0, 1])
    with pytest.raises(ValidationError):
        LipschitzWitness((F(0), F(1))).validate(sp, Interval(0, F(1, 2)))


def test_witness_length_checked():
    sp = FiniteMMSpace.line_space([0, 1])
    with pytest.raises(ValidationError):
        LipschitzWitness((F(0),)).validate(sp, FULL_LINE)


def _complaint(check):
    """The ValidationError message a check raises, or None when it passes."""
    try:
        check()
    except ValidationError as err:
        return str(err)
    return None


def test_witness_equality_at_the_lipschitz_boundary_is_accepted():
    # distances on thirds, values on sevenths: the common scale is 21
    sp = FiniteMMSpace.line_space([0, F(1, 3), F(2, 3)])
    w = LipschitzWitness((F(1, 7), F(1, 7) + F(1, 3), F(1, 7) + F(2, 3)))
    w.validate(sp, FULL_LINE)  # every pair sits exactly on its distance


def test_witness_violation_by_one_unit_of_the_common_scale():
    sp = FiniteMMSpace.line_space([0, F(1, 3), F(2, 3), 1])
    # pair (1, 2) is off by 1/21; pair (1, 3) fails by more, but later
    w = LipschitzWitness((F(0), F(1, 7), F(1, 7) + F(8, 21), F(1)))
    with pytest.raises(ValidationError) as err:
        w.validate(sp, FULL_LINE)
    message = "witness is not 1-Lipschitz between p1 and p2: |1/7 - 11/21| > 1/3"
    assert str(err.value) == message
    assert _complaint(lambda: lipschitz_validate_oracle(w, sp, FULL_LINE)) == message


def test_witness_off_screen_is_reported_before_any_lipschitz_pair():
    sp = FiniteMMSpace.line_space([0, 1, 2])
    w = LipschitzWitness((F(0), F(4), F(9, 2)))  # pair (0, 1) fails too
    with pytest.raises(ValidationError) as err:
        w.validate(sp, Interval(-5, F(17, 4)))
    assert str(err.value) == "witness value 9/2 escapes the screen"


# The screen ends go on the witness's integer scale.  The space has
# distances in thirds (|p0 p1| = 1/3, |p0 p2| = 2, |p1 p2| = 5/3) and the
# screen [-1/7, 5/3] an end in sevenths; TINY moves a value off the screen by
# far less than one unit of the scale built from the distances alone.
THIRDS = (0, F(1, 3), 2)
TINY = F(1, 10**30)
SCREEN = Interval(F(-1, 7), F(5, 3))


def test_witness_values_at_both_screen_ends_pass():
    sp = FiniteMMSpace.line_space(THIRDS)
    w = LipschitzWitness((F(-1, 7), F(4, 21), F(5, 3)))
    w.validate(sp, SCREEN)  # should not raise
    assert _complaint(lambda: lipschitz_validate_oracle(w, sp, SCREEN)) is None


@pytest.mark.parametrize(
    "values, escaping",
    [
        ((F(-1, 7), F(4, 21), F(5, 3) + TINY), F(5, 3) + TINY),
        ((F(-1, 7) - TINY, F(4, 21), F(5, 3)), F(-1, 7) - TINY),
    ],
    ids=["above", "below"],
)
def test_witness_value_just_off_a_screen_end_fails(values, escaping):
    sp = FiniteMMSpace.line_space(THIRDS)
    w = LipschitzWitness(values)
    message = f"witness value {fraction_text(escaping)} escapes the screen"
    assert _complaint(lambda: w.validate(sp, SCREEN)) == message
    assert _complaint(lambda: lipschitz_validate_oracle(w, sp, SCREEN)) == message


def test_witness_reports_the_first_escaping_value_in_point_order():
    low, high = F(-1, 7) - TINY, F(5, 3) + TINY
    # the same three positions listed in both orders; both values escape
    for positions, values, first in (
        (THIRDS, (low, F(1, 10), high), low),
        (THIRDS[::-1], (high, F(1, 10), low), high),
    ):
        sp = FiniteMMSpace.line_space(positions)
        w = LipschitzWitness(values)
        message = f"witness value {fraction_text(first)} escapes the screen"
        assert _complaint(lambda: w.validate(sp, SCREEN)) == message
        assert _complaint(lambda: lipschitz_validate_oracle(w, sp, SCREEN)) == message


def test_full_line_accepts_any_value():
    sp = FiniteMMSpace.line_space([0, 2 * 10**9])
    LipschitzWitness((F(-(10**9)), F(10**9))).validate(sp, FULL_LINE)  # should not raise
    LipschitzWitness((F(10**9), F(-(10**9)))).validate(sp, FULL_LINE)


def test_witness_validate_refuses_a_screen_of_the_wrong_type():
    # a screen string is not a screen: validate raises what the exact engine
    # and the random maps raise, where it once passed as on the full line
    sp = FiniteMMSpace.line_space([0, 1])
    message = exactly("screen must be an Interval or FULL_LINE, got 'interval:-1:1'")
    for call in (
        lambda: LipschitzWitness((50, 50)).validate(sp, "interval:-1:1"),
        lambda: lipschitz_validate_oracle(LipschitzWitness((50, 50)), sp, "interval:-1:1"),
        lambda: observable_diameter(sp, "interval:-1:1", F(1, 2)),
        lambda: random_lipschitz_map(sp, "interval:-1:1", 0),
    ):
        with pytest.raises(DomainError, match=message):
            call()
    # the length check still comes first
    with pytest.raises(ValidationError, match=exactly("witness has 1 values for a 2-point space")):
        LipschitzWitness((0,)).validate(sp, "interval:-1:1")


def test_witness_validate_matches_fraction_oracle_on_coprime_denominators():
    """Values whose denominators are coprime to the distance scale, nudged
    across the Lipschitz boundary or off the screen, pass or fail with the
    same message as the Fraction comparisons, on each screen: [-6, 6],
    [-1/7, 5/3], the full line and [-5/2, 5/2], the corrected screen at
    kappa = 3/5, R = 1, whose ends are halves and whose width is an
    integer."""
    rng = random.Random(77)
    for screen in (Interval(F(-6), F(6)), SCREEN, Interval(F(-5, 2), F(5, 2)), FULL_LINE):
        failures = 0
        for _ in range(300):
            sp = random_space(rng, min_points=2, max_points=6)
            values = list(random_lipschitz_map(sp, screen, rng.randint(0, 10**6)).values)
            den = rng.choice([3, 5, 7, 9, 11, 13])
            for _ in range(rng.randint(0, 2)):
                i = rng.randrange(len(values))
                values[i] += F(rng.randint(-2, 2), den)
            w = LipschitzWitness(tuple(values))
            got = _complaint(lambda: w.validate(sp, screen))
            assert got == _complaint(lambda: lipschitz_validate_oracle(w, sp, screen))
            failures += got is not None
        assert 50 < failures < 250, screen  # both outcomes are exercised


# -- stored forms -------------------------------------------------------------------


def test_witness_stored_form_is_canonical():
    one = LipschitzWitness((F(1, 2), 1))
    other = LipschitzWitness(("2/4", F(2, 2)))
    assert one == other and hash(one) == hash(other)
    assert one.scaled_values == other.scaled_values == (2, (1, 2))
    assert one.values == (F(1, 2), F(1))
    reduced = LipschitzWitness._from_scaled(12, (6, 12))
    assert reduced.scaled_values == (2, (1, 2))
    assert reduced == one and hash(reduced) == hash(one)
    assert LipschitzWitness((F(1, 2), 1)) != LipschitzWitness((F(1, 3), 1))


def test_witness_from_scaled_matches_the_fraction_form():
    """``_from_scaled`` reduces by one gcd to the lcm of the reduced value
    denominators (mmspace docstring), for any positive denominator."""
    rng = random.Random(26)
    for _ in range(300):
        den = rng.choice([1, 2, 6, 12, 35, 210, 2**40 * 3**5]) * rng.randint(1, 30)
        ints = [rng.randint(-60, 60) * rng.choice([1, 2, 3, 5, 7]) for _ in range(rng.randint(0, 6))]
        got = LipschitzWitness._from_scaled(den, ints)
        want = LipschitzWitness(tuple(F(k, den) for k in ints))
        assert got.scaled_values == want.scaled_values
        assert got == want and hash(got) == hash(want)
        assert got.scaled_values[0] == lcm(*(F(k, den).denominator for k in ints))


def test_witness_repr_is_the_dataclass_text():
    assert repr(LipschitzWitness((F(1, 3), 0))) == (
        "LipschitzWitness(values=(Fraction(1, 3), Fraction(0, 1)))"
    )
    assert repr(LipschitzWitness(("-5/10",))) == "LipschitzWitness(values=(Fraction(-1, 2),))"


def test_witness_refuses_floats_and_bools():
    message = (
        "witness value must be exact; pass a Fraction, an int, or a string "
        "like '3/10' instead of the float 0.5"
    )
    with pytest.raises(DomainError, match=exactly(message)):
        LipschitzWitness((0, 0.5))
    with pytest.raises(DomainError, match=exactly("witness value must be a rational number, got a bool")):
        LipschitzWitness((True, 0))


def test_space_masses_are_stored_as_integer_weights():
    rng = random.Random(2026)
    for _ in range(60):
        sp = random_space(rng, max_points=7)
        scale, weights = sp.scaled_masses
        assert scale == lcm(*(m.denominator for m in sp.masses))
        assert sum(weights) == scale
        assert sp.masses == tuple(F(w, scale) for w in weights)
        assert weights == integer_masses(sp, random_alpha(rng))[0]
        twin = FiniteMMSpace.from_json_dict(json.loads(json.dumps(sp.to_json_dict())))
        assert twin == sp and hash(twin) == hash(sp)
        assert twin.scaled_masses == sp.scaled_masses
    halves = FiniteMMSpace(["a", "b"], ((0, 1), (1, 0)), ["2/4", F(1, 2)])
    assert halves.scaled_masses == (2, (1, 1))
    assert halves == FiniteMMSpace.line_space([0, 1], labels=["a", "b"])
    assert halves != FiniteMMSpace.line_space([0, 1], [F(1, 3), F(2, 3)], labels=["a", "b"])


def test_space_mass_total_is_checked_on_the_weights():
    with pytest.raises(ValidationError, match=exactly("masses must sum to 1 exactly, got 5/6")):
        FiniteMMSpace(["a", "b"], ((0, 1), (1, 0)), [F(1, 2), F(1, 3)])


def test_witness_pushforward_merges():
    sp = FiniteMMSpace.line_space([0, 1, 2], masses=[F(1, 4), F(1, 4), F(1, 2)])
    image = LipschitzWitness((F(0), F(1), F(0))).pushforward(sp)
    assert image == DiscreteMeasure([(0, F(3, 4)), (1, F(1, 4))])


# -- heavy subsets ------------------------------------------------------------------


def test_heavy_minimal_subsets_skewed():
    sp = FiniteMMSpace.line_space([0, 1, 2], masses=[F(1, 2), F(3, 10), F(1, 5)])
    fam = heavy_minimal_subsets(sp, F(9, 20))
    assert fam.minimal_subsets == ((0,), (1, 2))


def test_heavy_at_full_mass():
    sp = FiniteMMSpace.line_space([0, 1, 2])
    fam = heavy_minimal_subsets(sp, 1)
    assert fam.minimal_subsets == ((0, 1, 2),)


def test_heavy_singletons_when_alpha_tiny():
    sp = FiniteMMSpace.line_space([0, 1, 2])
    fam = heavy_minimal_subsets(sp, F(1, 10))
    assert fam.minimal_subsets == ((0,), (1,), (2,))


def test_heavy_alpha_domain():
    sp = FiniteMMSpace.line_space([0, 1])
    with pytest.raises(DomainError):
        heavy_minimal_subsets(sp, 0)
    with pytest.raises(DomainError):
        heavy_minimal_subsets(sp, F(6, 5))


def test_heavy_cap():
    # the family listing has the fixed point ceiling of 22 points, checked
    # before the search starts
    sp = FiniteMMSpace.line_space(range(23))
    with pytest.raises(ResourceCapError, match="23 points exceed the point ceiling 22"):
        heavy_minimal_subsets(sp, F(1, 2))


def _check_heavy(sp, alpha):
    """The family and beta, the heaviest light mass, against brute force."""
    heavy = heavy_minimal_subsets(sp, alpha)
    weights, _, beta = integer_masses(sp, alpha)
    assert list(heavy.minimal_subsets) == heavy_subsets_bruteforce(sp, alpha), alpha
    assert F(beta, sum(weights)) == heaviest_light_bruteforce(sp, alpha), alpha


def test_heavy_matches_bruteforce():
    rng = random.Random(8128)
    for _ in range(120):
        sp = random_space(rng, max_points=6)
        _check_heavy(sp, random_alpha(rng))
    # up to 12 points, with unequal masses on one denominator and
    # a level whose prime denominator does not divide it
    for n in range(7, 13):
        for _ in range(3):
            weights = [rng.randint(1, 9) for _ in range(n)]
            total = sum(weights)
            prime = rng.choice([p for p in (7, 11, 13, 17, 19, 23) if total % p])
            alpha = F(rng.randint(1, prime - 1), prime)
            sp = FiniteMMSpace.line_space(range(n), masses=[F(w, total) for w in weights])
            _check_heavy(sp, alpha)
    # up to 16 points with tied weights in a shuffled order, at a level some
    # subset weighs exactly, where heavy (>=) and light (<) meet
    for n in range(2, 17):
        weights = [rng.choice((1, 2, 2, 3, 3, 3, 5)) for _ in range(n)]
        total = sum(weights)
        chosen = rng.sample(weights, rng.randint(1, n))
        sp = FiniteMMSpace.line_space(range(n), masses=[F(w, total) for w in weights])
        _check_heavy(sp, F(sum(chosen), total))
    # levels a hair below and above a subset's exact mass, on a denominator
    # near 10^30: the level is rounded up onto the masses' own scale
    hair = F(1, 10**30 + 57)
    for n in (3, 6, 9, 12):
        weights = [rng.randint(1, 9) for _ in range(n)]
        total = sum(weights)
        mass = F(sum(rng.sample(weights, rng.randint(1, n - 1))), total)
        sp = FiniteMMSpace.line_space(range(n), masses=[F(w, total) for w in weights])
        for alpha in (mass - hair, mass, mass + hair):
            _check_heavy(sp, alpha)


def test_integer_masses_beta_matches_bruteforce():
    """``beta`` from the two half-sum lists is the heaviest light mass: at
    alpha 1 (everything but the whole space is light), at 10^-9 (only the
    empty set is light), at 1/2, at a random level and at a subset's exact
    mass, with weights up to 10^6 so that the sums rarely tie."""
    rng = random.Random("integer-masses")
    cases = 0
    for n in range(1, 15):
        weights = [rng.randint(1, 10**6) for _ in range(n)]
        total = sum(weights)
        sp = FiniteMMSpace.line_space(range(n), masses=[F(w, total) for w in weights])
        subset_mass = F(sum(rng.sample(weights, rng.randint(1, n))), total)
        for alpha in (F(1), F(1, 10**9), F(1, 2), random_alpha(rng), subset_mass):
            got_weights, level, beta = integer_masses(sp, alpha)
            assert F(beta, sum(got_weights)) == heaviest_light_bruteforce(sp, alpha), (n, alpha)
            assert beta < level
            cases += 1
    assert cases == 14 * 5
