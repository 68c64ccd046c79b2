import json
import random
import time
import tracemalloc
from fractions import Fraction as F
from itertools import accumulate
from math import lcm

import pytest
from conftest import (
    alphas,
    exactly,
    forbid_fraction_order,
    measure_atoms_oracle,
    outcome,
    pd_profile_evaluate_oracle,
    pd_profile_oracle,
    pd_sweep_oracle,
    pd_window_scan,
    prokhorov_subset_oracle,
    rational_measures,
    reciprocal_prime_atoms,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from obsdiam import (
    DiscreteMeasure,
    DomainError,
    PdProfile,
    PiecewiseLinearMap,
    ResourceCapError,
    ValidationError,
    partial_diameter,
    pd_profile,
    prokhorov_onesided,
    push_forward,
)
from obsdiam import measures
from obsdiam._rational import format_fraction
from obsdiam.measures import minimal_heavy_windows
from obsdiam.randgen import jittered_pair, random_alpha, random_lipschitz_pl, random_measure

# Position pools for the integer-view oracle test.  Each pool holds distinct
# rationals that a float cannot tell apart (2^60 + k, 1/3 + k/10^30), that
# overflow the float range (+-10^400 + k) or that underflow it (k/10^400).
POSITION_POOLS = (
    [F(k, 4) for k in range(-12, 13)],
    [F(2**60 + k) for k in range(-3, 4)] + [F(-(2**60) - k) for k in range(3)],
    [F(1, 3) + F(k, 10**30) for k in range(-3, 4)] + [F(-1, 3), F(0)],
    [F(10**400 + k) for k in range(3)] + [F(-(10**400) - k) for k in range(3)] + [F(0), F(1)],
    [F(k, 10**400) for k in range(-3, 4)] + [F(-1, 7), F(1, 7)],
)
MASS_DENOMINATORS = (1, 2, 3, 5, 7, 12)


# -- construction ---------------------------------------------------------------


def test_atoms_sorted_and_merged():
    mu = DiscreteMeasure([(3, F(1, 4)), (1, F(1, 2)), (3, F(1, 4))])
    assert mu.atoms == ((F(1), F(1, 2)), (F(3), F(1, 2)))


def test_uniform_and_point_mass():
    assert DiscreteMeasure.uniform([2, 1]).masses == (F(1, 2), F(1, 2))
    assert DiscreteMeasure.point_mass(F(7, 2)).atoms == ((F(7, 2), F(1)),)


def test_mass_must_sum_to_one():
    with pytest.raises(ValidationError, match=exactly("atom masses must sum to 1 exactly, got 1/2")):
        DiscreteMeasure([(0, F(1, 2))])
    with pytest.raises(ValidationError, match=exactly("atom masses must sum to 1 exactly, got 2/3")):
        DiscreteMeasure([(0, F(1, 3)), (1, F(1, 3))])
    with pytest.raises(ValidationError, match=exactly("a measure needs at least one atom")):
        DiscreteMeasure([])


def test_nonpositive_mass_rejected():
    with pytest.raises(ValidationError, match=exactly("atom mass must be positive, got 0 at 0")):
        DiscreteMeasure([(0, F(0)), (1, F(1))])
    with pytest.raises(ValidationError, match=exactly("atom mass must be positive, got -1/2 at 0")):
        DiscreteMeasure([(0, F(-1, 2)), (1, F(3, 2))])
    # the first bad atom in input order is the one reported
    with pytest.raises(ValidationError, match=exactly("atom mass must be positive, got 0 at 1")):
        DiscreteMeasure([(0, F(1, 2)), (1, 0), (2, -1)])


def test_floats_rejected_everywhere():
    with pytest.raises(DomainError, match=exactly(
        "atom position must be exact; pass a Fraction, an int, or a string "
        "like '3/10' instead of the float 0.5"
    )):
        DiscreteMeasure([(0.5, F(1))])
    with pytest.raises(DomainError, match=exactly(
        "atom mass must be exact; pass a Fraction, an int, or a string "
        "like '3/10' instead of the float 1.0"
    )):
        DiscreteMeasure([(0, 1.0)])
    with pytest.raises(DomainError):
        partial_diameter(DiscreteMeasure.point_mass(0), 0.3)
    with pytest.raises(DomainError, match=exactly("atom position must be a rational number, got a bool")):
        DiscreteMeasure([(True, F(1))])
    with pytest.raises(DomainError, match=exactly("atom mass must be a rational number, got a bool")):
        DiscreteMeasure([(0, True)])


def test_string_rationals_parse_exactly():
    mu = DiscreteMeasure([("0.5", "1/2"), ("3/2", "0.5")])
    assert mu.atoms == ((F(1, 2), F(1, 2)), (F(3, 2), F(1, 2)))
    with pytest.raises(ValidationError, match=exactly(
        "cannot parse atom position from '1/x': Invalid literal for Fraction: '1/x'"
    )):
        DiscreteMeasure([("1/x", 1)])
    # an "e" that starts no exponent leaves the text to Fraction's message
    for text in ("one", "e", "2e", "seven"):
        with pytest.raises(ValidationError, match=exactly(
            f"cannot parse atom mass from {text!r}: Invalid literal for Fraction: {text!r}"
        )):
            DiscreteMeasure([(0, text)])


def test_string_exponent_and_length_are_bounded():
    assert DiscreteMeasure([("1e400", 1)]).atoms[0][0] == F(10) ** 400
    assert DiscreteMeasure([("-1E-4300", 1)]).atoms[0][0] == -F(1, 10**4300)
    for text in ("1e4301", "1e-1_000_000", "1" * 10_001):
        with pytest.raises(ResourceCapError):
            DiscreteMeasure([(text, 1)])


def test_format_fraction_past_the_digit_limit_is_a_resource_cap():
    tiny = F(1, 10**4300)  # its denominator has 4301 digits
    with pytest.raises(ResourceCapError, match="4300 digits"):
        format_fraction(tiny)
    assert format_fraction(F(1, 10**4299)) == "1/1" + "0" * 4299


def _cancelling_pairs(k: int) -> list:
    """Masses 1/(k d_i) and (d_i - 1)/(k d_i), i < k, each pair summing to
    1/k, with 300-digit d_i pairwise coprime and coprime to k = 401: d_i is
    A (i + 1) + 1 with every prime up to 401 dividing A, so a common prime
    factor of d_i and d_j would divide j - i but also leave remainder 1."""
    primorial = 1
    for p in range(2, 402):
        if all(p % q for q in range(2, int(p**0.5) + 1)):
            primorial *= p
    base = primorial * 10 ** (299 - len(str(primorial)))
    masses = []
    for i in range(k):
        d = base * (i + 1) + 1
        masses += [F(1, k * d), F(d - 1, k * d)]
    return masses


def test_weight_ceiling_refuses_a_long_common_denominator():
    # each pair 1/(k d) and (d - 1)/(k d) sums to 1/k, so a Fraction total of
    # the masses stays short, but their common denominator grows by about
    # 13 300 bits per pair: 2 000 atoms pass 2^28 bits of weights after about
    # 10 pairs, before any weight is built
    k = 1000
    atoms = []
    for i in range(k):
        d = 10**4000 + 2 * i + 1
        atoms += [(2 * i, F(1, k * d)), (2 * i + 1, F(d - 1, k * d))]
    start = time.process_time()
    with pytest.raises(ResourceCapError, match="integer-weight ceiling of 2\\^28 bits"):
        DiscreteMeasure(atoms)
    assert time.process_time() - start < 1
    # the same shape with short denominators stays well inside the ceiling
    atoms = [(2 * i + j, F(m, k * (i + 2))) for i in range(k) for j, m in ((0, 1), (1, i + 1))]
    assert DiscreteMeasure(atoms).scaled_masses[0] == lcm(*(k * (i + 2) for i in range(k)))
    # the ceiling reads the merged masses: at 802 distinct positions the
    # common denominator of 401 cancelling pairs is 401 d_1 ... d_401 ...
    masses = _cancelling_pairs(401)
    with pytest.raises(ResourceCapError, match=exactly(
        "802 atoms with a common mass denominator of 334737 or more bits exceed "
        "the integer-weight ceiling of 2^28 bits"
    )):
        DiscreteMeasure((j, m) for j, m in enumerate(masses))
    # ... but each pair at a shared position merges to 1/401 first
    mu = DiscreteMeasure((j // 2, m) for j, m in enumerate(masses))
    assert mu.scaled_masses == (401, (1,) * 401)


def test_position_ceiling_refuses_coprime_position_denominators():
    # the positions 1/p over the first 5 000 primes have the product of the
    # primes, about 70 000 bits, as pscale, so their ints would take about
    # 44 MB; the lcm passes 2^28 bits over 5 000 atoms at about 53 700 bits,
    # before any position int is built
    atoms = reciprocal_prime_atoms(5000)
    message = (
        "5000 atoms with a common position denominator of [0-9]+ or more bits "
        "exceed the integer-position ceiling of 2\\^28 bits"
    )
    start = time.process_time()
    with pytest.raises(ResourceCapError, match=f"^{message}$"):
        DiscreteMeasure(atoms)
    assert time.process_time() - start < 1
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=message):
            DiscreteMeasure(atoms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # 500 of them stay inside the ceiling, with pscale their product
    mu = DiscreteMeasure.uniform(p for p, _ in reciprocal_prime_atoms(500))
    pscale, ints = mu.scaled_positions
    assert pscale == lcm(*(p.denominator for p in mu.positions))
    assert tuple(F(k, pscale) for k in ints) == mu.positions


def test_profile_ceiling_refuses_coprime_threshold_denominators():
    # thresholds (p - 1)/p over the first 5 000 primes, then 1: their common
    # denominator is the product of the primes, about 70 000 bits, so the
    # 5 001 levels would take about 44 MB; the lcm passes 2^28 bits over
    # 5 001 steps at about 53 700 bits, before any level is built
    primes = [p.denominator for p, _ in reciprocal_prime_atoms(5000)]
    steps = [(F(p - 1, p), k) for k, p in enumerate(primes)] + [(1, 5000)]
    message = (
        "5001 steps with a common threshold denominator of [0-9]+ or more bits "
        "exceed the integer-level ceiling of 2\\^28 bits"
    )
    start = time.process_time()
    with pytest.raises(ResourceCapError, match=f"^{message}$"):
        PdProfile(steps)
    assert time.process_time() - start < 1
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=message):
            PdProfile(steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # 500 of them stay inside the ceiling, with the primes' product as scale
    profile = PdProfile(steps[:500] + [(1, 5000)])
    assert profile.steps == tuple((F(t), F(v)) for t, v in steps[:500] + [(1, 5000)])
    assert profile.evaluate(F(1, 2)) == 0 and profile.evaluate(F(2, 3)) == 1


def test_sweeps_key_differences_on_2_to_the_b_past_a_long_position_scale(monkeypatch):
    # 1/p over the first 100 primes: pscale, their product, is longer than
    # SWEEP_BITS and than B, so the profile's widths and the Prokhorov
    # distances are keyed as floors on 2^B (module docstring, fact 5)
    rng = random.Random(51)
    atoms = reciprocal_prime_atoms(100)
    masses = [F(w) for w in range(1, 101)]
    mu = DiscreteMeasure((p, m / sum(masses)) for (p, _), m in zip(atoms, rng.sample(masses, 100)))
    pscale = mu.scaled_positions[0]
    assert 0 < measures.floor_bits(pscale, mu.positions, mu.positions) < pscale.bit_length()
    assert pscale.bit_length() > measures.SWEEP_BITS
    assert pd_profile(mu).steps == pd_profile_oracle(mu.atoms)
    nu = DiscreteMeasure([(F(1, 3), F(1, 2)), (F(2, 7), F(1, 3)), (F(1, 1000003), F(1, 6))])
    assert prokhorov_onesided(mu, nu) == prokhorov_subset_oracle(mu, nu) > 0
    assert prokhorov_onesided(mu, mu) == 0
    # with SWEEP_BITS at 0 every measure whose pscale is longer than B takes
    # the keys; on seeded measures over prime-power denominators they agree
    # with the Fraction oracles
    monkeypatch.setattr(measures, "SWEEP_BITS", 0)
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    keyed = 0
    for _ in range(150):
        sides = []
        for most, power in ((12, 3), (6, 1)):
            dens = [rng.choice(primes) ** rng.randint(1, power) for _ in range(rng.randint(1, most))]
            positions = {F(rng.randint(-3 * d, 3 * d), d) for d in dens}
            weights = [rng.randint(1, 9) for _ in positions]
            sides.append(DiscreteMeasure((p, F(w, sum(weights))) for p, w in zip(positions, weights)))
        mu, nu = sides
        keyed += bool(measures.floor_bits(mu.scaled_positions[0], mu.positions, mu.positions))
        assert pd_profile(mu).steps == pd_profile_oracle(mu.atoms)
        assert prokhorov_onesided(mu, nu) == prokhorov_subset_oracle(mu, nu)
    assert keyed > 50


def test_sweeps_on_many_coprime_position_denominators_stay_quick():
    # 400 atoms at random 7-digit denominators: pscale has about 5 000 bits,
    # and each key on 2^B about 100
    rng = random.Random(52)
    mu = DiscreteMeasure.uniform({F(rng.randint(0, 10**7), rng.randint(10**6, 10**7)) for _ in range(400)})
    assert mu.scaled_positions[0].bit_length() > 4000
    start = time.process_time()
    profile = pd_profile(mu)
    assert prokhorov_onesided(mu, mu, cap=800) == 0
    assert time.process_time() - start < 2
    for alpha in (F(1, 400), F(1, 7), F(1, 2), F(1)):
        assert profile.evaluate(alpha) == partial_diameter(mu, alpha).value


def test_mass_of_interval():
    mu = DiscreteMeasure.uniform([0, 1, 2, 3])
    assert mu.mass_of_interval(1, 2) == F(1, 2)
    assert mu.mass_of_interval(F(1, 2), 10) == F(3, 4)


def test_mass_of_interval_matches_the_atom_loop():
    # ends at every atom, between adjacent atoms and outside them, with
    # lo > hi in about half the pairs; the pools' floats tie or overflow.
    # Distinct masses make an atom dropped or counted twice show.
    for pool in POSITION_POOLS:
        total = len(pool) * (len(pool) + 1) // 2
        mu = DiscreteMeasure((p, F(k, total)) for k, p in enumerate(pool, 1))
        atoms = sorted(pool)
        ends = atoms + [(a + b) / 2 for a, b in zip(atoms, atoms[1:])]
        ends += [atoms[0] - 1, atoms[-1] + 1]
        for lo in ends:
            for hi in ends:
                loop = sum((m for p, m in mu.atoms if lo <= p <= hi), F(0))
                assert mu.mass_of_interval(lo, hi) == loop
        assert mu.mass_of_interval(atoms[-1], atoms[0]) == 0


# -- partial diameter -------------------------------------------------------------


def test_pd_skewed_three_atoms():
    # masses (1/2, 1/5, 3/10) at (0, 1, 5): the 3/5 level is already reached
    # by the first two atoms
    mu = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 5)), (5, F(3, 10))])
    got = partial_diameter(mu, F(3, 5))
    assert got.value == 1
    assert got.window == (0, 1)


def test_pd_uniform_four():
    mu = DiscreteMeasure.uniform([1, 2, 3, 4])
    assert partial_diameter(mu, F(3, 10)).value == 1
    assert partial_diameter(mu, F(1, 4)).value == 0
    assert partial_diameter(mu, 1).value == 3


def test_pd_point_mass_is_zero():
    assert partial_diameter(DiscreteMeasure.point_mass(17), F(9, 10)).value == 0


def test_pd_alpha_nonpositive():
    mu = DiscreteMeasure.uniform([0, 5])
    assert partial_diameter(mu, 0) == (0, None)
    assert partial_diameter(mu, F(-1, 3)) == (0, None)


def test_pd_alpha_above_one_raises():
    with pytest.raises(DomainError):
        partial_diameter(DiscreteMeasure.point_mass(0), F(11, 10))


def test_pd_window_is_a_witness():
    mu = DiscreteMeasure([(0, F(1, 8)), (2, F(3, 8)), (3, F(1, 4)), (9, F(1, 4))])
    value, window = partial_diameter(mu, F(1, 2))
    lo, hi = window
    assert hi - lo == value
    assert mu.mass_of_interval(lo, hi) >= F(1, 2)


def _minimal_heavy_windows_bruteforce(weights, level) -> list:
    """Every window ``weights[i : j + 1]`` that reaches ``level`` while
    both windows one weight shorter do not, by right end."""
    def heavy(i, j):
        return i <= j and sum(weights[i : j + 1]) >= level

    return [
        (i, j)
        for j in range(len(weights))
        for i in range(j + 1)
        if heavy(i, j) and not heavy(i + 1, j) and not heavy(i, j - 1)
    ]


def test_minimal_heavy_windows_match_every_window():
    """The one sweep behind every partial diameter against a listing of
    every window: random positive weights with ties, levels at a window's
    exact weight, random levels, and a level above the total, which no
    window reaches."""
    rng = random.Random("minimal-heavy-windows")
    for _ in range(400):
        n = rng.randint(1, 9)
        weights = [rng.randint(1, 4) for _ in range(n)]
        total = sum(weights)
        i = rng.randrange(n)
        exact = sum(weights[i : rng.randint(i, n - 1) + 1])
        for level in (exact, rng.randint(1, total), total, total + 1):
            got = minimal_heavy_windows(weights, level)
            assert got == _minimal_heavy_windows_bruteforce(weights, level), (weights, level)
            assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(got, got[1:]))
        assert minimal_heavy_windows(weights, total + 1) == []


@settings(max_examples=150, deadline=None)
@given(rational_measures(), alphas())
def test_pd_matches_window_scan_oracle(mu, alpha):
    assert partial_diameter(mu, alpha).value == pd_window_scan(mu, alpha)


@settings(max_examples=100, deadline=None)
@given(rational_measures(), alphas(), alphas())
def test_pd_monotone_in_alpha(mu, a1, a2):
    lo, hi = min(a1, a2), max(a1, a2)
    assert partial_diameter(mu, lo).value <= partial_diameter(mu, hi).value


@settings(max_examples=80, deadline=None)
@given(rational_measures(), alphas(), st.integers(min_value=0, max_value=10**6))
def test_pd_never_grows_under_one_lipschitz_maps(mu, alpha, seed):
    f = random_lipschitz_pl(random.Random(seed))
    assert partial_diameter(push_forward(mu, f), alpha).value <= partial_diameter(mu, alpha).value


def _oracle_case(rng, pool=None, most=12):
    """Raw atoms drawn from one position pool (a random one by default), with
    repeats (merges) and masses of mixed denominators normalised to total
    1; at most ``most`` of them."""
    pool = pool or rng.choice(POSITION_POOLS)
    size = 1 if rng.random() < 0.1 else rng.randint(2, most)
    raw = [F(rng.randint(1, 9), rng.choice(MASS_DENOMINATORS)) for _ in range(size)]
    total = sum(raw)
    return [(rng.choice(pool), m / total) for m in raw]


def _repr_of(atoms) -> str:
    return "DiscreteMeasure(" + ", ".join(f"{p}:{m}" for p, m in atoms) + ")"


def test_integer_view_matches_fraction_oracles():
    """Atoms, repr, scaled masses, pd value and window, profile steps and
    push-forward agree with the Fraction constructions they replaced."""
    rng = random.Random(20240)
    for _ in range(2000):
        raw = _oracle_case(rng)
        mu = DiscreteMeasure(raw)
        atoms = measure_atoms_oracle(raw)
        assert mu.atoms == atoms
        assert repr(mu) == _repr_of(atoms)
        scale = lcm(*(m.denominator for _, m in atoms))
        assert mu.scaled_masses == (scale, tuple(int(m * scale) for _, m in atoms))
        # at a window mass alpha * scale is an integer; just below one, and
        # at 1/10^9, the ceiling rounds up
        masses = list(accumulate(m for _, m in atoms))
        levels = sorted({b - a for a in [F(0)] + masses for b in masses if b > a})
        probes = rng.sample(levels, min(4, len(levels))) + [F(1)]
        probes += [rng.choice(levels) - F(1, 10**6), F(1, 10**9)]
        for alpha in probes:
            got = partial_diameter(mu, alpha)
            assert got == pd_sweep_oracle(atoms, alpha)
            assert got.value == pd_window_scan(mu, alpha)
        assert pd_profile(mu).steps == pd_profile_oracle(atoms)
        f = random_lipschitz_pl(rng)
        image = push_forward(mu, f)
        image_atoms = measure_atoms_oracle((f(p), m) for p, m in atoms)
        assert image.atoms == image_atoms
        assert repr(image) == _repr_of(image_atoms)
        image_scale = lcm(*(m.denominator for _, m in image_atoms))
        assert image.scaled_masses == (
            image_scale, tuple(int(m * image_scale) for _, m in image_atoms)
        )


def test_scaled_positions_cannot_be_changed():
    # a 64-bit array behind a read-only view, and a tuple past 64 bits
    for positions in ([0, F(1, 2), 3], [0, 2**70]):
        mu = DiscreteMeasure.uniform(positions)
        pscale, ints = mu.scaled_positions
        with pytest.raises(TypeError):
            ints[0] = 1
        assert list(mu.scaled_positions[1]) == [p * pscale for p in mu.positions]
        assert partial_diameter(mu, 1).value == mu.positions[-1]


def test_integer_positions_match_fraction_oracles():
    """``scaled_positions`` gives back every position on the lcm of the
    reduced position denominators, in strictly increasing order, and the
    partial diameter, the profile and the Prokhorov distance read from it
    agree with their Fraction oracles, on the pools whose floats tie,
    overflow or underflow and on seeded measures."""
    rng = random.Random(33)
    for case in range(600):
        if case % 3 == 2:
            mu, nu = jittered_pair(rng, F(rng.randint(1, 8), 8))
        else:
            pool = rng.choice(POSITION_POOLS) if case % 3 else None
            mu = DiscreteMeasure(_oracle_case(rng, pool)) if pool else random_measure(rng)
            nu = DiscreteMeasure(_oracle_case(rng, pool, most=6)) if pool else random_measure(rng, max_atoms=6)
        for measure in (mu, nu):
            pscale, ints = measure.scaled_positions
            assert pscale == lcm(*(p.denominator for p in measure.positions))
            assert tuple(F(k, pscale) for k in ints) == measure.positions
            assert all(a < b for a, b in zip(ints, ints[1:]))
        atoms = mu.atoms
        for alpha in (random_alpha(rng), F(1)):
            assert partial_diameter(mu, alpha) == pd_sweep_oracle(atoms, alpha)
        assert pd_profile(mu).steps == pd_profile_oracle(atoms)
        assert prokhorov_onesided(mu, nu) == prokhorov_subset_oracle(mu, nu)


def _oracle_view(atoms) -> tuple:
    """``(scale, weights)`` of canonical Fraction atoms."""
    scale = lcm(*(m.denominator for _, m in atoms))
    return scale, tuple(int(m * scale) for _, m in atoms)


def test_merge_matches_fraction_oracle_at_benchmark_shape():
    """10^4 raw atoms on a quarter grid narrow enough that positions repeat,
    with masses w / total reducing to several denominators."""
    rng = random.Random(16)
    size = 10**4
    weights = [rng.randint(1, 16) for _ in range(size)]
    weights[-1] += -sum(weights) % 840  # total divisible by 2, 3, 5 and 7
    total = sum(weights)
    raw = [(F(rng.randint(-size // 2, size // 2), 4), F(w, total)) for w in weights]
    assert len({m.denominator for _, m in raw}) >= 8
    mu = DiscreteMeasure(raw)
    atoms = measure_atoms_oracle(raw)
    assert len(atoms) < size
    assert mu.atoms == atoms
    assert mu.scaled_masses == _oracle_view(atoms)
    assert repr(mu) == _repr_of(atoms)
    assert hash(mu) == hash((tuple(p for p, _ in atoms), _oracle_view(atoms)[1]))
    f = random_lipschitz_pl(rng)
    image = push_forward(mu, f)
    assert image.atoms == measure_atoms_oracle((f(p), m) for p, m in atoms)
    twin = DiscreteMeasure(image.atoms)
    assert twin == image
    assert hash(twin) == hash(image)
    assert twin.scaled_masses == image.scaled_masses


def test_merge_adds_masses_of_different_denominators():
    raw = [(0, F(1, 6)), (0, F(1, 10)), (0, F(1, 15)), (1, F(2, 3))]
    for atoms in (raw, raw[::-1]):
        mu = DiscreteMeasure(atoms)
        assert mu.atoms == measure_atoms_oracle(atoms) == ((F(0), F(1, 3)), (F(1), F(2, 3)))
        assert mu.scaled_masses == (3, (1, 2))


def test_order_is_exact_where_floats_tie():
    # Each case is given in descending order, so a stable float-only sort
    # keeps a tied pair in the wrong order.  2^60 + 1 and 2^60 round to one
    # float; 10^400 overflows and 1/10^400 underflows.  In the second and
    # third cases the only tie is the top pair (both +inf) or the bottom
    # pair (both -inf), the last and the first pair the tie check compares.
    cases = (
        [F(10**400), F(2**60 + 1), F(2**60), F(1, 10**400), F(-(2**60))],
        [F(10**400 + 1), F(10**400), F(1), F(0)],
        [F(1), F(0), F(-(10**400)), F(-(10**400) - 1)],
    )
    for descending in cases:
        share = F(1, len(descending))
        mu = DiscreteMeasure((p, share) for p in descending)
        assert mu.positions == tuple(sorted(descending))
        # the push-forward path: negating the ascending atoms of the negated
        # case hands the finisher the case's images in descending order
        source = DiscreteMeasure((-p, share) for p in descending)
        image = push_forward(source, lambda x: -x)
        assert image.positions == mu.positions


def test_merge_reduces_cancelling_masses_at_one_position():
    # summed unreduced on the lcm, the 802 masses would carry a
    # 400-fold product of 300-digit denominators through every merge
    masses = _cancelling_pairs(401)
    start = time.process_time()
    mu = DiscreteMeasure((0, m) for m in masses)
    assert time.process_time() - start < 0.5
    assert mu.scaled_masses == (1, (1,))


# -- pushforward -------------------------------------------------------------------


def test_push_forward_merges_collisions():
    mu = DiscreteMeasure.uniform([-1, 1])
    image = push_forward(mu, abs)
    assert image.atoms == ((F(1), F(1)),)


def test_push_forward_affine():
    mu = DiscreteMeasure.uniform([0, 1, 2])
    image = push_forward(mu, PiecewiseLinearMap.affine(-2, 1))
    assert image.positions == (F(-3), F(-1), F(1))


# -- profile ------------------------------------------------------------------------


def test_profile_uniform_four_steps():
    prof = pd_profile(DiscreteMeasure.uniform([1, 2, 3, 4]))
    assert prof.steps == (
        (F(1, 4), F(0)),
        (F(1, 2), F(1)),
        (F(3, 4), F(2)),
        (F(1), F(3)),
    )


def test_profile_point_mass():
    prof = pd_profile(DiscreteMeasure.point_mass(3))
    assert prof.steps == ((F(1), F(0)),)
    assert prof.evaluate(F(1, 2)) == 0


def test_profile_evaluate_edges():
    prof = pd_profile(DiscreteMeasure.uniform([0, 10]))
    assert prof.evaluate(0) == 0
    assert prof.evaluate(F(1, 2)) == 0
    assert prof.evaluate(F(51, 100)) == 10
    assert prof.evaluate(1) == 10
    with pytest.raises(DomainError):
        prof.evaluate(F(3, 2))


@settings(max_examples=100, deadline=None)
@given(rational_measures(), alphas())
def test_profile_agrees_with_direct_pd(mu, alpha):
    assert pd_profile(mu).evaluate(alpha) == partial_diameter(mu, alpha).value


def test_profile_left_continuous_at_thresholds():
    """The step value must be taken AT its threshold, not just below it."""
    rng = random.Random(91)
    for _ in range(50):
        mu = random_measure(rng, max_atoms=7)
        prof = pd_profile(mu)
        for t, v in prof.steps:
            assert prof.evaluate(t) == v
            assert partial_diameter(mu, t).value == v


def _profile_cases(rng):
    """Seeded random measures, measures drawn from each position pool, and
    uniform mass on 1/p over 100 primes, whose widths take the 2^B keys."""
    cases = [random_measure(rng) for _ in range(150)]
    cases += [DiscreteMeasure(_oracle_case(rng, pool)) for pool in POSITION_POOLS for _ in range(30)]
    cases.append(DiscreteMeasure(reciprocal_prime_atoms(100)))
    return cases


def test_profile_evaluate_matches_fraction_bisect(monkeypatch):
    """``evaluate`` on the integer levels, with every Fraction comparison
    made to raise, gives what the Fraction bisect over ``steps`` gives: at
    0, below 0, at 1, at each threshold and 1/10^30 to either side of it,
    and above 1, where both raise the same error."""
    rng = random.Random(34)
    eps = F(1, 10**30)
    cases = _profile_cases(rng)
    mu = cases[-1]
    assert measures.floor_bits(mu.scaled_positions[0], mu.positions, mu.positions)
    probed = []
    for mu in cases:
        prof = pd_profile(mu)
        probes = [0, F(0), F(-1, 3), -eps, 1, F(1), 1 + eps, "1/2", random_alpha(rng)]
        for t, _ in prof.steps:
            probes += [t, t - eps, t + eps]
        probed.append((prof, prof.steps, probes))
    forbid_fraction_order(monkeypatch)
    got = [[outcome(prof.evaluate, alpha) for alpha in probes] for prof, _, probes in probed]
    monkeypatch.undo()
    for values, (_, steps, probes) in zip(got, probed):
        assert values == [outcome(pd_profile_evaluate_oracle, steps, alpha) for alpha in probes]


def test_profile_equality_across_constructors():
    """A profile rebuilt from its steps is equal to it and hashes equal, also
    where the measure's mass scale is a multiple of the thresholds' one."""
    rng = random.Random(35)
    # mass scale 10; the thresholds 2/5, 3/5, 4/5 and 1 reduce to the scale 5
    shared = DiscreteMeasure([(5, F(3, 10)), (6, F(1, 10)), (9, F(2, 5)), (11, F(1, 5))])
    assert shared.scaled_masses[0] == 10
    prof = pd_profile(shared)
    assert [t for t, _ in prof.steps] == [F(2, 5), F(3, 5), F(4, 5), F(1)]
    for mu in [shared, *_profile_cases(rng)]:
        prof = pd_profile(mu)
        again = PdProfile(prof.steps)
        assert again == prof
        assert hash(again) == hash(prof)
        assert again.steps == prof.steps
        assert repr(again) == repr(prof)
    assert PdProfile([(F(1, 2), 0), (1, 1)]) != PdProfile([(F(1, 3), 0), (1, 1)])
    assert PdProfile([(F(1, 2), 0), (1, 1)]) != PdProfile([(F(1, 2), 0), (1, 2)])


# -- serialization ------------------------------------------------------------------


def test_json_round_trip(tmp_path):
    mu = DiscreteMeasure([(F(-1, 2), F(1, 3)), (4, F(2, 3))])
    path = tmp_path / "measure.json"
    mu.dump(path)
    assert DiscreteMeasure.load(path) == mu
    payload = json.loads(path.read_text())
    assert payload == {
        "atoms": [
            {"pos": "-1/2", "mass": "1/3"},
            {"pos": "4", "mass": "2/3"},
        ]
    }


def test_from_json_dict_rejects_garbage():
    with pytest.raises(ValidationError):
        DiscreteMeasure.from_json_dict({"atoms": []})
    with pytest.raises((ValidationError, KeyError, TypeError)):
        DiscreteMeasure.from_json_dict({"nope": 1})


def test_equality_and_hash():
    a = DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))])
    b = DiscreteMeasure([(1, F(1, 2)), (0, F(1, 2))])
    assert a == b
    assert hash(a) == hash(b)
    assert a != DiscreteMeasure.uniform([0, 2])
    # a push-forward merges weights on the source's scale, the constructor
    # masses: both store reduced masses times their lcd, so the forms agree
    pairs = push_forward(DiscreteMeasure.uniform([0, 1, 2, 3]), lambda x: x // 2)
    assert pairs.scaled_masses == (2, (1, 1)) == DiscreteMeasure.uniform([0, 1]).scaled_masses
    rng = random.Random(15)
    collapse = (abs, lambda x: min(max(x, -1), 1), lambda x: F(0))
    for trial in range(300):
        mu = random_measure(rng, max_atoms=8)
        f = random_lipschitz_pl(rng) if trial % 2 else rng.choice(collapse)
        image = push_forward(mu, f)
        for twin in (
            DiscreteMeasure(image.atoms),
            DiscreteMeasure.from_json_dict(json.loads(json.dumps(image.to_json_dict()))),
        ):
            assert twin == image and image == twin
            assert hash(twin) == hash(image)
            assert twin.scaled_masses == image.scaled_masses
