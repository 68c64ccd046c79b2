import json
import random
import time
from fractions import Fraction as F
from itertools import accumulate
from math import lcm

import pytest
from conftest import (
    alphas,
    measure_atoms_oracle,
    pd_profile_oracle,
    pd_sweep_oracle,
    pd_window_scan,
    rational_measures,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from obsdiam import (
    DiscreteMeasure,
    DomainError,
    PiecewiseLinearMap,
    ResourceCapError,
    ValidationError,
    partial_diameter,
    pd_profile,
    push_forward,
)
from obsdiam._rational import format_fraction
from obsdiam.randgen import random_lipschitz_pl, random_measure

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
    with pytest.raises(ValidationError):
        DiscreteMeasure([(0, F(1, 2))])


def test_nonpositive_mass_rejected():
    with pytest.raises(ValidationError):
        DiscreteMeasure([(0, F(0)), (1, F(1))])
    with pytest.raises(ValidationError):
        DiscreteMeasure([(0, F(-1, 2)), (1, F(3, 2))])


def test_floats_rejected_everywhere():
    with pytest.raises(DomainError):
        DiscreteMeasure([(0.5, F(1))])
    with pytest.raises(DomainError):
        partial_diameter(DiscreteMeasure.point_mass(0), 0.3)
    with pytest.raises(DomainError):
        DiscreteMeasure([(True, F(1))])


def test_string_rationals_parse_exactly():
    mu = DiscreteMeasure([("0.5", "1/2"), ("3/2", "0.5")])
    assert mu.atoms == ((F(1, 2), F(1, 2)), (F(3, 2), F(1, 2)))


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


def test_mass_of_interval():
    mu = DiscreteMeasure.uniform([0, 1, 2, 3])
    assert mu.mass_of_interval(1, 2) == F(1, 2)
    assert mu.mass_of_interval(F(1, 2), 10) == F(3, 4)


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


def _oracle_case(rng):
    """Raw atoms drawn from one position pool, with repeats (merges) and
    masses of mixed denominators normalised to total 1."""
    pool = rng.choice(POSITION_POOLS)
    size = 1 if rng.random() < 0.1 else rng.randint(2, 12)
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
    # a push-forward stores merged weights divided by their gcd, the
    # constructor reduced masses times their lcd: the stored forms agree
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
