import json
import random
from fractions import Fraction as F

import pytest
from conftest import alphas, pd_window_scan, rational_measures
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
