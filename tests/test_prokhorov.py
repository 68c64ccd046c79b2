import random
from fractions import Fraction as F

import pytest
from conftest import prokhorov_feasible, prokhorov_subset_oracle

import obsdiam.prokhorov as prokhorov_module
from obsdiam import (
    DiscreteMeasure,
    DomainError,
    FiniteMMSpace,
    Interval,
    ResourceCapError,
    check_pd_transfer,
    observable_diameter,
    partial_diameter,
    prokhorov_onesided,
    random_lipschitz_map,
    witness_partial_diameter,
)
from obsdiam.randgen import jittered_pair, random_measure

DELTA0 = DiscreteMeasure.point_mass(0)
HALF_SPLIT = DiscreteMeasure([(0, F(1, 2)), (10, F(1, 2))])


# -- one-sided distance --------------------------------------------------------------


def test_point_mass_vs_split_is_half_both_ways():
    # the far atom needs mass 1/2 either covered or forgiven, whichever
    # direction you look from
    assert prokhorov_onesided(DELTA0, HALF_SPLIT) == F(1, 2)
    assert prokhorov_onesided(HALF_SPLIT, DELTA0) == F(1, 2)


def test_distant_point_masses_cap_at_one():
    d3 = DiscreteMeasure.point_mass(3)
    assert prokhorov_onesided(DELTA0, d3) == 1
    assert prokhorov_onesided(d3, DELTA0) == 1


def test_close_point_masses_meet_at_the_gap():
    near = DiscreteMeasure.point_mass(F(1, 4))
    assert prokhorov_onesided(DELTA0, near) == F(1, 4)
    assert prokhorov_onesided(near, DELTA0) == F(1, 4)


def test_distance_to_self_is_zero():
    mu = DiscreteMeasure.uniform([1, 2, 3, 4])
    assert prokhorov_onesided(mu, mu) == 0


def test_onesided_matches_direct_feasibility_scan():
    """The returned value is the true infimum: the condition holds just above
    it and fails just below it."""
    rng = random.Random(8080)
    for _ in range(80):
        mu = random_measure(rng, max_atoms=5)
        nu = random_measure(rng, max_atoms=5)
        d = prokhorov_onesided(mu, nu)
        assert 0 <= d <= 1
        assert prokhorov_feasible(mu, nu, d + F(1, 1000))
        if d > 0:
            assert not prokhorov_feasible(mu, nu, d * F(999, 1000))


def test_onesided_is_symmetric_on_probability_measures():
    # complement duality makes the two directions agree when both measures
    # have total mass 1 (as all DiscreteMeasure values do)
    rng = random.Random(31337)
    for _ in range(60):
        mu = random_measure(rng, max_atoms=5)
        nu = random_measure(rng, max_atoms=5)
        assert prokhorov_onesided(mu, nu) == prokhorov_onesided(nu, mu)


def _grid_measure(rng, atoms):
    """Integer positions in [0, 4) with masses from a small denominator, so
    pairs share atoms and tie on distances and on deficiencies."""
    positions = rng.sample(range(4), atoms)
    weights = [rng.randint(1, 3) for _ in positions]
    return DiscreteMeasure((p, F(w, sum(weights))) for p, w in zip(positions, weights))


def test_onesided_matches_subset_oracle():
    rng = random.Random(2718)
    for _ in range(150):
        mu, nu = random_measure(rng, max_atoms=6), random_measure(rng, max_atoms=6)
        assert prokhorov_onesided(mu, nu) == prokhorov_subset_oracle(mu, nu)
    for epsilon in (F(1, 20), F(1, 4), F(1), F(3)):
        for _ in range(40):
            mu, nu = jittered_pair(rng, epsilon)
            assert prokhorov_onesided(mu, nu) == prokhorov_subset_oracle(mu, nu)
    for _ in range(150):
        mu = _grid_measure(rng, rng.randint(1, 4))
        nu = _grid_measure(rng, rng.randint(1, 4))
        assert prokhorov_onesided(mu, nu) == prokhorov_subset_oracle(mu, nu)


def test_shift_far_above_the_old_subset_cap():
    # nu is uniform on 200 points more than 3 apart and mu is nu moved by
    # delta < 1.  At eps <= delta the open eps-neighborhood of nu's whole
    # support holds no atom of mu; above delta each atom reaches its own copy.
    rng = random.Random(161)
    positions = [4 * k + F(rng.randint(0, 7), 8) for k in range(200)]
    nu = DiscreteMeasure.uniform(positions)
    for delta in (F(1, 3), F(1, 1000), F(99, 100)):
        mu = DiscreteMeasure.uniform([p + delta for p in positions])
        assert prokhorov_onesided(mu, nu) == delta
        assert prokhorov_onesided(nu, mu) == delta


def test_support_cap_enforced_and_adjustable():
    cap = prokhorov_module.DEFAULT_SUPPORT_CAP
    half = cap // 2
    big = DiscreteMeasure.uniform(range(half + 1))
    other = DiscreteMeasure.uniform([F(2 * k + 1, 2) for k in range(half)])
    with pytest.raises(ResourceCapError, match="support cap"):
        prokhorov_onesided(big, other)
    # below 1/2 no open neighborhood of nu's atoms reaches mu; just above it
    # any k atoms of nu reach k + 1 atoms of mu, and (k + 1)/(half + 1) >= k/half
    assert prokhorov_onesided(big, other, cap=cap + 1) == F(1, 2)


# -- partial-diameter transfer -------------------------------------------------------


def test_transfer_frozen_case():
    mu = DiscreteMeasure.uniform([1, 2, 3, 4])
    nu = DiscreteMeasure.uniform([F(9, 8), 2, 3, 4])
    report = check_pd_transfer(mu, nu, F(1, 2), F(1, 4))
    assert report.distance == F(1, 8)
    assert report.applicable
    assert report.lhs == 1
    assert report.rhs_pd == partial_diameter(nu, F(3, 4)).value == F(15, 8)
    assert report.bound == F(19, 8)
    assert report.holds


def test_transfer_requires_strictly_smaller_distance():
    near = DiscreteMeasure.point_mass(F(1, 4))
    report = check_pd_transfer(DELTA0, near, F(1, 2), F(1, 4))
    assert report.distance == F(1, 4)  # == epsilon, so no certificate
    assert not report.applicable
    assert report.lhs is None and report.rhs_pd is None and report.holds is None

    nudged = check_pd_transfer(DELTA0, near, F(1, 2), F(3, 10))
    assert nudged.applicable
    assert nudged.lhs == 0 and nudged.rhs_pd == 0 and nudged.bound == F(3, 5)
    assert nudged.holds


def test_transfer_vacuous_when_total_mass_exceeded():
    near = DiscreteMeasure.point_mass(F(1, 4))
    report = check_pd_transfer(DELTA0, near, F(9, 10), F(3, 10))
    assert report.applicable
    assert report.rhs_pd is None and report.bound is None
    assert report.holds is True
    assert report.lhs == 0


def test_transfer_domain_errors():
    with pytest.raises(DomainError):
        check_pd_transfer(DELTA0, DELTA0, F(1, 2), 0)
    with pytest.raises(DomainError):
        check_pd_transfer(DELTA0, DELTA0, F(3, 2), F(1, 4))


def test_transfer_json_dict_uses_rational_strings():
    mu = DiscreteMeasure.uniform([1, 2, 3, 4])
    nu = DiscreteMeasure.uniform([F(9, 8), 2, 3, 4])
    report = check_pd_transfer(mu, nu, F(1, 2), F(1, 4))
    assert report.distance == F(1, 8)
    assert report.holds is True
    assert report.rhs_pd == F(15, 8)


# -- clouds ----------------------------------------------------------------------


def test_measurement_cloud_sup_pd_stays_under_od():
    """The running sup of image pds over one stream of 64 seeded random maps,
    read at 4, 16 and 64 maps, grows and stays under the exact od."""
    sp = FiniteMMSpace.line_space([1, 2, 3, 4])
    od = observable_diameter(sp, Interval(-1, 1), F(3, 5)).value
    sups, best = [], F(0)
    for i in range(64):
        witness = random_lipschitz_map(sp, Interval(-1, 1), 5 + i)
        best = max(best, witness_partial_diameter(sp, witness, F(2, 5)))
        if i + 1 in (4, 16, 64):
            sups.append(best)
    assert sups == sorted(sups)
    assert sups[-1] <= od == F(2, 3)
