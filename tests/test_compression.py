import random
from collections import Counter
from fractions import Fraction as F

import pytest

import obsdiam.compression as compression
from conftest import anchor_walk_oracle, clamp_compose_oracle
from obsdiam import (
    DiscreteMeasure,
    DomainError,
    PiecewiseLinearMap,
    anchor_walk,
    clamp_construct,
    partial_diameter,
    push_forward,
    verify_clamp,
)
from obsdiam.randgen import random_alpha, random_measure


def _normalized(mu, alpha):
    """Rescale so the partial diameter is exactly 1 (requires pd > 0)."""
    r = partial_diameter(mu, alpha).value
    assert r > 0
    return push_forward(mu, PiecewiseLinearMap.affine(F(1) / r, 0))


# -- anchor walk --------------------------------------------------------------------


def test_anchors_uniform_four():
    assert anchor_walk(DiscreteMeasure.uniform([0, 1, 2, 3]), F(3, 10)) == (F(1), F(2))


def test_anchors_two_points():
    assert anchor_walk(DiscreteMeasure.uniform([0, 1]), F(3, 5)) == (F(0),)


def test_anchors_touching_balls_stay_separate():
    # consecutive anchors exactly 2 apart: the two unit balls share only the
    # boundary point, and the map below integrates them as one stretch
    assert anchor_walk(DiscreteMeasure.uniform([-1, 0, 1, 2, 3]), F(2, 5)) == (F(0), F(2))


def test_anchors_with_gap():
    assert anchor_walk(DiscreteMeasure.uniform([0, 1, 4, 5]), F(2, 5)) == (F(1), F(4))


def test_anchor_alpha_domain():
    mu = DiscreteMeasure.uniform([0, 1, 2, 3])
    for bad in (0, 1, F(7, 5)):
        with pytest.raises(DomainError):
            anchor_walk(mu, bad)


def test_anchor_count_and_gap_properties():
    rng = random.Random(5150)
    checked = 0
    while checked < 200:
        alpha = random_alpha(rng)
        mu = random_measure(rng, max_atoms=10)
        r = partial_diameter(mu, alpha).value
        if r == 0:
            continue
        xs = anchor_walk(mu, alpha)
        assert len(xs) * alpha <= 1
        for a, b in zip(xs, xs[1:]):
            assert min(xs[-1], a + r) <= b
        checked += 1


# -- compression map: clamp_construct at radius 1 on a unit measure -----------------


def test_compression_map_uniform_four():
    f = clamp_construct(DiscreteMeasure.uniform([0, 1, 2, 3]), F(3, 10), 1)
    assert f == PiecewiseLinearMap([(0, -2), (3, 1)], 0, 0)


def test_compression_map_merges_touching_stretch():
    # the two touching balls integrate to one straight slope-1 stretch
    f = clamp_construct(DiscreteMeasure.uniform([-1, 0, 1, 2, 3]), F(2, 5), 1)
    assert f == PiecewiseLinearMap([(-1, -2), (3, 2)], 0, 0)


def test_compression_map_flat_over_gap():
    f = clamp_construct(DiscreteMeasure.uniform([0, 1, 4, 5]), F(2, 5), 1)
    assert f == PiecewiseLinearMap([(0, -2), (2, 0), (3, 0), (5, 2)], 0, 0)
    assert f(F(5, 2)) == 0  # constant across the dead zone


def test_compression_image_has_unit_pd():
    """The whole point of the construction: squeezing cannot push the
    alpha-level width below 1."""
    rng = random.Random(60902)
    checked = 0
    while checked < 150:
        alpha = random_alpha(rng)
        mu = random_measure(rng, max_atoms=10)
        if partial_diameter(mu, alpha).value == 0:
            continue
        unit = _normalized(mu, alpha)
        f = clamp_construct(unit, alpha, 1)
        assert f.is_one_lipschitz()
        lo, hi = f.bounds()
        assert lo is not None and hi is not None
        assert -1 / alpha <= lo and hi <= 1 / alpha
        assert partial_diameter(push_forward(unit, f), alpha).value == 1
        checked += 1


def test_no_short_window_reaches_alpha_after_compression():
    """Every window strictly narrower than 1 must stay under the mass level
    in the compressed image, whichever regime it falls in: inside a ball,
    spanning a gap, or hanging off either end."""
    mu = _normalized(DiscreteMeasure.uniform([0, 1, 4, 5]), F(2, 5))
    image = push_forward(mu, clamp_construct(mu, F(2, 5), 1))
    eps = F(1, 1000)
    starts = [p for p, _ in image.atoms] + [p - 1 + eps for p, _ in image.atoms]
    for lo in starts:
        assert image.mass_of_interval(lo, lo + 1 - eps) < F(2, 5)


# -- clamping construction ------------------------------------------------------------


def test_clamp_caps_wide_measure():
    mu = DiscreteMeasure.uniform([0, 2, 4, 6])
    f = clamp_construct(mu, F(3, 10), 1)
    assert partial_diameter(push_forward(mu, f), F(3, 10)).value == 1


def test_clamp_keeps_narrow_measure():
    mu = DiscreteMeasure.uniform([0, 2, 4, 6])
    f = clamp_construct(mu, F(3, 10), 10)
    assert partial_diameter(push_forward(mu, f), F(3, 10)).value == 2


def test_clamp_degenerate_measure_gives_constant_zero():
    f = clamp_construct(DiscreteMeasure.point_mass(42), F(1, 2), 3)
    assert f == PiecewiseLinearMap.constant(0)
    # heavy single atom, same degeneracy
    mu = DiscreteMeasure([(0, F(3, 4)), (5, F(1, 4))])
    assert clamp_construct(mu, F(1, 2), 3) == PiecewiseLinearMap.constant(0)


def test_clamp_rejects_bad_radius():
    mu = DiscreteMeasure.uniform([0, 1])
    with pytest.raises(DomainError):
        clamp_construct(mu, F(1, 2), 0)
    with pytest.raises(DomainError):
        clamp_construct(mu, F(1, 2), F(-1, 2))


def test_clamp_full_contract_random():
    rng = random.Random(314159)
    for _ in range(150):
        mu = random_measure(rng)
        alpha = random_alpha(rng)
        radius = rng.choice([F(1, 2), F(1), F(10)])
        f = clamp_construct(mu, alpha, radius)
        assert f.is_one_lipschitz()
        lo, hi = f.bounds()
        limit = radius / alpha
        assert lo is not None and -limit <= lo
        assert hi is not None and hi <= limit
        want = min(radius, partial_diameter(mu, alpha).value)
        assert partial_diameter(push_forward(mu, f), alpha).value == want


def test_single_pass_matches_rescanning_oracle():
    """The one-pass walk on the source measure gives r times the rescanning
    walk's anchors on the measure scaled to partial diameter r = 1, and the
    one builder gives the rescale, squeeze and expand composite map for map."""
    radii = (F(1, 2), F(1), F(10))
    edge = [
        (DiscreteMeasure.point_mass(42), F(1, 2)),
        (DiscreteMeasure([(0, F(3, 4)), (5, F(1, 4))]), F(1, 2)),  # heavy single atom
        (DiscreteMeasure.uniform([-1, 0, 1, 2, 3]), F(2, 5)),  # touching unit balls
        (DiscreteMeasure.uniform([-3, 0, 3, 6, 9]), F(2, 5)),  # touching balls of radius 3
        (DiscreteMeasure.uniform([0, 1, 4, 5]), F(2, 5)),
    ]
    cases = [(mu, alpha, radius) for mu, alpha in edge for radius in radii]
    rng = random.Random(1729)
    for _ in range(2000):
        cases.append((random_measure(rng, max_atoms=40), random_alpha(rng), rng.choice(radii)))
    for mu, alpha, radius in cases:
        r = partial_diameter(mu, alpha).value
        if r > 0:
            unit = _normalized(mu, alpha)
            assert anchor_walk(mu, alpha) == tuple(r * a for a in anchor_walk_oracle(unit, alpha))
        f = clamp_construct(mu, alpha, radius)
        want = clamp_compose_oracle(mu, alpha, radius)
        assert f == want
        assert f.to_json_dict() == want.to_json_dict()


def test_clamp_pass_counts(monkeypatch):
    """verify_clamp computes two partial diameters and one push-forward;
    clamp_construct computes one partial diameter and composes nothing."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(compression, "partial_diameter", counted("pd", partial_diameter))
    monkeypatch.setattr(compression, "push_forward", counted("push", push_forward))
    monkeypatch.setattr(PiecewiseLinearMap, "after", counted("after", PiecewiseLinearMap.after))
    mu = DiscreteMeasure.uniform([0, 1, 4, 5, 9, 11])
    assert all(verify_clamp(mu, F(2, 5), 1).checks.values())
    assert (calls["pd"], calls["push"], calls["after"]) == (2, 1, 0)
    calls.clear()
    clamp_construct(mu, F(2, 5), 1)
    assert (calls["pd"], calls["push"], calls["after"]) == (1, 0, 0)
