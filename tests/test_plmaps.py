import random
from fractions import Fraction as F

import pytest
from conftest import measure_atoms_oracle, pl_value_oracle

from obsdiam import (
    DiscreteMeasure,
    PiecewiseLinearMap,
    ValidationError,
    clamp_construct,
    push_forward,
)
from obsdiam.randgen import random_affine, random_lipschitz_pl, random_measure

PLM = PiecewiseLinearMap


def test_affine_evaluation():
    f = PLM.affine(F(1, 2), -3)
    assert f(0) == -3
    assert f(4) == -1
    assert f(F(-8, 3)) == F(-13, 3)


def test_identity_and_constant():
    assert PLM.identity()(F(5, 7)) == F(5, 7)
    assert PLM.constant(9)(-100) == 9


def test_kink_evaluation():
    # V-shape centered at 2
    f = PLM([(2, 0)], -1, 1)
    assert f(2) == 0
    assert f(0) == 2
    assert f(5) == 3
    assert f.slopes() == (F(-1), F(1))


def test_knots_must_increase():
    with pytest.raises(ValidationError):
        PLM([(0, 0), (0, 1)], 1, 1)
    with pytest.raises(ValidationError):
        PLM([(3, 0), (1, 1)], 1, 1)


def _oracle_maps(rng):
    """Affine maps, seeded 1-Lipschitz maps, clamping maps with many knots,
    and maps whose knots, values and slopes sit near 10^400 and 10^-400."""
    maps = [random_affine(rng) for _ in range(20)]
    maps += [random_lipschitz_pl(rng) for _ in range(60)]
    for atoms, alpha in ((120, F(1, 40)), (300, F(1, 90)), (60, F(1, 7))):
        mu = DiscreteMeasure.uniform(F(x, 4) for x in rng.sample(range(-4 * atoms, 4 * atoms), atoms))
        maps.append(clamp_construct(mu, alpha, F(1, 3)))
    huge, tiny = F(10**400), F(1, 10**400)
    maps += [
        PLM.affine(tiny, huge),
        PLM.affine(-huge, tiny),
        PLM([(-huge, 1), (tiny, -tiny), (huge, 3)], 1, F(-1, 2)),
        PLM([(-tiny, huge), (tiny, -huge), (huge + 1, 0)], -tiny, huge),
        PLM([(huge * k + k, F(k * k, 7)) for k in range(-5, 6)], F(-2, 3), 5),
    ]
    return maps


def _probes(rng, f):
    """Every knot, a point strictly inside each piece, points beyond both end
    knots, and seeded points across the knots' range."""
    xs = [x for x, _ in f.knots]
    probes = set(xs)
    probes |= {(a + b) / 2 for a, b in zip(xs, xs[1:])}
    probes |= {a + (b - a) / 3 for a, b in zip(xs, xs[1:])}
    probes |= {xs[0] - 1, xs[0] - F(1, 10**400), xs[-1] + 1, xs[-1] + F(1, 10**400)}
    probes |= {xs[0] * 3 - 7, xs[-1] * 3 + 7, F(-(10**401)), F(10**401)}
    span = xs[-1] - xs[0] + 1
    probes |= {xs[0] + span * F(rng.randint(-20, 120), 100) for _ in range(10)}
    return probes


def test_integer_lines_match_fraction_oracle():
    rng = random.Random(30)
    maps = _oracle_maps(rng)
    assert max(len(f.knots) for f in maps) >= 60
    for f in maps:
        for x in _probes(rng, f):
            assert f(x) == pl_value_oracle(f, x), (f, x)


def test_push_forward_through_integer_lines_matches_fraction_oracle():
    rng = random.Random(31)
    maps = _oracle_maps(rng)
    measures = [random_measure(rng, max_atoms=12) for _ in range(8)]
    for f in maps:
        # the knots themselves, and a point beyond each end knot
        xs = [x for x, _ in f.knots]
        on_knots = DiscreteMeasure.uniform([xs[0] - 1, *xs, xs[-1] + 1])
        for mu in [on_knots, *rng.sample(measures, 3)]:
            image = push_forward(mu, f)
            assert image.atoms == measure_atoms_oracle(
                (pl_value_oracle(f, p), m) for p, m in mu.atoms
            ), (f, mu)


# -- canonical form ---------------------------------------------------------------


def test_redundant_knots_collapse():
    """Knots where the slope does not change are not part of the identity."""
    straight = PLM([(0, 0), (1, 1), (2, 2)], 1, 1)
    assert straight == PLM.identity()
    assert hash(straight) == hash(PLM.identity())


def test_affine_normal_form_comparison():
    assert PLM([(5, 13)], 2, 2) == PLM.affine(2, 3)
    assert PLM.affine(0, 4) == PLM.constant(4)


def test_distinct_maps_differ():
    assert PLM([(0, 0)], 0, 1) != PLM([(0, 0)], 1, 0)


# -- composition -------------------------------------------------------------------


def test_compose_affine_pair():
    outer = PLM.affine(2, 3)
    inner = PLM.affine(F(1, 2), 0)
    assert outer.after(inner) == PLM.affine(1, 3)


def test_compose_introduces_kinks_at_preimages():
    absolute = PLM([(0, 0)], -1, 1)
    shifted = PLM.affine(1, -2)  # x - 2
    composed = absolute.after(shifted)
    # |x - 2| kinks at x = 2
    assert composed(2) == 0
    assert composed(0) == 2
    assert composed(7) == 5


def test_compose_through_flat_inner():
    outer = PLM([(0, 0)], -1, 1)
    inner = PLM.constant(5)
    composed = outer.after(inner)
    assert composed == PLM.constant(5)


def test_compose_negative_inner_flips_rays():
    outer = PLM([(0, 0)], 0, 1)  # flat left of 0, slope 1 right
    inner = PLM.affine(-1, 0)
    composed = outer.after(inner)
    # outer(-x): slope -1 left of 0, flat right
    assert composed.slopes() == (F(-1), F(0))
    assert composed(-3) == 3
    assert composed(4) == 0


def test_compose_pointwise_random():
    """Symbolic composition must agree with nested evaluation everywhere."""
    rng = random.Random(2024)
    for _ in range(200):
        outer = random_lipschitz_pl(rng) if rng.random() < 0.5 else random_affine(rng)
        inner = random_lipschitz_pl(rng) if rng.random() < 0.5 else random_affine(rng)
        composed = outer.after(inner)
        probes = {F(rng.randint(-400, 400), 8) for _ in range(12)}
        # also probe the composite's own knots and their midpoints
        xs = composed.to_json_dict()["breakpoints"]
        probes |= {F(x) for x in xs}
        probes |= {F(x) + F(1, 16) for x in xs}
        for x in probes:
            assert composed(x) == outer(inner(x)), (outer, inner, x)


def test_composition_of_one_lipschitz_stays_one_lipschitz():
    rng = random.Random(77)
    for _ in range(100):
        f = random_lipschitz_pl(rng)
        g = random_lipschitz_pl(rng)
        assert f.after(g).is_one_lipschitz()


# -- bounds ------------------------------------------------------------------------


def test_bounds_bounded_map():
    # plateau 0, ramp up to 3, plateau
    f = PLM([(0, 0), (3, 3)], 0, 0)
    assert f.bounds() == (0, 3)


def test_bounds_unbounded_sides():
    assert PLM.identity().bounds() == (None, None)
    assert PLM([(0, 0)], -1, -1).bounds() == (None, None)
    v = PLM([(1, 2)], -1, 1)
    assert v.bounds() == (2, None)
    cap = PLM([(1, 2)], 1, -1)
    assert cap.bounds() == (None, 2)


def test_is_one_lipschitz():
    assert PLM([(0, 0)], -1, 1).is_one_lipschitz()
    assert not PLM.affine(2, 0).is_one_lipschitz()
    assert not PLM([(0, 0)], F(-5, 4), 0).is_one_lipschitz()


def test_is_one_lipschitz_on_integer_lines_matches_slopes():
    """The check on the integer lines agrees with |s| <= 1 over the Fraction
    slopes, on seeded, affine and clamping maps and at slopes of exactly
    +-1 and +-(1 + 1/10^30)."""
    rng = random.Random(34)
    maps = _oracle_maps(rng)
    maps += [random_lipschitz_pl(rng) for _ in range(100)]
    just = 1 + F(1, 10**30)
    for slope in (1, -1, just, -just, 1 - F(1, 10**30)):
        maps += [PLM.affine(slope, 3), PLM([(0, 0)], slope, 0), PLM([(0, 0), (1, slope)], 0, 0)]
    maps += [PLM([(0, 0), (1, 1)], -1, -just), PLM([(0, 0), (1, -1), (3, 1)], 1, -1)]
    verdicts = set()
    for f in maps:
        expected = all(abs(s) <= 1 for s in f.slopes())
        assert f.is_one_lipschitz() == expected, f
        verdicts.add(expected)
    assert verdicts == {True, False}


# -- serialization -----------------------------------------------------------------


def test_json_round_trip_multi_knot():
    f = PLM([(-1, 2), (0, 2), (4, -2)], 1, 0)
    again = PLM.from_json_dict(f.to_json_dict())
    assert again == f


def test_json_round_trip_affine():
    f = PLM.affine(F(-2, 3), F(7, 5))
    assert PLM.from_json_dict(f.to_json_dict()) == f


def test_json_rejects_malformed():
    with pytest.raises((ValidationError, KeyError, TypeError)):
        PLM.from_json_dict({"breakpoints": ["0"], "slopes": []})


@pytest.mark.parametrize("field", ["breakpoints", "slopes"])
def test_json_requires_lists(field):
    # a string would otherwise be read one character per entry
    payload = {"breakpoints": ["1", "2"], "slopes": ["0", "1", "0"], "base_x": "1", "base_y": "0"}
    PLM.from_json_dict(payload)
    payload[field] = "12" if field == "breakpoints" else "010"
    with pytest.raises(ValidationError, match="must be lists"):
        PLM.from_json_dict(payload)
