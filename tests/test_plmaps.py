import random
from fractions import Fraction as F

import pytest

from obsdiam import PiecewiseLinearMap, ValidationError
from obsdiam.randgen import random_affine, random_lipschitz_pl

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
