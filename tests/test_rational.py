import random
from fractions import Fraction as F
from math import lcm

import pytest
from conftest import exactly, forbid_fraction_order, outcome, range_check_oracle

from obsdiam import (
    DiscreteMeasure,
    DomainError,
    ResourceCapError,
    FiniteMMSpace,
    Interval,
    PdProfile,
    PiecewiseLinearMap,
    ValidationError,
    check_pd_transfer,
    clamp_construct,
    counterexample_space,
    observable_diameter,
    od_grid_oracle,
    partial_diameter,
    pd_profile,
    random_lipschitz_map,
    sharpness_sweep,
    verify_counterexample,
    verify_revised_inequality,
)
from obsdiam._rational import (
    _build, _reduce, _rescale, to_at_most_one, to_fraction, to_open_unit, to_positive,
)
from obsdiam.randgen import random_space

MU = DiscreteMeasure.uniform([0, 1, 2, 3])
SPACE = FiniteMMSpace.line_space([0, 1, 2])

# (entry point, the name its error message gives the argument)
POSITIVE_ARGUMENTS = [
    (lambda value: clamp_construct(MU, F(1, 2), value), "radius"),
    (lambda value: counterexample_space(2, value), "radius"),
    (lambda value: verify_counterexample(2, value), "radius"),
    (lambda value: sharpness_sweep(value, 3), "radius"),
    (lambda value: od_grid_oracle(SPACE, Interval(-1, 1), F(1, 2), value), "grid_step"),
    (lambda value: verify_revised_inequality(SPACE, F(1, 2), value), "radius"),
    (lambda value: check_pd_transfer(MU, MU, F(1, 2), value), "epsilon"),
]


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("call, what", POSITIVE_ARGUMENTS)
def test_positive_arguments_reject_zero_and_negatives(call, what, value):
    with pytest.raises(DomainError, match=f"^{what} must be positive, got {value}$"):
        call(value)


# entry points whose level alpha may not pass 1
AT_MOST_ONE_ARGUMENTS = [
    lambda value: partial_diameter(MU, value),
    lambda value: pd_profile(MU).evaluate(value),
    lambda value: check_pd_transfer(MU, MU, value, F(1, 2)),
]


@pytest.mark.parametrize("call", AT_MOST_ONE_ARGUMENTS)
def test_levels_above_one_are_refused(call):
    with pytest.raises(DomainError, match=r"^alpha must be <= 1, got 5/4$"):
        call(F(5, 4))
    call(1)  # the whole mass is a level every measure reaches


RANGE_CHECKS = [to_open_unit, to_positive, to_at_most_one]
# the ends of each range and values just past them, 10^400 past the float
# range, and inputs to_fraction refuses; keyed by test id
RANGE_EDGES = {
    "int 0": 0, "0": F(0), "int 1": 1, "1": F(1), "1+1/10^400": 1 + F(1, 10**400),
    "-1/10^400": -F(1, 10**400), "int 10^400": 10**400, "10^400": F(10**400),
    "int 3": 3, "int -2": -2, "'1/2'": "1/2", "'-1/2'": "-1/2", "'1e-400'": "1e-400",
    "'2'": "2", "'abc'": "abc", "float": 0.5, "bool": True, "None": None,
}


@pytest.mark.parametrize("value", RANGE_EDGES.values(), ids=RANGE_EDGES)
@pytest.mark.parametrize("check", RANGE_CHECKS, ids=lambda check: check.__name__)
def test_range_checks_match_fraction_comparisons(check, value, monkeypatch):
    """The checks compare integer pairs, no Fractions, and raise or return
    exactly what the Fraction comparisons did, at the ends of each range and
    past them."""
    forbid_fraction_order(monkeypatch)
    got = outcome(lambda: check(value, what="level"))
    monkeypatch.undo()
    assert got == outcome(range_check_oracle, check, value, "level")


# (input check, its error, its exact message)
INPUT_CHECKS = {
    "not a number": (
        lambda: to_fraction(object()), DomainError, "value must be rational, got object"
    ),
    "uniform on nothing": (
        lambda: DiscreteMeasure.uniform([]),
        ValidationError,
        "uniform measure needs at least one position",
    ),
    "uniform twice at one position": (
        lambda: DiscreteMeasure.uniform([1, 1]),
        ValidationError,
        "uniform measure positions must be distinct",
    ),
    "profile without steps": (
        lambda: PdProfile([]), ValidationError, "a profile needs at least one step"
    ),
    "profile threshold 0": (
        lambda: PdProfile([(0, 0), (1, 1)]), ValidationError, "threshold 0 outside (0, 1]"
    ),
    "profile threshold above 1": (
        lambda: PdProfile([(F(3, 2), 0)]), ValidationError, "threshold 3/2 outside (0, 1]"
    ),
    "profile value negative": (
        lambda: PdProfile([(1, -1)]), ValidationError, "profile value -1 is negative"
    ),
    "profile values level": (
        lambda: PdProfile([(F(1, 2), 1), (1, 1)]),
        ValidationError,
        "profile steps must strictly increase",
    ),
    "profile ends before 1": (
        lambda: PdProfile([(F(1, 2), 0)]), ValidationError, "last threshold must be exactly 1"
    ),
    "space without points": (
        lambda: FiniteMMSpace([], [], []), ValidationError, "a space needs at least one point"
    ),
    "od on a tuple screen": (
        lambda: observable_diameter(SPACE, (-1, 1), F(1, 2)),
        DomainError,
        "screen must be an Interval or FULL_LINE, got (-1, 1)",
    ),
    "random map on a tuple screen": (
        lambda: random_lipschitz_map(SPACE, (-1, 1), 0),
        DomainError,
        "screen must be an Interval or FULL_LINE, got (-1, 1)",
    ),
    "map without knots": (
        lambda: PiecewiseLinearMap([], 1, 1),
        ValidationError,
        "a piecewise-linear map needs at least one knot",
    ),
    "map after a number": (
        lambda: PiecewiseLinearMap.affine(1, 0).after(3),
        ValidationError,
        "after() composes two PiecewiseLinearMap values",
    ),
    "map payload with one slope too few": (
        lambda: PiecewiseLinearMap.from_json_dict(
            {"breakpoints": ["1"], "slopes": ["0"], "base_x": "1", "base_y": "0"}
        ),
        ValidationError,
        "need exactly one slope per piece (breakpoints + 1)",
    ),
    "map payload based off its first breakpoint": (
        lambda: PiecewiseLinearMap.from_json_dict(
            {"breakpoints": ["1"], "slopes": ["0", "1"], "base_x": "0", "base_y": "0"}
        ),
        ValidationError,
        "base point must sit on the first breakpoint",
    ),
    "unknown space kind": (
        lambda: random_space(random.Random(0), kind="tree"),
        ValidationError,
        "unknown space kind 'tree'; choose from ('line', 'two-row', 'l1-grid')",
    ),
}


@pytest.mark.parametrize("call, error, message", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_input_checks_name_their_complaint(call, error, message):
    with pytest.raises(error, match=exactly(message)):
        call()


# -- the stored form (scale, ints) ---------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_stored_form_helpers_match_fraction_oracles(seed):
    rng = random.Random(f"stored-form/{seed}")
    pool = rng.choice(((1,), (2, 4, 8), (3, 5, 7, 12, 30), (10**20 + 39, 6, 9, 35)))
    values = [F(rng.randint(-10**6, 10**6), rng.choice(pool)) for _ in range(rng.randint(1, 25))]
    # build: the lcm of the reduced denominators, and each value times it
    nums, dens = [v.numerator for v in values], [v.denominator for v in values]
    scale, ints = _build(nums, dens, "values", "test")
    assert scale == lcm(*(v.denominator for v in values))
    assert [F(k, scale) for k in ints] == values
    # reduce: integers over any positive denominator give back that lcm (the
    # lemma in the _rational docstring), on a multiple of it or not
    for den in (scale * rng.randint(1, 10**6), rng.randint(1, 10**6)):
        ks = [rng.randint(-10**9, 10**9) for _ in values]
        reduced = [F(k, den) for k in ks]
        common = lcm(*(v.denominator for v in reduced))
        assert _reduce(den, ks) == (common, tuple(int(v * common) for v in reduced))
    # rescale: on any multiple of the scale every value is kept, in a new list
    for common in (scale, scale * rng.randint(2, 10**6)):
        scaled = _rescale(scale, tuple(ints), common)
        assert type(scaled) is list
        assert [F(k, common) for k in scaled] == values


def test_build_refuses_past_the_ceiling_before_any_int():
    def no_ints():
        raise AssertionError("an int was built")
        yield

    with pytest.raises(ResourceCapError, match=exactly(
        "262144 values with a common denominator of 1026 or more bits exceed "
        "the integer-value ceiling of 2^28 bits"
    )):
        _build(no_ints(), [2**1025] * 2**18, "values with a common denominator", "integer-value")
    # one bit less is exactly at the ceiling, which is allowed
    scale, ints = _build([0] * 2**18, [2**1023] * 2**18, "values", "integer-value")
    assert scale == 2**1023 and ints == [0] * 2**18
