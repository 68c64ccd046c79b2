from fractions import Fraction as F

import pytest

from obsdiam import (
    DiscreteMeasure,
    DomainError,
    FiniteMMSpace,
    Interval,
    check_pd_transfer,
    clamp_construct,
    counterexample_space,
    od_grid_oracle,
    partial_diameter,
    pd_profile,
    sharpness_sweep,
    verify_counterexample,
    verify_revised_inequality,
)

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
