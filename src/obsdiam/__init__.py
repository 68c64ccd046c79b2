"""Exact partial and observable diameters of finite metric measure spaces.

All arithmetic is over fractions.Fraction; floats are rejected at the API
boundary so every reported value and every verification is exact.
"""

from .compression import ClampReport, anchor_walk, clamp_construct, verify_clamp
from .errors import (
    DomainError,
    ObsdiamError,
    ResourceCapError,
    ValidationError,
    VerificationError,
)
from .experiments import (
    CounterexampleReport,
    SemicontinuityProfile,
    SemicontinuityRow,
    SharpnessRow,
    counterexample_space,
    semicontinuity_profile,
    sharpness_sweep,
    verify_counterexample,
)
from .measures import (
    DiscreteMeasure,
    PartialDiameter,
    PdProfile,
    partial_diameter,
    pd_profile,
    push_forward,
)
from .mmspace import (
    FULL_LINE,
    FiniteMMSpace,
    FullLine,
    HeavyFamily,
    Interval,
    LipschitzWitness,
    Screen,
    heavy_minimal_subsets,
    parse_screen,
    screen_to_str,
)
from .observable import (
    OdResult,
    RevisedInequalityReport,
    observable_diameter,
    od_grid_oracle,
    random_lipschitz_map,
    verify_revised_inequality,
    witness_partial_diameter,
)
from .plmaps import PiecewiseLinearMap
from .prokhorov import (
    TransferReport,
    check_pd_transfer,
    prokhorov_onesided,
)
from .proptests import SUITE_NAMES, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ObsdiamError",
    "DomainError",
    "ValidationError",
    "ResourceCapError",
    "VerificationError",
    # measures
    "DiscreteMeasure",
    "PartialDiameter",
    "partial_diameter",
    "PdProfile",
    "pd_profile",
    "push_forward",
    # piecewise-linear maps
    "PiecewiseLinearMap",
    # compression
    "anchor_walk",
    "clamp_construct",
    "ClampReport",
    "verify_clamp",
    # spaces and screens
    "FiniteMMSpace",
    "Interval",
    "FullLine",
    "FULL_LINE",
    "Screen",
    "parse_screen",
    "screen_to_str",
    "LipschitzWitness",
    "HeavyFamily",
    "heavy_minimal_subsets",
    # observable diameter
    "OdResult",
    "observable_diameter",
    "od_grid_oracle",
    "random_lipschitz_map",
    "witness_partial_diameter",
    "RevisedInequalityReport",
    "verify_revised_inequality",
    # prokhorov
    "prokhorov_onesided",
    "TransferReport",
    "check_pd_transfer",
    # experiments
    "counterexample_space",
    "CounterexampleReport",
    "verify_counterexample",
    "SharpnessRow",
    "sharpness_sweep",
    "SemicontinuityRow",
    "SemicontinuityProfile",
    "semicontinuity_profile",
    # property suites
    "SUITE_NAMES",
    "SuiteReport",
    "run_suite",
]
