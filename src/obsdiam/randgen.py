"""Seeded random instances for the property suites and acceptance corpus.

Everything draws from a caller-supplied random.Random, so a suite run is a
pure function of its seed.  All generated data is rational: masses come from
integer compositions of a per-instance denominator, positions and distances
from small dyadic grids.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import ValidationError, VerificationError
from .measures import DiscreteMeasure
from .mmspace import FiniteMMSpace
from .plmaps import PiecewiseLinearMap

__all__ = [
    "random_measure",
    "random_alpha",
    "random_lipschitz_pl",
    "random_affine",
    "random_space",
    "jittered_pair",
    "SPACE_KINDS",
]

# |slope| <= 1 on a quarter grid
_LIP_SLOPES = [Fraction(k, 4) for k in range(-4, 5)]
_AFFINE_SLOPES = [
    Fraction(-3), Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
    Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2),
]

SPACE_KINDS = ("line", "two-row", "l1-grid")

_MAX_INTERIOR = 4  # interior knots of random_lipschitz_pl
_PAIR_ATOMS = 6  # atoms of jittered_pair's nu


def _composition(rng: random.Random, n: int) -> list[Fraction]:
    """n positive rationals summing to exactly 1, shared denominator."""
    if n == 1:
        return [Fraction(1)]
    total = rng.randint(max(n, 2), 48)
    cuts = sorted(rng.sample(range(1, total), n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return [Fraction(p, total) for p in parts]


def random_measure(rng: random.Random, *, max_atoms: int = 12) -> DiscreteMeasure:
    n = rng.randint(1, max_atoms)
    den = rng.choice([1, 2, 3, 4, 8])
    numerators = rng.sample(range(-64, 65), n)
    masses = _composition(rng, n)
    return DiscreteMeasure(
        (Fraction(num, den), m) for num, m in zip(numerators, masses)
    )


def random_alpha(rng: random.Random) -> Fraction:
    den = rng.randint(2, 24)
    return Fraction(rng.randint(1, den - 1), den)


def random_lipschitz_pl(rng: random.Random) -> PiecewiseLinearMap:
    """A 1-Lipschitz piecewise-linear map with quarter-integer slopes and at
    most ``_MAX_INTERIOR`` interior knots."""
    k = rng.randint(0, _MAX_INTERIOR)
    if k == 0:
        f = PiecewiseLinearMap.affine(
            rng.choice(_LIP_SLOPES), Fraction(rng.randint(-16, 16), 2)
        )
    else:
        den = rng.choice([1, 2, 4])
        xs = [Fraction(v, den) for v in sorted(rng.sample(range(-40, 41), k))]
        slopes = [rng.choice(_LIP_SLOPES) for _ in range(k + 1)]
        y = Fraction(rng.randint(-16, 16), 2)
        knots = [(xs[0], y)]
        for i in range(1, k):
            y += slopes[i] * (xs[i] - xs[i - 1])
            knots.append((xs[i], y))
        f = PiecewiseLinearMap(knots, slopes[0], slopes[-1])
    if not f.is_one_lipschitz():
        raise VerificationError(f"generated map is not 1-Lipschitz: {f}")
    return f


def random_affine(rng: random.Random) -> PiecewiseLinearMap:
    return PiecewiseLinearMap.affine(
        rng.choice(_AFFINE_SLOPES), Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4]))
    )


def _random_masses(rng: random.Random, n: int) -> list[Fraction] | None:
    # None -> uniform via the constructor default
    return None if rng.random() < 0.5 else _composition(rng, n)


def random_space(
    rng: random.Random,
    *,
    min_points: int = 1,
    max_points: int = 6,
    kind: str | None = None,
) -> FiniteMMSpace:
    """A small metric measure space: collinear, two parallel rows, or an
    L1 grid patch (the latter two exercise genuinely non-line metrics)."""
    if kind is None:
        kind = rng.choice(SPACE_KINDS)
    if kind not in SPACE_KINDS:
        raise ValidationError(f"unknown space kind {kind!r}; choose from {SPACE_KINDS}")
    n = rng.randint(min_points, max_points)
    if kind == "line":
        den = rng.choice([1, 2, 4])
        positions = [Fraction(v, den) for v in rng.sample(range(-48, 49), n)]
        return FiniteMMSpace.line_space(positions, masses=_random_masses(rng, n))
    # planar kinds: L1 metric on distinct integer-ish coordinates
    step = Fraction(1, rng.choice([1, 2, 4]))
    coords: set[tuple[int, int]] = set()
    if kind == "two-row":
        height = rng.randint(1, 6)
        while len(coords) < n:
            coords.add((rng.randint(-12, 12), rng.choice([0, height])))
    else:  # l1-grid
        while len(coords) < n:
            coords.add((rng.randint(0, 10), rng.randint(0, 10)))
    pts = sorted(coords)
    dist = tuple(
        tuple(step * (abs(ax - bx) + abs(ay - by)) for bx, by in pts)
        for ax, ay in pts
    )
    masses = _random_masses(rng, n) or [Fraction(1, n)] * n
    return FiniteMMSpace([f"p{i}" for i in range(n)], dist, masses)


def jittered_pair(rng: random.Random, epsilon) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """(mu, nu) with the one-sided distance from mu to nu strictly below
    epsilon: mu is nu with every atom nudged by at most 7*epsilon/8.

    nu has at most ``_PAIR_ATOMS`` atoms; changing that changes every seeded
    prokhorov-transfer case."""
    epsilon = Fraction(epsilon)
    nu = random_measure(rng, max_atoms=_PAIR_ATOMS)
    moved = [
        (pos + epsilon * Fraction(rng.randint(-7, 7), 8), mass)
        for pos, mass in nu.atoms
    ]
    return DiscreteMeasure(moved), nu
