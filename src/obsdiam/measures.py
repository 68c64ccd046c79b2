"""Finitely supported probability measures on the line and their partial diameters.

The partial diameter of a measure at level ``alpha`` is the smallest diameter
of a Borel set carrying mass at least ``alpha``.  For a finite measure on the
line an optimal set can always be taken to be a closed interval, so the value
is the width of the cheapest contiguous window of atoms whose mass reaches the
level.  Everything here is exact: positions, masses, and results are
``fractions.Fraction``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, NamedTuple

from ._rational import ONE, ZERO, JsonFile, format_fraction, fraction_text, to_fraction
from .errors import DomainError, ValidationError, VerificationError

__all__ = [
    "DiscreteMeasure",
    "PartialDiameter",
    "PdProfile",
    "partial_diameter",
    "pd_profile",
    "push_forward",
]


class DiscreteMeasure(JsonFile):
    """A probability measure with finitely many atoms on the rational line.

    Atoms are stored canonically: positions strictly increasing, equal input
    positions merged by summing their masses, every mass positive, and the
    masses summing to exactly 1.
    """

    __slots__ = ("_atoms",)

    def __init__(self, atoms: Iterable[tuple, ]):
        merged: dict[Fraction, Fraction] = {}
        count = 0
        for entry in atoms:
            pos, mass = entry
            pos = to_fraction(pos, what="atom position")
            mass = to_fraction(mass, what="atom mass")
            if mass <= 0:
                raise ValidationError(
                    f"atom mass must be positive, got {fraction_text(mass)} "
                    f"at {fraction_text(pos)}"
                )
            merged[pos] = merged.get(pos, ZERO) + mass
            count += 1
        if count == 0:
            raise ValidationError("a measure needs at least one atom")
        total = sum(merged.values())
        if total != 1:
            raise ValidationError(f"atom masses must sum to 1 exactly, got {fraction_text(total)}")
        self._atoms = tuple(sorted(merged.items()))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def uniform(cls, positions: Iterable) -> "DiscreteMeasure":
        pts = [to_fraction(p, what="position") for p in positions]
        if not pts:
            raise ValidationError("uniform measure needs at least one position")
        if len(set(pts)) != len(pts):
            raise ValidationError("uniform measure positions must be distinct")
        share = Fraction(1, len(pts))
        return cls((p, share) for p in pts)

    @classmethod
    def point_mass(cls, position) -> "DiscreteMeasure":
        return cls([(position, ONE)])

    # -- inspection ------------------------------------------------------------

    @property
    def atoms(self) -> tuple:
        return self._atoms

    @property
    def positions(self) -> tuple:
        return tuple(a[0] for a in self._atoms)

    @property
    def masses(self) -> tuple:
        return tuple(a[1] for a in self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self._atoms == other._atoms

    def __hash__(self) -> int:
        return hash(self._atoms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{m}" for p, m in self._atoms)
        return f"DiscreteMeasure({inner})"

    def mass_of_interval(self, lo, hi) -> Fraction:
        """Mass of the closed interval [lo, hi]."""
        lo = to_fraction(lo, what="interval end")
        hi = to_fraction(hi, what="interval end")
        return sum((m for p, m in self._atoms if lo <= p <= hi), ZERO)

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "atoms": [
                {"pos": format_fraction(p), "mass": format_fraction(m)}
                for p, m in self._atoms
            ]
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DiscreteMeasure":
        if not isinstance(payload, dict) or "atoms" not in payload:
            raise ValidationError("measure JSON must be an object with an 'atoms' list")
        atoms = payload["atoms"]
        if not isinstance(atoms, list):
            raise ValidationError("'atoms' must be a list")
        pairs = []
        for entry in atoms:
            if not isinstance(entry, dict) or "pos" not in entry or "mass" not in entry:
                raise ValidationError("each atom needs 'pos' and 'mass' fields")
            pairs.append((entry["pos"], entry["mass"]))
        return cls(pairs)


class PartialDiameter(NamedTuple):
    """A partial-diameter value together with its witness window.

    ``window`` is a pair of atom positions (lo, hi) whose closed interval has
    mass >= alpha and width hi - lo equal to ``value``.  It is None exactly
    when alpha <= 0 (the empty set already works).
    """

    value: Fraction
    window: tuple | None


def partial_diameter(mu: DiscreteMeasure, alpha) -> PartialDiameter:
    """Smallest diameter of a set of atoms with mass at least ``alpha``.

    Returns 0 with no window for alpha <= 0 (diameter of the empty set is 0
    by convention) and raises DomainError for alpha > 1, where no set can
    reach the level.
    """
    alpha = to_fraction(alpha, what="alpha")
    if alpha > 1:
        raise DomainError(f"alpha must be <= 1, got {fraction_text(alpha)}")
    if alpha <= 0:
        return PartialDiameter(ZERO, None)
    atoms = mu.atoms
    best: Fraction | None = None
    window: tuple | None = None
    acc = ZERO
    i = 0
    # Classic two-pointer sweep: for each right end j, shrink the left end i
    # as far as the mass level allows; masses are positive so i never backs up.
    for j, (pos_j, mass_j) in enumerate(atoms):
        acc += mass_j
        while acc - atoms[i][1] >= alpha:
            acc -= atoms[i][1]
            i += 1
        if acc >= alpha:
            width = pos_j - atoms[i][0]
            if best is None or width < best:
                best = width
                window = (atoms[i][0], pos_j)
    if best is None:  # unreachable: the total mass 1 reaches alpha
        raise VerificationError(f"no window reaches mass {fraction_text(alpha)}")
    return PartialDiameter(best, window)


class PdProfile:
    """The full map alpha -> partial diameter, as an exact step function.

    ``steps`` is a tuple of (threshold, value) pairs with both coordinates
    strictly increasing and the last threshold equal to 1; the function takes
    ``value`` on the half-open interval (previous threshold, threshold].  That
    shape makes the profile nondecreasing and left-continuous by construction.
    """

    __slots__ = ("_steps",)

    def __init__(self, steps: Iterable[tuple]):
        steps = tuple(
            (to_fraction(t, what="threshold"), to_fraction(v, what="value"))
            for t, v in steps
        )
        if not steps:
            raise ValidationError("a profile needs at least one step")
        prev_t, prev_v = None, None
        for t, v in steps:
            if not (0 < t <= 1):
                raise ValidationError(f"threshold {fraction_text(t)} outside (0, 1]")
            if v < 0:
                raise ValidationError(f"profile value {fraction_text(v)} is negative")
            if prev_t is not None and (t <= prev_t or v <= prev_v):
                raise ValidationError("profile steps must strictly increase")
            prev_t, prev_v = t, v
        if steps[-1][0] != 1:
            raise ValidationError("last threshold must be exactly 1")
        self._steps = steps

    @property
    def steps(self) -> tuple:
        return self._steps

    def evaluate(self, alpha) -> Fraction:
        alpha = to_fraction(alpha, what="alpha")
        if alpha > 1:
            raise DomainError(f"alpha must be <= 1, got {fraction_text(alpha)}")
        if alpha <= 0:
            return ZERO
        thresholds = [t for t, _ in self._steps]
        k = bisect_left(thresholds, alpha)
        return self._steps[k][1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PdProfile):
            return NotImplemented
        return self._steps == other._steps

    def __hash__(self) -> int:
        return hash(self._steps)

    def __repr__(self) -> str:
        inner = ", ".join(f"({t}] -> {v}" for t, v in self._steps)
        return f"PdProfile({inner})"


def pd_profile(mu: DiscreteMeasure) -> PdProfile:
    """Exact profile of all partial diameters of ``mu``.

    Every candidate value is the width of some window of atoms.  The profile
    is the lower staircase of (window width, window mass) pairs: sort widths
    ascending, keep each one only while it raises the best reachable mass.
    """
    atoms = mu.atoms
    n = len(atoms)
    prefix = [ZERO]
    for _, m in atoms:
        prefix.append(prefix[-1] + m)
    best_mass: dict[Fraction, Fraction] = {}
    for i in range(n):
        for j in range(i, n):
            width = atoms[j][0] - atoms[i][0]
            mass = prefix[j + 1] - prefix[i]
            cur = best_mass.get(width)
            if cur is None or mass > cur:
                best_mass[width] = mass
    steps = []
    reached = ZERO
    for width in sorted(best_mass):
        mass = best_mass[width]
        if mass > reached:
            steps.append((mass, width))
            reached = mass
    if reached != 1:
        raise VerificationError(f"profile steps reach mass {fraction_text(reached)}, not 1")
    return PdProfile(steps)


def push_forward(mu: DiscreteMeasure, f) -> DiscreteMeasure:
    """Image measure of ``mu`` under ``f`` (any exact callable, e.g. a
    PiecewiseLinearMap).  Atoms landing on the same point are merged."""
    return DiscreteMeasure(
        (to_fraction(f(p), what="image position"), m) for p, m in mu.atoms
    )
