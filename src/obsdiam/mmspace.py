"""Finite metric measure spaces, screens, witnesses, and heavy subsets.

A screen is where 1-Lipschitz observables take values: the whole line or a
closed interval [a, b].  A heavy subset at level ``alpha`` is a set of points
whose mass reaches ``alpha``.  No solver lists a heavy subset.  The exact
engine reads the integer point weights, the level and the heaviest light mass
from ``integer_masses``, and the masses of the prefixes of each ordering; the
grid oracle reads the heavy windows of the values it has placed.
``heavy_minimal_subsets`` lists the inclusion-minimal heavy subsets for the
callers that want them.

Stored forms.  Spaces and witnesses store each of their numbers once, as
integers over one denominator, and build Fractions from them on each call:

* a space's metric as ``scaled_dist = (scale, rows)``, the distances times
  the lcm of their denominators;
* a space's masses as ``scaled_masses = (scale, weights)``, the masses times
  the lcm of their denominators, integers summing to ``scale``;
* a witness's values as ``scaled_values = (den, ints)``, the values times
  the lcm of their denominators.

Each is the one stored form of ``_rational`` (its module docstring), built
by ``_rational._build`` under its ceiling, and canonical: a function of the
numbers alone.  So two spaces or two witnesses are equal exactly when their
forms are, and ``__eq__`` and ``__hash__`` read the forms.  A witness built
from integers over any positive denominator, as the solvers build theirs,
is brought to this form by ``LipschitzWitness._from_scaled`` through
``_rational._reduce``.

One integer scale per space and screen.  ``screen_scale`` is the lcm of the
distance scale and the screen-end denominators, ``on_scale`` puts the metric
and the screen ends on a multiple of it, and ``check_scaled`` checks a
witness on that scale.  ``LipschitzWitness.validate``, the exact engine and
the random-map kernel in ``observable`` all take their scale from these.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import add
from typing import Iterable, Union

from ._rational import (
    JsonFile, _build, _reduce, _rescale, format_fraction, fraction_text, to_fraction,
)
from .errors import DomainError, ResourceCapError, ValidationError
from .measures import DiscreteMeasure, scaled_level

__all__ = [
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
]

# guards integer_masses' 2 x 2^11 half sums, the family listing (up to
# C(22, 11) = 705,432 minimal heavy subsets) and the parsing of a space file
POINT_CEILING = 22


class FiniteMMSpace(JsonFile):
    """Points with a rational metric and a probability mass on each point.

    The metric is stored as one integer matrix, the distances times their
    least common denominator (``scaled_dist``), and the masses as integer
    weights, the masses times theirs (``scaled_masses``); ``dist``,
    ``dist_matrix`` and ``masses`` build Fractions from them on each call.
    """

    __slots__ = ("_labels", "_mass_scale", "_weights", "_scale", "_dist_int")

    def __init__(self, labels: Iterable[str], dist, mass):
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        if n == 0:
            raise ValidationError("a space needs at least one point")
        if len(set(labels)) != n:
            raise ValidationError("point labels must be distinct")
        rows = [[to_fraction(v, what="distance") for v in row] for row in dist]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValidationError(f"distance matrix must be {n}x{n}")
        masses = tuple(to_fraction(m, what="mass") for m in mass)
        if len(masses) != n:
            raise ValidationError("need exactly one mass per point")
        if any(m <= 0 for m in masses):
            raise ValidationError("all masses must be positive")
        mass_scale, weights = _build(
            [m.numerator for m in masses], [m.denominator for m in masses],
            "points with a common mass denominator", "integer-weight",
        )
        if sum(weights) != mass_scale:
            total = Fraction(sum(weights), mass_scale)
            raise ValidationError(f"masses must sum to 1 exactly, got {fraction_text(total)}")
        # the checks below run on the stored integer matrix, the distances
        # times their least common denominator; the parsed rows serve only
        # the triangle-inequality message
        scale, ints = _build(
            [d.numerator for row in rows for d in row],
            [d.denominator for row in rows for d in row],
            "distances with a common denominator", "integer-distance",
        )
        ints = tuple(zip(*[iter(ints)] * n))  # back to rows of n
        for i in range(n):
            if ints[i][i] != 0:
                raise ValidationError(f"distance ({labels[i]}, {labels[i]}) must be 0")
            for j in range(i + 1, n):
                if ints[i][j] != ints[j][i]:
                    raise ValidationError(
                        f"distance matrix not symmetric at ({labels[i]}, {labels[j]})"
                    )
                if ints[i][j] <= 0:
                    raise ValidationError(
                        f"off-diagonal distance ({labels[i]}, {labels[j]}) must be positive"
                    )
        # (i, j) fails iff (j, i) does, and (i, i) never: check i < j only
        for i, row in enumerate(ints):
            for j, d in enumerate(row[i + 1 :], i + 1):
                # column j is row j, as the matrix is symmetric
                if min(map(add, row, ints[j])) < d:
                    k = next(k for k in range(n) if row[k] + ints[j][k] < d)
                    raise ValidationError(
                        "triangle inequality fails at triple "
                        f"({labels[i]}, {labels[j]}, {labels[k]}): "
                        f"{fraction_text(rows[i][j])} > {fraction_text(rows[i][k])} "
                        f"+ {fraction_text(rows[k][j])}"
                    )
        self._labels = labels
        self._mass_scale = mass_scale
        self._weights = tuple(weights)
        self._scale = scale
        self._dist_int = ints

    @classmethod
    def line_space(cls, positions, masses=None, labels=None) -> "FiniteMMSpace":
        """Points on the line with the absolute-difference metric."""
        pos = [to_fraction(p, what="position") for p in positions]
        if len(set(pos)) != len(pos):
            raise ValidationError("line positions must be distinct")
        n = len(pos)
        if masses is None:
            masses = [Fraction(1, n)] * n if n else []
        if labels is None:
            labels = [f"p{i}" for i in range(n)]
        dist = [[abs(a - b) for b in pos] for a in pos]
        return cls(labels, dist, masses)

    # -- queries ---------------------------------------------------------------

    @property
    def labels(self) -> tuple:
        return self._labels

    @property
    def masses(self) -> tuple:
        """The masses as Fractions, built from ``scaled_masses`` on each
        call."""
        scale = self._mass_scale
        return tuple(Fraction(w, scale) for w in self._weights)

    @property
    def scaled_masses(self) -> tuple:
        """``(scale, weights)``, the stored form of the masses: the masses
        times their least common denominator ``scale``, as a tuple of ints
        summing to ``scale``."""
        return self._mass_scale, self._weights

    def __len__(self) -> int:
        return len(self._labels)

    def dist(self, i: int, j: int) -> Fraction:
        return Fraction(self._dist_int[i][j], self._scale)

    @property
    def dist_matrix(self) -> tuple:
        """The distances as Fraction rows, built from ``scaled_dist`` on each
        call."""
        scale = self._scale
        return tuple(tuple(Fraction(d, scale) for d in row) for row in self._dist_int)

    @property
    def scaled_dist(self) -> tuple:
        """``(scale, rows)``, the stored form of the metric: the distances
        times their least common denominator ``scale``, as tuples of ints."""
        return self._scale, self._dist_int

    @property
    def diameter(self) -> Fraction:
        return Fraction(max(map(max, self._dist_int)), self._scale)

    def mass_of(self, indices: Iterable[int]) -> Fraction:
        weights = self._weights
        return Fraction(sum(weights[i] for i in indices), self._mass_scale)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMMSpace):
            return NotImplemented
        # both stored forms are canonical (module docstring), so equal spaces
        # have equal forms; the integers alone would equate the metrics
        # {0, 1/2} and {0, 1/3}
        return (
            self._labels == other._labels
            and self._scale == other._scale
            and self._dist_int == other._dist_int
            and self._mass_scale == other._mass_scale
            and self._weights == other._weights
        )

    def __hash__(self) -> int:
        return hash((self._labels, self._scale, self._dist_int, self._mass_scale, self._weights))

    def __repr__(self) -> str:
        return f"FiniteMMSpace(n={len(self._labels)}, diam={self.diameter})"

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self._labels),
            "dist": [[format_fraction(v) for v in row] for row in self.dist_matrix],
            "mass": [format_fraction(m) for m in self.masses],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FiniteMMSpace":
        if not isinstance(payload, dict):
            raise ValidationError("space JSON must be an object")
        try:
            labels, dist, mass = payload["labels"], payload["dist"], payload["mass"]
        except KeyError as exc:
            raise ValidationError(f"space JSON missing field {exc}") from exc
        rows_ok = isinstance(dist, list) and all(isinstance(r, list) for r in dist)
        if not (rows_ok and isinstance(labels, list) and isinstance(mass, list)):
            raise ValidationError("space JSON needs lists for labels, mass and dist and its rows")
        return cls(labels, dist, mass)


@dataclass(frozen=True)
class Interval:
    """Closed screen [a, b] with a < b."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", to_fraction(self.a, what="screen endpoint"))
        object.__setattr__(self, "b", to_fraction(self.b, what="screen endpoint"))
        if self.a >= self.b:
            raise ValidationError(
                f"screen needs a < b, got [{fraction_text(self.a)}, {fraction_text(self.b)}]"
            )

    @property
    def width(self) -> Fraction:
        return self.b - self.a


class FullLine:
    """The unbounded screen; a singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FullLine"


FULL_LINE = FullLine()

Screen = Union[Interval, FullLine]


def check_screen(screen) -> None:
    """Raise DomainError unless ``screen`` is an Interval or FULL_LINE; the
    one screen check of ``validate``, the exact engine and the random maps."""
    if not isinstance(screen, (Interval, FullLine)):
        raise DomainError(f"screen must be an Interval or FULL_LINE, got {screen!r}")


def parse_screen(text: str) -> Screen:
    """Parse 'fullline' or 'interval:a:b' with rational endpoints."""
    text = text.strip()
    if text.lower() == "fullline":
        return FULL_LINE
    parts = text.split(":")
    if len(parts) == 3 and parts[0].lower() == "interval":
        return Interval(parts[1], parts[2])  # the endpoints are parsed there
    raise ValidationError(f"cannot parse screen {text!r}; use fullline or interval:a:b")


def screen_to_str(screen: Screen) -> str:
    if isinstance(screen, FullLine):
        return "fullline"
    return f"interval:{format_fraction(screen.a)}:{format_fraction(screen.b)}"


class LipschitzWitness:
    """One value per point of a space; a candidate 1-Lipschitz observable.

    The values are stored as ``scaled_values = (den, ints)``: their least
    common denominator and the values times it (module docstring); ``values``
    builds Fractions from them on each call.
    """

    __slots__ = ("_den", "_ints")

    def __init__(self, values: Iterable):
        values = tuple(to_fraction(v, what="witness value") for v in values)
        self._den, ints = _build(
            [v.numerator for v in values], [v.denominator for v in values],
            "values with a common denominator", "integer-value",
        )
        self._ints = tuple(ints)

    @classmethod
    def _from_scaled(cls, den: int, ints) -> "LipschitzWitness":
        """The witness with values ``ints[i] / den`` for a positive ``den``,
        reduced to the canonical form (module docstring)."""
        witness = cls.__new__(cls)
        witness._den, witness._ints = _reduce(den, ints)
        return witness

    @property
    def values(self) -> tuple:
        den = self._den
        return tuple(Fraction(k, den) for k in self._ints)

    @property
    def scaled_values(self) -> tuple:
        """``(den, ints)``, the stored form of the values: the values times
        their least common denominator ``den``, as a tuple of ints."""
        return self._den, self._ints

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._den == other._den and self._ints == other._ints

    def __hash__(self) -> int:
        return hash((self._den, self._ints))

    def __repr__(self) -> str:
        return f"LipschitzWitness(values={self.values!r})"

    def _check_length(self, space: FiniteMMSpace) -> None:
        """Raise ValidationError unless there is one value per point."""
        n = len(space)
        if len(self._ints) != n:
            raise ValidationError(f"witness has {len(self._ints)} values for a {n}-point space")

    def validate(self, space: FiniteMMSpace, screen: Screen) -> None:
        """Raise ValidationError unless the values fit the space, lie on the
        screen and are 1-Lipschitz, and DomainError (``check_screen``, after
        the length check) unless the screen is an Interval or FULL_LINE; the
        first failing check is reported, and pairs (i, j) with i < j are
        checked in lexicographic order.

        The screen and the Lipschitz pairs are compared by ``check_scaled``
        on one integer scale, ``den = lcm(screen_scale, value scale)``,
        where the value scale is ``scaled_values``' lcm of the value
        denominators.
        """
        self._check_length(space)
        check_screen(screen)
        den = lcm(screen_scale(space, screen), self._den)
        rows, ends = on_scale(space, screen, den)
        check_scaled(space, rows, ends, den, _rescale(self._den, self._ints, den))

    def pushforward(self, space: FiniteMMSpace) -> DiscreteMeasure:
        self._check_length(space)
        return DiscreteMeasure(zip(self.values, space.masses))


def screen_scale(space: FiniteMMSpace, screen: Screen) -> int:
    """The least integer scale of the metric and the screen: the lcm of the
    distance scale (``scaled_dist``) and, on an Interval, the denominators
    of its ends."""
    scale = space.scaled_dist[0]
    if not isinstance(screen, Interval):
        return scale
    return lcm(scale, screen.a.denominator, screen.b.denominator)


def on_scale(space: FiniteMMSpace, screen: Screen, den: int) -> tuple:
    """``(rows, ends)``: the distances and the screen ends times ``den``, a
    positive multiple of ``screen_scale``, as ints; ``rows`` are the stored
    rows, not a copy, when ``den`` is the distance scale, and ``ends`` is
    None on the full line.

    Every distance and each end times ``den`` is an integer, and multiplying
    both sides of ``a <= v <= b`` or ``|v_i - v_j| <= d(i, j)`` by the
    positive ``den`` keeps the comparison.  So a witness ``ints / den`` on
    this scale passes a check on integers exactly when its Fractions do.
    """
    scale, rows = space.scaled_dist
    if den != scale:
        rows = [_rescale(scale, row, den) for row in rows]
    if not isinstance(screen, Interval):
        return rows, None
    return rows, tuple(e.numerator * (den // e.denominator) for e in (screen.a, screen.b))


def check_scaled(space: FiniteMMSpace, rows, ends, den: int, ints) -> None:
    """The witness check on one integer scale: raise ValidationError unless
    the values ``ints / den`` lie on the screen and are 1-Lipschitz, where
    ``(rows, ends)`` is ``on_scale(space, screen, den)``.  The first value
    off the screen in point order is reported, then the first pair i < j in
    lexicographic order that breaks its bound, with ``validate``'s
    messages.
    """
    if ends is not None:
        a, b = ends
        for k in ints:
            if not a <= k <= b:
                raise ValidationError(
                    f"witness value {fraction_text(Fraction(k, den))} escapes the screen"
                )
    n = len(ints)
    for i in range(n):
        vi, row = ints[i], rows[i]
        for j in range(i + 1, n):
            if abs(vi - ints[j]) > row[j]:
                vi, vj = Fraction(vi, den), Fraction(ints[j], den)
                raise ValidationError(
                    "witness is not 1-Lipschitz between "
                    f"{space.labels[i]} and {space.labels[j]}: "
                    f"|{fraction_text(vi)} - {fraction_text(vj)}| "
                    f"> {fraction_text(space.dist(i, j))}"
                )


@dataclass(frozen=True)
class HeavyFamily:
    """Inclusion-minimal subsets of points with mass at least ``alpha``, as
    ``heavy_minimal_subsets`` lists them."""

    alpha: Fraction
    minimal_subsets: tuple  # tuple of sorted index tuples


def integer_masses(space: FiniteMMSpace, alpha: Fraction) -> tuple:
    """``(weights, level, beta)``: the masses times the lcm of their
    denominators, ``ceil(alpha * sum(weights))``, which an integer weight
    sum reaches exactly when it reaches ``alpha`` (``measures.scaled_level``),
    and the weight of the heaviest light (non-heavy) set.

    ``beta`` comes from meeting in the middle.  Every set splits into its
    points among the first ``n // 2`` and among the rest, so ``beta`` is the
    largest ``s + h < level`` over the subset sums s of the first part and h
    of the second; one bisection of the sorted second list finds the best h
    for each s.  Callers check ``POINT_CEILING`` first.
    """
    scale, weights = space.scaled_masses
    level = scaled_level(alpha, scale)
    half = len(weights) // 2
    firsts, seconds = _subset_sums(weights[:half]), sorted(_subset_sums(weights[half:]))
    # the empty second part, seconds[0] = 0, joins every light first part
    beta = max(s + seconds[bisect_left(seconds, level - s) - 1] for s in firsts if s < level)
    return weights, level, beta


def _subset_sums(weights) -> list:
    """The weight of every subset of ``weights``, the empty one first."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def heavy_minimal_subsets(space: FiniteMMSpace, alpha) -> HeavyFamily:
    """The minimal heavy subsets, smallest first and lexicographic within a
    size, from one depth-first search on the integer weights
    (``scaled_masses``) against ``measures.scaled_level``.  No solver calls
    it: the exact engine and the grid oracle read heavy windows instead.

    The search takes the points heaviest first, ties by index, and grows a
    light set by one later point at a time.  A point that makes the set
    heavy ends the branch: the set is reported and not grown.  A branch is
    cut at the first point from which even all the remaining points cannot
    lift the set to the level; the points after it weigh less still.

    * Every set reported is minimal.  The point that made it heavy came
      last, so it is the set's lightest.  Dropping any point takes off at
      least that weight, which leaves at most the light set before it.
    * Every minimal set M is reported.  Its proper prefixes in search order
      are subsets of M, hence light, so the search grows each into the
      next.  No cut stops that: the prefix plus all the points from M's next
      point on include M, so they reach the level.

    Past ``POINT_CEILING`` points the search is refused before it starts
    (``check_point_ceiling``).
    """
    alpha = to_fraction(alpha, what="alpha")
    if not (0 < alpha <= 1):
        raise DomainError(f"alpha must lie in (0, 1], got {fraction_text(alpha)}")
    n = len(space)
    check_point_ceiling(n)
    scale, weights = space.scaled_masses
    level = scaled_level(alpha, scale)
    order = sorted(range(n), key=lambda p: -weights[p])  # stable: ties by index
    weight = [weights[p] for p in order]
    rest = [*accumulate(reversed(weight))][::-1]  # rest[j]: weight of order[j:]
    found = []
    chosen = []

    def grow(start, held):
        """Grow the light set ``chosen`` of mass ``held`` by each point of
        ``order[start:]``."""
        for j in range(start, n):
            if held + weight[j] >= level:
                found.append((*chosen, order[j]))
                continue
            if held + rest[j] < level:
                return
            chosen.append(order[j])
            grow(j + 1, held + weight[j])
            chosen.pop()

    grow(0, 0)
    for k, subset in enumerate(found):  # in place: each old tuple goes at once
        found[k] = tuple(sorted(subset))
    found.sort()
    found.sort(key=len)
    return HeavyFamily(alpha, tuple(found))


def check_point_ceiling(n: int) -> None:
    """Raise ResourceCapError when a space passes ``POINT_CEILING`` points,
    the ceiling of ``integer_masses``' half sums, of the family listing and
    of a space file's parse; no cap keyword raises it."""
    if n > POINT_CEILING:
        raise ResourceCapError(
            f"{n} points exceed the point ceiling {POINT_CEILING}; --cap-n cannot raise it"
        )
