"""Finitely supported probability measures on the line and their partial diameters.

The partial diameter of a measure at level ``alpha`` is the smallest diameter
of a Borel set carrying mass at least ``alpha``.  For a finite measure on the
line an optimal set can always be taken to be a closed interval, so the value
is the width of the cheapest contiguous window of atoms whose mass reaches the
level.  Everything here is exact: positions and results are
``fractions.Fraction``, and masses are exact integer weights.

Stored form.  A measure stores its sorted positions, their integer view
``scaled_positions = (pscale, ints)`` and ``scaled_masses = (scale,
weights)``, both the one stored form of ``_rational`` (its module
docstring).  ``pscale`` is the least common multiple of the position
denominators and ``ints[k] = positions[k] * pscale``, held in a 64-bit
``array`` (8 bytes an int, where a tuple takes about 36) when every int
fits one and in a tuple when one does not; ``scaled_positions`` hands out a
read-only view of the array, so the ints, like the tuples, cannot be
changed.  ``scale`` is the least common
multiple of the mass denominators and ``weights[k] = masses[k] * scale``,
integers summing to ``scale``.  ``masses`` and ``atoms`` build their
Fractions ``w / scale`` from the weights on each call.  Every measure is
built one way: the constructor and ``push_forward`` give each distinct
position a slot, found through a dict keyed by the position's integer pair
``p.as_integer_ratio()``, which hashes and compares in C where a Fraction
does not.  The slots live in three flat lists, ``positions``, ``nums`` and
``dens``: slot k holds the total mass at ``positions[k]`` as the integer
fraction ``nums[k] / dens[k]``; flat lists of ints, rather than one list
per position, keep the finisher's passes short.  One finisher,
``DiscreteMeasure._store``, reduces, scales, sorts and stores the slots; it
reads the position ints off the dict's integer pairs.  The sweeps below add
and compare the weights and the position ints instead of Fractions, and
build a Fraction only for what they return.  Three facts make that exact,
a fourth makes the stored form canonical, a fifth keeps the quadratic
sweeps short when ``pscale`` is long, and a sixth gives a profile the same
kind of stored form.

1. Levels.  A set of atoms with weight sum ``acc`` has mass acc / scale, so
   its mass reaches ``alpha`` exactly when acc >= alpha * scale.  As acc is
   an integer, that holds exactly when acc >= ceil(alpha * scale), computed
   as ``-(-alpha.numerator * scale // alpha.denominator)`` on integers.
2. Widths.  Positions p and q are ints[i] / pscale and ints[j] / pscale, so
   the width q - p is (ints[j] - ints[i]) / pscale, and two widths compare
   as their integer numerators do, since multiplying both sides by
   ``pscale`` > 0 keeps the order.  The width is built as a Fraction only
   when it is returned.
3. Order.  For the same reason p < q exactly when p * pscale < q * pscale,
   and p = q exactly when the two ints are equal.  Every position p = a/b in
   lowest terms has b dividing ``pscale``, so p * pscale is the int
   a * (pscale // b), read off the slot's integer pair.  The finisher sorts
   the slot indices once by these ints, which puts the positions in exact
   order from any input order, with no float and no tie: distinct slots
   hold distinct positions and so distinct ints.  ``pd_profile`` sorts its
   integer widths, and ``prokhorov`` its integer stops, with a plain sort
   for the same reason.
4. Canonical form.  Each slot holds the exact total mass at its
   position as an integer fraction: the constructor adds a mass with the
   slot's denominator to its numerator, and one with another denominator
   on the lcm of the two, reduced by their gcd at once so that the integers
   stay as short as the Fraction sum would be; ``push_forward`` adds the
   source weights at an image point over the source's ``scale``.  The
   finisher reduces each slot by one gcd and builds the stored form of the
   reduced masses, which is canonical (``_rational`` module docstring): a
   function of the masses, as ``(pscale, ints)`` is of the positions.  Two
   measures therefore have equal atoms exactly when they have equal
   positions and weights (the weights give back ``scale`` as their sum,
   hence the masses), whichever path built them; ``__eq__`` and
   ``__hash__`` read those two tuples, so equal measures hash equal, as a
   set or dict key needs.
5. Long scales.  ``pd_profile`` keys every window width, and ``prokhorov``
   every atom distance below 1, as an int: a difference d >= 0 of two
   positions.  On ``pscale`` that int carries all of pscale's bits, which
   the reduced Fraction of one pair does not when the positions have many
   coprime denominators.  So past ``SWEEP_BITS`` bits of pscale the sweeps
   key d as floor(d * 2^B) instead (``floor_bits``), with B = 2b + 1 and
   2^b above a bound Q on the reduced denominators of the differences:
   Q = D^2 for the widths, D the largest position denominator, and
   D_mu * D_nu for the distances from mu's atoms to nu's.  That key is
   exact.  Two distinct differences are at least 1/Q^2 > 2^-B apart, so
   their keys differ in the same direction, and equal differences have
   equal keys; the keys therefore compare, sort and hash as the
   differences do.  And d is the one fraction with denominator at most 2^b
   nearest to key / 2^B (``unfloor``): d lies within 2^-B = 1/(2 * 4^b) of
   it, and any other such fraction lies more than 1/4^b from d.  B grows
   with the denominators of one pair, not with their number, and keys are
   built only where pscale is longer than B.
6. Profiles.  A ``PdProfile`` stores its thresholds as integer levels on
   one scale, threshold k being ``levels[k] / scale``, beside its values.
   ``PdProfile(steps)`` builds the thresholds' stored form
   (``_rational._build``), and ``pd_profile`` reduces the kept windows'
   weight sums on the measure's ``scale`` to it (``_rational._reduce``).
   That form is canonical (``_rational`` module docstring), so
   ``__eq__`` and ``__hash__``, which read it, agree whichever constructor
   built the profile.  ``evaluate(alpha)`` takes the
   first threshold at least alpha; by fact 1, with a level in place of a
   weight sum, levels[k] / scale >= alpha exactly when levels[k] >=
   ``scaled_level(alpha, scale)``, so one ``bisect_left`` on the levels
   finds it, comparing ints only.

Each weight is at most ``scale``, so the mass view costs n integers no
larger than ``scale``.  With a shared mass denominator, as in ``uniform``,
``scale`` is that denominator.  Masses whose denominators share few factors
can make ``scale`` long even when every running Fraction total of them is
short: the k pairs 1/(k*d_i) and (d_i - 1)/(k*d_i) at 2k distinct positions
sum to 1, yet ``scale`` is k*d_1*...*d_k when the d_i are pairwise coprime
and coprime to k.  (At shared positions each pair merges to 1/k first.)
Positions with pairwise coprime denominators (1/p over the first 5,000
primes p) make ``pscale`` their product likewise.  So both forms are built
under the one stored-form ceiling (``_rational`` module docstring), the
positions' first: past it, construction raises ``ResourceCapError`` before
any position int or weight exists.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, islice
from math import gcd, lcm
from operator import floordiv, itemgetter, lt
from typing import Iterable, NamedTuple

from ._rational import (
    ONE, ZERO, JsonFile, _build, _reduce, format_fraction, fraction_text, to_at_most_one,
    to_fraction,
)
from .errors import ValidationError, VerificationError

__all__ = [
    "DiscreteMeasure",
    "PartialDiameter",
    "PdProfile",
    "partial_diameter",
    "pd_profile",
    "push_forward",
]

SWEEP_BITS = 512  # the quadratic sweeps key on pscale while it has at most this many bits


def floor_bits(pscale: int, xs: tuple, ys: tuple) -> int:
    """0 when a sweep over the differences y - x, x in ``xs`` and y in
    ``ys`` (positions on the scale ``pscale``), keys them on ``pscale``;
    else the B of the scale 2^B on which it keys them rounded down (module
    docstring, fact 5), when that is shorter than pscale."""
    if pscale.bit_length() <= SWEEP_BITS:
        return 0
    bound = max(x.denominator for x in xs) * max(y.denominator for y in ys)
    bits = 2 * bound.bit_length() + 1
    return bits if bits < pscale.bit_length() else 0


def unfloor(key: int, bits: int) -> Fraction:
    """The difference whose key on 2^``bits`` is ``key`` (module docstring,
    fact 5)."""
    return Fraction(key, 1 << bits).limit_denominator(1 << (bits >> 1))


def scaled_level(alpha: Fraction, scale: int) -> int:
    """ceil(alpha * scale): a weight sum reaches mass ``alpha`` exactly when
    it reaches this integer (module docstring, fact 1)."""
    return -(-alpha.numerator * scale // alpha.denominator)


def minimal_heavy_windows(weights, level) -> list:
    """``(i, j)`` for each minimal heavy window ``weights[i : j + 1]``: one
    whose sum reaches ``level`` while ``weights[i + 1 : j + 1]`` and
    ``weights[i : j]`` do not.  Both i and j strictly increase along the
    list, which is empty when the total stays below ``level``.

    One two-pointer sweep, for positive weights and a positive level: for
    each right end j the left end i moves up as far as the window stays
    heavy, and never backs up, since the weights are positive.  That gives
    the shortest heavy window ``[i, j]`` ending at j, so ``[i + 1, j]`` is
    light.  ``[i, j - 1]`` is heavy exactly when the shortest heavy window
    ending at j - 1 starts at i too (it cannot start later).  A window
    skipped as not minimal has the start of the one before it, so the
    window at j is minimal exactly when i exceeds ``last``, the last start
    kept.  Every heavy window holds a minimal one: drop end weights while
    it stays heavy.
    """
    windows = []
    acc = i = 0
    last = -1
    for j, weight in enumerate(weights):
        acc += weight
        if acc < level:
            continue
        while acc - weights[i] >= level:
            acc -= weights[i]
            i += 1
        if i > last:
            windows.append((i, j))
            last = i
    return windows


class DiscreteMeasure(JsonFile):
    """A probability measure with finitely many atoms on the rational line.

    Atoms are stored canonically, as positions and integer weights (module
    docstring): positions strictly increasing, equal input positions merged
    by summing their masses, every mass positive, and the masses summing to
    exactly 1.
    """

    __slots__ = ("_positions", "_pscale", "_ints", "_scale", "_weights")

    def __init__(self, atoms: Iterable[tuple, ]):
        # one slot per distinct position, keyed by its integer pair, which
        # hashes in C; slot k holds positions[k] and the mass nums[k]/dens[k]
        index: dict[tuple, int] = {}
        positions: list = []
        nums: list = []
        dens: list = []
        get = index.get
        for pos, mass in atoms:
            if not isinstance(pos, Fraction):
                pos = to_fraction(pos, what="atom position")
            if not isinstance(mass, Fraction):
                mass = to_fraction(mass, what="atom mass")
            num, den = mass.as_integer_ratio()
            if num <= 0:  # the denominator is positive
                raise ValidationError(
                    f"atom mass must be positive, got {fraction_text(mass)} "
                    f"at {fraction_text(pos)}"
                )
            key = pos.as_integer_ratio()
            slot = get(key)
            if slot is None:
                index[key] = len(positions)
                positions.append(pos)
                nums.append(num)
                dens.append(den)
            elif dens[slot] == den:
                nums[slot] += num
            else:
                # reduce at once: unreduced sums of coprime denominators grow
                # with every merge
                old = dens[slot]
                common = lcm(old, den)
                total = nums[slot] * (common // old) + num * (common // den)
                g = gcd(total, common)
                nums[slot], dens[slot] = total // g, common // g
        if not positions:
            raise ValidationError("a measure needs at least one atom")
        self._store(index, positions, nums, dens)

    def _store(self, index: dict, positions: list, nums: list, dens: list) -> None:
        """Store the measure with one atom per slot k: position
        ``positions[k]`` with mass ``nums[k] / dens[k]``, where ``index``
        maps each position's integer pair to its slot, in slot order.

        The one finisher of every measure: it builds the positions' stored
        form ``(pscale, ints)`` from ``index``'s keys, reduces each mass and
        builds the masses' ``(scale, weights)``, each under the stored-form
        ceiling (``_rational._build``), checks that the masses sum to 1, and
        sorts the atoms by their integer positions (module docstring, facts
        3 and 4).  It empties ``index`` and frees each list once it is
        read.
        """
        n = len(positions)
        pnums = list(map(itemgetter(0), index))  # the integer pairs, in slot order
        pdens = list(map(itemgetter(1), index))
        index.clear()  # its table is the largest object here; the ints come next
        pscale, ints = _build(
            pnums, pdens, "atoms with a common position denominator", "integer-position"
        )
        del pnums, pdens
        divisors = list(map(gcd, nums, dens))
        scale, weights = _build(
            map(floordiv, nums, divisors), list(map(floordiv, dens, divisors)),
            "atoms with a common mass denominator", "integer-weight",
        )
        del nums, dens, divisors
        total = sum(weights)
        if total != scale:
            raise ValidationError(
                f"atom masses must sum to 1 exactly, got {fraction_text(Fraction(total, scale))}"
            )
        # distinct positions give distinct ints in the same order (fact 3)
        order = sorted(range(n), key=ints.__getitem__)
        self._positions = tuple(map(positions.__getitem__, order))
        self._pscale = pscale
        ints = list(map(ints.__getitem__, order))
        self._ints = array("q", ints) if -(1 << 63) <= ints[0] and ints[-1] < 1 << 63 else tuple(ints)
        self._scale = scale
        self._weights = tuple(map(weights.__getitem__, order))

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
        """``(position, mass)`` pairs, built from the weights on each call."""
        return tuple(zip(self._positions, self.masses))

    @property
    def positions(self) -> tuple:
        return self._positions

    @property
    def masses(self) -> tuple:
        """The masses ``w / scale``, built from the weights on each call."""
        scale = self._scale
        return tuple(Fraction(w, scale) for w in self._weights)

    @property
    def scaled_positions(self) -> tuple:
        """``(pscale, ints)``: the positions times their least common
        denominator ``pscale``, a strictly increasing read-only sequence of
        ints (a view of the stored 64-bit array when all fit one, else a
        tuple)."""
        ints = self._ints
        return self._pscale, memoryview(ints).toreadonly() if type(ints) is array else ints

    @property
    def scaled_masses(self) -> tuple:
        """``(scale, weights)``: the masses times their least common
        denominator ``scale``, as a tuple of ints summing to ``scale``."""
        return self._scale, self._weights

    def __len__(self) -> int:
        return len(self._positions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        # canonical (module docstring, fact 4): equal atoms, equal tuples
        return self._positions == other._positions and self._weights == other._weights

    def __hash__(self) -> int:
        return hash((self._positions, self._weights))

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{m}" for p, m in self.atoms)
        return f"DiscreteMeasure({inner})"

    def mass_of_interval(self, lo, hi) -> Fraction:
        """Mass of the closed interval [lo, hi]; 0 when lo > hi."""
        lo = to_fraction(lo, what="interval end")
        hi = to_fraction(hi, what="interval end")
        # positions are in exact order (module docstring, fact 3), so the
        # atoms inside are one slice; it is empty when lo > hi
        positions = self._positions
        inside = self._weights[bisect_left(positions, lo) : bisect_right(positions, hi)]
        return Fraction(sum(inside), self._scale)

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "atoms": [
                {"pos": format_fraction(p), "mass": format_fraction(m)}
                for p, m in self.atoms
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

    The value is the least width over the minimal heavy windows of atoms
    (``minimal_heavy_windows``; every heavy window holds one, no wider), and
    the reported window is the first of least width.  It is also the first
    least-width window among the shortest heavy windows ending at each atom:
    if that one, ending at j, were not minimal, the window ending at j - 1
    would have the same start and be strictly narrower, since positions
    strictly increase.  Widths are differences of the stored integer
    positions, all on the one scale ``pscale``, so they compare as plain
    ints.
    """
    alpha = to_at_most_one(alpha, what="alpha")
    if alpha.numerator <= 0:  # the denominator is positive
        return PartialDiameter(ZERO, None)
    windows = minimal_heavy_windows(mu._weights, scaled_level(alpha, mu._scale))
    if not windows:  # unreachable: the total weight scale reaches the level
        raise VerificationError(f"no window reaches mass {fraction_text(alpha)}")
    ints = mu._ints
    widths = [ints[j] - ints[i] for i, j in windows]
    best = min(widths)
    i, j = windows[widths.index(best)]  # the first of least width
    positions = mu._positions
    return PartialDiameter(Fraction(best, mu._pscale), (positions[i], positions[j]))


class PdProfile:
    """The full map alpha -> partial diameter, as an exact step function.

    ``steps`` is a tuple of (threshold, value) pairs with both coordinates
    strictly increasing and the last threshold equal to 1; the function takes
    ``value`` on the half-open interval (previous threshold, threshold].  That
    shape makes the profile nondecreasing and left-continuous by construction.

    The thresholds are stored as integer levels on one scale, threshold k
    being ``levels[k] / scale`` with ``scale`` the lcm of the reduced
    threshold denominators (module docstring, fact 6).  ``steps``
    builds the threshold Fractions from the levels on each call.
    """

    __slots__ = ("_scale", "_levels", "_values")

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
        self._scale, levels = _build(
            [t.numerator for t, _ in steps], [t.denominator for t, _ in steps],
            "steps with a common threshold denominator", "integer-level",
        )
        self._levels = tuple(levels)
        self._values = tuple(v for _, v in steps)

    @classmethod
    def _on_scale(cls, scale: int, levels: list, keys: list, values: list) -> "PdProfile":
        """The profile with thresholds ``levels[k] / scale`` and values
        ``values[k]``, where ``keys[k]`` is value k's integer key (a width on
        ``pscale`` or its floor on 2^B, which orders as the value does).
        ``__init__``'s checks, on the ints: the last level is ``scale``, and
        the levels strictly increase from above 0 and the keys from 0."""
        reached = levels[-1] if levels else 0
        if reached != scale:
            raise VerificationError(
                f"profile steps reach mass {fraction_text(Fraction(reached, scale))}, not 1"
            )
        if not (all(map(lt, [0, *levels], levels)) and all(map(lt, [-1, *keys], keys))):
            raise VerificationError("profile steps must strictly increase")
        profile = cls.__new__(cls)
        profile._scale, profile._levels = _reduce(scale, levels)
        profile._values = tuple(values)
        return profile

    @property
    def steps(self) -> tuple:
        """The (threshold, value) pairs, built from the levels on each call."""
        scale = self._scale
        return tuple((Fraction(level, scale), v) for level, v in zip(self._levels, self._values))

    def evaluate(self, alpha) -> Fraction:
        """The value of the first step whose threshold is at least ``alpha``:
        a threshold level / scale is at least alpha exactly when the level
        reaches ``scaled_level(alpha, scale)`` (module docstring, fact 1)."""
        alpha = to_at_most_one(alpha, what="alpha")
        if alpha.numerator <= 0:  # the denominator is positive
            return ZERO
        return self._values[bisect_left(self._levels, scaled_level(alpha, self._scale))]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PdProfile):
            return NotImplemented
        # canonical (fact 6), and the last level is the scale: equal steps,
        # equal levels and values
        return self._levels == other._levels and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._levels, self._values))

    def __repr__(self) -> str:
        inner = ", ".join(f"({t}] -> {v}" for t, v in self.steps)
        return f"PdProfile({inner})"


def pd_profile(mu: DiscreteMeasure) -> PdProfile:
    """Exact profile of all partial diameters of ``mu``.

    Every candidate value is the width of some window of atoms.  The profile
    is the lower staircase of (window width, window mass) pairs: sort widths
    ascending, keep each one only while it raises the best reachable mass.
    Widths are integer keys, differences of the integer positions or, on a
    long ``pscale``, their floors on 2^B (module docstring, fact 5), and
    masses are integer weight sums, so the windows are keyed, compared and
    sorted as ints, and the kept masses are the profile's levels on the
    measure's ``scale``; Fractions are built for the kept values only.
    """
    scale, weights, pscale, positions = mu._scale, mu._weights, mu._pscale, mu._positions
    bits = floor_bits(pscale, positions, positions)
    prefix = list(accumulate(weights, initial=0))
    best_mass: dict[int, int] = {}
    get = best_mass.get
    if bits:
        # the key of c/d - a/b, from the integer pairs of the window's ends
        pairs = [p.as_integer_ratio() for p in positions]
        for i, ((a, b), below) in enumerate(zip(pairs, prefix)):
            for (c, d), above in zip(islice(pairs, i, None), islice(prefix, i + 1, None)):
                width, mass = ((c * b - a * d) << bits) // (d * b), above - below
                if get(width, 0) < mass:
                    best_mass[width] = mass
    else:
        ints = tuple(mu._ints)  # read n/2 times each: an array would make an int per read
        for i, (x, below) in enumerate(zip(ints, prefix)):
            for y, above in zip(islice(ints, i, None), islice(prefix, i + 1, None)):
                width, mass = y - x, above - below
                if get(width, 0) < mass:
                    best_mass[width] = mass
    levels, keys = [], []
    reached = 0
    for width in sorted(best_mass):
        mass = best_mass[width]
        if mass > reached:
            levels.append(mass)
            keys.append(width)
            reached = mass
    values = [unfloor(key, bits) for key in keys] if bits else [Fraction(key, pscale) for key in keys]
    return PdProfile._on_scale(scale, levels, keys, values)


def push_forward(mu: DiscreteMeasure, f) -> DiscreteMeasure:
    """Image measure of ``mu`` under ``f`` (any exact callable, e.g. a
    PiecewiseLinearMap).  Atoms landing on the same point share a slot and
    add their integer weights over the source's ``scale``; the slots then go
    through the constructor's finisher ``_store``, which reduces, scales,
    checks and sorts them."""
    scale, weights = mu.scaled_masses
    index: dict[tuple, int] = {}  # slots as in the constructor
    positions: list = []
    nums: list = []
    get = index.get
    for pos, weight in zip(mu.positions, weights):
        image = to_fraction(f(pos), what="image position")
        key = image.as_integer_ratio()
        slot = get(key)
        if slot is None:
            index[key] = len(positions)
            positions.append(image)
            nums.append(weight)
        else:
            nums[slot] += weight
    measure = DiscreteMeasure.__new__(DiscreteMeasure)
    measure._store(index, positions, nums, [scale] * len(positions))
    return measure
