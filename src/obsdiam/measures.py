"""Finitely supported probability measures on the line and their partial diameters.

The partial diameter of a measure at level ``alpha`` is the smallest diameter
of a Borel set carrying mass at least ``alpha``.  For a finite measure on the
line an optimal set can always be taken to be a closed interval, so the value
is the width of the cheapest contiguous window of atoms whose mass reaches the
level.  Everything here is exact: positions and results are
``fractions.Fraction``, and masses are exact integer weights.

Stored form.  A measure stores its sorted positions and
``scaled_masses = (scale, weights)``: ``scale`` is the least common multiple
of the mass denominators and ``weights[k] = masses[k] * scale``, integers
summing to ``scale``.  ``masses`` and ``atoms`` build their Fractions
``w / scale`` from the weights on each call.  Every measure is built one
way: the constructor and ``push_forward`` give each distinct position a slot,
found through a dict keyed by the position's integer pair
``p.as_integer_ratio()``, which hashes and compares in C where a Fraction
does not.  The slots live in three flat lists, ``positions``, ``nums`` and
``dens``: slot k holds the total mass at ``positions[k]`` as the integer
fraction ``nums[k] / dens[k]``; flat lists of ints, rather than one list
per position, keep the finisher's passes short.  One finisher,
``DiscreteMeasure._store``, reduces, scales, sorts and stores the slots.  The
sweeps below add and compare the weights instead of Fractions, and build a
Fraction only for what they return.  Three facts make that exact, and a
fourth makes the stored form canonical.

1. Levels.  A set of atoms with weight sum ``acc`` has mass acc / scale, so
   its mass reaches ``alpha`` exactly when acc >= alpha * scale.  As acc is
   an integer, that holds exactly when acc >= ceil(alpha * scale), computed
   as ``-(-alpha.numerator * scale // alpha.denominator)`` on integers.
2. Widths.  For positions p = a/b and q = c/d with b, d > 0 the width is
   q - p = (c*b - a*d) / (b*d), a numerator over a positive denominator.  Two
   such widths u/v and x/y compare as u*y and x*v do, since multiplying both
   sides by v*y > 0 keeps the order.
3. Order.  Atoms are sorted on float(p), the float key
   ``_float_key(a, b)`` of the position's integer pair p = a/b, b > 0,
   computed once per slot from the dict's keys.  Integer true division
   rounds correctly, and correct rounding is monotone: p < q gives
   float(p) <= float(q).  A position past the float range raises
   ``OverflowError`` and is keyed +-inf, which keeps that order, since a
   value that overflows upward exceeds every value that converts, and
   likewise downward.  So float(p) < float(q) implies p < q: were q <= p,
   monotonicity would give float(q) <= float(p).  The finisher sorts the
   slot indices once by float(p) and then compares adjacent keys.  If they
   strictly increase, each adjacent pair of positions strictly increases by
   that implication, so the positions are in exact order after the one
   sort.  If two keys are equal (say 2^60 and 2^60 + 1, two positions that
   underflow to 0.0 or -0.0, or two past the float range), the float sort
   alone can be wrong: a sort is stable, so positions with equal floats
   keep their slot order, and 2^60 + 1 given before 2^60 would stay
   before it.  Only then does the finisher sort again by the key
   (float(p), p), which gives the exact order from any input order: equal
   floats fall through to the exact comparison of p and q.  ``pd_profile``
   sorts its widths, and ``prokhorov`` its stops, by that two-part key.
4. Canonical form.  On every path ``scale`` is the lcm of the reduced
   slot denominators.  Each slot holds the exact total mass at its
   position as an integer fraction: the constructor adds a mass with the
   slot's denominator to its numerator, and one with another denominator
   on the lcm of the two, reduced by their gcd at once so that the integers
   stay as short as the Fraction sum would be; ``push_forward`` adds the
   source weights at an image point over the source's ``scale``.  The
   finisher reduces each slot by one gcd and takes the lcm of the reduced
   denominators.  So ``scale`` is a function of the masses, and so are the
   weights, masses times ``scale``.  Two measures therefore have equal
   atoms exactly when they have equal positions and weights (the weights
   give back ``scale`` as their sum, hence the masses), whichever path built
   them; ``__eq__`` and ``__hash__`` read those two tuples, so equal
   measures hash equal, as a set or dict key needs.

Each weight is at most ``scale``, so the view costs n integers no larger
than ``scale``.  With a shared mass denominator, as in ``uniform``, ``scale``
is that denominator.  Masses whose denominators share few factors can make
``scale`` long even when every running Fraction total of them is short: the
k pairs 1/(k*d_i) and (d_i - 1)/(k*d_i) at 2k distinct positions sum to 1,
yet ``scale`` is k*d_1*...*d_k when the d_i are pairwise coprime and
coprime to k.  (At shared positions each pair merges to 1/k first.)  So n
times the bit length of ``scale`` has a fixed ceiling of
2^``WEIGHT_CEILING`` bits, checked as ``scale`` is built and before any
weight exists; past it construction raises ``ResourceCapError``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, islice
from math import gcd, inf, lcm
from operator import eq, floordiv
from typing import Iterable, NamedTuple

from ._rational import (
    ONE, ZERO, JsonFile, format_fraction, fraction_text, to_at_most_one, to_fraction,
)
from .errors import ResourceCapError, ValidationError, VerificationError

__all__ = [
    "DiscreteMeasure",
    "PartialDiameter",
    "PdProfile",
    "partial_diameter",
    "pd_profile",
    "push_forward",
]

WEIGHT_CEILING = 28  # 2^28 bits of integer weights, 32 MiB; 10^5 atoms need about 2^21


def _float_key(num: int, den: int) -> float:
    """The correctly rounded float of ``num / den`` (``den > 0``), or +-inf
    past the float range: a sort key that keeps the exact order (module
    docstring, fact 3)."""
    try:
        return num / den
    except OverflowError:
        return inf if num > 0 else -inf


def _order_key(pair: tuple) -> tuple:
    """Sort key of a pair by its first entry, a rational, in exact order
    (module docstring, fact 3)."""
    p = pair[0]
    return _float_key(p.numerator, p.denominator), p


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

    __slots__ = ("_positions", "_scale", "_weights")

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

        The one finisher of every measure: it reduces each mass, sets
        ``scale`` to the lcm of the reduced denominators under the weight
        ceiling, checks that the masses sum to 1 and sorts the atoms into
        exact order (module docstring, facts 3 and 4).  It computes the float
        keys from ``index``'s keys and sorts the slots once by them.  Where
        the sorted keys strictly increase, so do the positions, as float(p) <
        float(q) implies p < q; so only when two adjacent keys are equal does
        it sort again, by (float key, position), which is exact from any
        order.  It empties ``index`` and frees each list once it is read.
        """
        floats = [_float_key(a, b) for a, b in index]
        index.clear()  # free the keys before the sort
        divisors = list(map(gcd, nums, dens))
        nums = list(map(floordiv, nums, divisors))
        dens = list(map(floordiv, dens, divisors))
        del divisors
        n = len(positions)
        scale = 1
        for den in set(dens):
            scale = lcm(scale, den)
            if n * scale.bit_length() > 1 << WEIGHT_CEILING:
                raise ResourceCapError(
                    f"{n} atoms with a common mass denominator of {scale.bit_length()} or "
                    f"more bits exceed the integer-weight ceiling of 2^{WEIGHT_CEILING} bits"
                )
        weights = [num * (scale // den) for num, den in zip(nums, dens)]  # mass times scale
        del nums, dens
        total = sum(weights)
        if total != scale:
            raise ValidationError(
                f"atom masses must sum to 1 exactly, got {fraction_text(Fraction(total, scale))}"
            )
        # strictly increasing float keys give the exact order; only a tie
        # needs the exact key (module docstring, fact 3)
        order = sorted(range(n), key=floats.__getitem__)
        ordered = list(map(floats.__getitem__, order))
        if any(map(eq, ordered, islice(ordered, 1, None))):
            order.sort(key=lambda k: (floats[k], positions[k]))
        del floats, ordered
        self._positions = tuple(map(positions.__getitem__, order))
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
    strictly increase.  Widths compare by cross-multiplication.
    """
    alpha = to_at_most_one(alpha, what="alpha")
    if alpha <= 0:
        return PartialDiameter(ZERO, None)
    positions = mu.positions
    scale, weights = mu.scaled_masses
    best: tuple | None = None  # (numerator, positive denominator) of the best width
    window: tuple | None = None
    for i, j in minimal_heavy_windows(weights, scaled_level(alpha, scale)):
        a, b = positions[i].as_integer_ratio()
        c, d = positions[j].as_integer_ratio()
        num = c * b - a * d
        den = d * b
        if best is None or num * best[1] < best[0] * den:
            best = (num, den)
            window = (positions[i], positions[j])
    if best is None:  # unreachable: the total weight scale reaches the level
        raise VerificationError(f"no window reaches mass {fraction_text(alpha)}")
    return PartialDiameter(Fraction(*best), window)


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
        alpha = to_at_most_one(alpha, what="alpha")
        if alpha <= 0:
            return ZERO
        # (alpha,) sorts before every step (alpha, v), so this is the first
        # step whose threshold is at least alpha
        return self._steps[bisect_left(self._steps, (alpha,))][1]

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
    Widths are keyed by their reduced (numerator, denominator) pair and
    masses are integer weight sums; Fractions are built for the distinct
    widths and the kept masses only.
    """
    positions = mu.positions
    scale, weights = mu.scaled_masses
    n = len(positions)
    nums = [p.numerator for p in positions]
    dens = [p.denominator for p in positions]
    prefix = list(accumulate(weights, initial=0))
    best_mass: dict[tuple, int] = {}
    get = best_mass.get
    for i in range(n):
        num_i, den_i, below = nums[i], dens[i], prefix[i]
        for j in range(i, n):
            num = nums[j] * den_i - num_i * dens[j]
            den = dens[j] * den_i
            g = gcd(num, den)
            width = (num // g, den // g)
            mass = prefix[j + 1] - below
            if get(width, 0) < mass:
                best_mass[width] = mass
    steps = []
    reached = 0
    for width, mass in sorted(
        ((Fraction(*width), mass) for width, mass in best_mass.items()), key=_order_key
    ):
        if mass > reached:
            steps.append((Fraction(mass, scale), width))
            reached = mass
    if reached != scale:
        raise VerificationError(
            f"profile steps reach mass {fraction_text(Fraction(reached, scale))}, not 1"
        )
    return PdProfile(steps)


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
