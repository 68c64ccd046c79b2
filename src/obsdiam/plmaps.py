"""Continuous piecewise-linear maps of the line with exact rational data.

A map is stored as its slope-change knots (x, value) plus the two ray slopes
beyond the first and last knot.  Interior slopes are derived from consecutive
knots, so continuity holds by construction and never needs repair.  The
constructor canonicalizes: knots that do not change the slope are dropped,
and a map with no slope change at all (an affine map) is normalized to the
single anchor knot (0, f(0)).  Two equal functions therefore compare equal.

Evaluation runs on integers.  Knots x_0 < ... < x_{m-1} cut the line into
m + 1 affine pieces: the left ray up to x_0, the interior pieces
[x_i, x_{i+1}], and the right ray from x_{m-1}.  The constructor stores each
piece's line y = (p/q) x + r/t as four integers (p, q, r, t) with q, t > 0:
p/q is the piece's slope and r/t = y_i - (p/q) x_i for a knot (x_i, y_i) at
an end of the piece (x_0 for the left ray, x_i for [x_i, x_{i+1}], x_{m-1}
for the right ray), so the line passes through that knot with the piece's
slope and equals the map on the whole piece.  ``__call__`` writes the
argument as x = a/b with b > 0 and finds k, the number of knots at or left
of x, by a binary search.  Knot u/v (v > 0) is at or left of x exactly when
u * b <= a * v: multiplying both sides of u/v <= a/b by the positive v * b
keeps every comparison.  Line k belongs to the piece from x_{k-1} to x_k
(unbounded at k = 0 and k = m), which holds x, so
f(x) = p a / (q b) + r / t = (p a t + r q b) / (q t b), one Fraction of
integers, with the positive denominator q t b.  At a knot both neighbouring
lines give the knot's value, by continuity, so the choice of line there
does not matter.

Composition is symbolic.  ``outer.after(inner)`` collects the knots of the
inner map together with every point where the inner map crosses a knot value
of the outer map; between consecutive collected points both maps are affine,
so the result is again an exact PiecewiseLinearMap.  No sampling is involved.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from ._rational import ZERO, JsonFile, format_fraction, to_fraction
from .errors import ValidationError

__all__ = ["PiecewiseLinearMap"]


class PiecewiseLinearMap(JsonFile):
    __slots__ = ("_xs", "_ys", "_left", "_right", "_mids", "_pairs", "_lines")

    def __init__(self, knots: Iterable[tuple], slope_left, slope_right):
        pts = [
            (to_fraction(x, what="knot x"), to_fraction(y, what="knot value"))
            for x, y in knots
        ]
        if not pts:
            raise ValidationError("a piecewise-linear map needs at least one knot")
        left = to_fraction(slope_left, what="slope")
        right = to_fraction(slope_right, what="slope")
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if x1 <= x0:
                raise ValidationError("knot x coordinates must strictly increase")
        xs, ys, mids = _canonicalize(pts, left, right)
        self._xs = xs
        self._ys = ys
        self._mids = mids
        self._left = left
        self._right = right
        # integer forms for __call__ (module docstring): each knot's x as
        # (u, v), and one line (p, q, r, t), y = (p/q) x + r/t, per piece
        self._pairs = tuple(x.as_integer_ratio() for x in xs)
        self._lines = tuple(
            (*slope.as_integer_ratio(), *(y - slope * x).as_integer_ratio())
            for slope, x, y in zip((left, *mids, right), (xs[0], *xs), (ys[0], *ys))
        )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def affine(cls, slope, intercept) -> "PiecewiseLinearMap":
        """x -> slope * x + intercept."""
        slope = to_fraction(slope, what="slope")
        intercept = to_fraction(intercept, what="intercept")
        return cls([(ZERO, intercept)], slope, slope)

    @classmethod
    def constant(cls, value) -> "PiecewiseLinearMap":
        return cls.affine(0, value)

    @classmethod
    def identity(cls) -> "PiecewiseLinearMap":
        return cls.affine(1, 0)

    # -- basic queries ----------------------------------------------------------

    @property
    def knots(self) -> tuple:
        return tuple(zip(self._xs, self._ys))

    def slopes(self) -> tuple:
        """All slopes left to right: ray, interior segments, ray."""
        return (self._left, *self._mids, self._right)

    def __call__(self, x) -> Fraction:
        """f(x) on the integer line of the piece that holds x (module
        docstring)."""
        a, b = to_fraction(x, what="argument").as_integer_ratio()
        pairs = self._pairs
        # lo = the number of knots at or left of x, each u/v <= a/b tested as
        # a * v >= u * b; line lo is the piece from knot lo - 1 to knot lo
        lo, hi = 0, len(pairs)
        while lo < hi:
            mid = (lo + hi) // 2
            u, v = pairs[mid]
            if a * v < u * b:
                hi = mid
            else:
                lo = mid + 1
        p, q, r, t = self._lines[lo]
        return Fraction(p * a * t + r * q * b, q * t * b)

    def is_one_lipschitz(self) -> bool:
        """Every slope p/q (q > 0, from the integer lines) has |p/q| <= 1,
        that is -q <= p <= q."""
        return all(-q <= p <= q for p, q, _, _ in self._lines)

    def bounds(self) -> tuple:
        """(inf, sup) of the range; an unbounded side is reported as None."""
        lo: Fraction | None = min(self._ys)
        hi: Fraction | None = max(self._ys)
        if self._left > 0 or self._right < 0:
            lo = None
        if self._left < 0 or self._right > 0:
            hi = None
        return (lo, hi)

    # -- composition --------------------------------------------------------------

    def after(self, inner: "PiecewiseLinearMap") -> "PiecewiseLinearMap":
        """The composite x -> self(inner(x)), computed symbolically."""
        if not isinstance(inner, PiecewiseLinearMap):
            raise ValidationError("after() composes two PiecewiseLinearMap values")
        candidates = set(inner._xs)
        for c in self._xs:
            for lo, hi, slope, x_ref, y_ref in inner._pieces():
                if slope == 0:
                    continue  # constant piece: no crossing interior to it
                x_star = x_ref + (c - y_ref) / slope
                if (lo is None or x_star >= lo) and (hi is None or x_star <= hi):
                    candidates.add(x_star)
        xs = sorted(candidates)
        knots = [(x, self(inner(x))) for x in xs]
        left = _ray_slope(self, inner._left, leftward=True)
        right = _ray_slope(self, inner._right, leftward=False)
        return PiecewiseLinearMap(knots, left, right)

    def _pieces(self):
        """Affine pieces as (lo, hi, slope, x_ref, y_ref); None = unbounded end."""
        xs, ys = self._xs, self._ys
        yield (None, xs[0], self._left, xs[0], ys[0])
        for i, slope in enumerate(self._mids):
            yield (xs[i], xs[i + 1], slope, xs[i], ys[i])
        yield (xs[-1], None, self._right, xs[-1], ys[-1])

    # -- serialization --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        # Breakpoints are the slope-change points; the base point pins values.
        if len(self._xs) == 1 and self._left == self._right:
            breakpoints: list[str] = []
            slopes = [format_fraction(self._left)]
        else:
            breakpoints = [format_fraction(x) for x in self._xs]
            slopes = [format_fraction(s) for s in self.slopes()]
        return {
            "breakpoints": breakpoints,
            "slopes": slopes,
            "base_x": format_fraction(self._xs[0]),
            "base_y": format_fraction(self._ys[0]),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PiecewiseLinearMap":
        try:
            raw_bps = payload["breakpoints"]
            raw_slopes = payload["slopes"]
            base_x = to_fraction(payload["base_x"], what="base_x")
            base_y = to_fraction(payload["base_y"], what="base_y")
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed piecewise-linear map payload: {exc}") from exc
        if not (isinstance(raw_bps, list) and isinstance(raw_slopes, list)):
            raise ValidationError("breakpoints and slopes must be lists")
        bps = [to_fraction(b, what="breakpoint") for b in raw_bps]
        slopes = [to_fraction(s, what="slope") for s in raw_slopes]
        if len(slopes) != len(bps) + 1:
            raise ValidationError("need exactly one slope per piece (breakpoints + 1)")
        if not bps:
            return cls([(base_x, base_y)], slopes[0], slopes[0])
        # Integrate slopes away from the base point to recover knot values.
        if base_x != bps[0]:
            raise ValidationError("base point must sit on the first breakpoint")
        knots = [(bps[0], base_y)]
        y = base_y
        for i in range(1, len(bps)):
            y = y + slopes[i] * (bps[i] - bps[i - 1])
            knots.append((bps[i], y))
        return cls(knots, slopes[0], slopes[-1])

    # -- dunder ----------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseLinearMap):
            return NotImplemented
        return (
            self._xs == other._xs
            and self._ys == other._ys
            and self._left == other._left
            and self._right == other._right
        )

    def __hash__(self) -> int:
        return hash((self._xs, self._ys, self._left, self._right))

    def __repr__(self) -> str:
        pts = ", ".join(f"({x},{y})" for x, y in self.knots)
        return f"PiecewiseLinearMap([{pts}], left={self._left}, right={self._right})"


def _canonicalize(pts, left, right):
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    mids = [
        (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(pts) - 1)
    ]
    slopes = [left, *mids, right]
    keep = [i for i in range(len(pts)) if slopes[i] != slopes[i + 1]]
    if not keep:
        # Affine map: anchor it at x = 0 so equal functions compare equal.
        value_at_zero = ys[0] + left * (ZERO - xs[0])
        return (ZERO,), (value_at_zero,), ()
    xs2 = tuple(xs[i] for i in keep)
    ys2 = tuple(ys[i] for i in keep)
    # A dropped knot continues its left neighbour's slope, so the kept segment
    # starting at knot keep[k] has slope mids[keep[k]] all the way across.
    return xs2, ys2, tuple(mids[i] for i in keep[:-1])


def _ray_slope(outer: PiecewiseLinearMap, inner_slope: Fraction, *, leftward: bool):
    """Slope of outer∘inner on the far left (or right) ray."""
    if inner_slope == 0:
        return ZERO
    heads_down = (inner_slope > 0) == leftward
    # inner tends to -inf on this ray iff heads_down; pick outer's matching ray.
    outer_slope = outer._left if heads_down else outer._right
    return outer_slope * inner_slope
