"""Exact rational coercion and rendering helpers.

All public entry points of the package funnel numeric input through
``to_fraction`` so that arithmetic stays exact end to end.  Floats are
rejected on purpose: a literal like 0.3 is not the rational 3/10 once it
has been through binary floating point.  Pass "3/10", "0.3" (string), an
int, or a Fraction instead.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction

from .errors import DomainError, ValidationError

__all__ = ["to_fraction", "format_fraction", "render_decimal"]


def to_fraction(value, *, what: str = "value") -> Fraction:
    """Coerce ``value`` to an exact Fraction, refusing lossy inputs."""
    if isinstance(value, bool):
        raise DomainError(f"{what} must be a rational number, got a bool")
    if isinstance(value, float):
        raise DomainError(
            f"{what} must be exact; pass a Fraction, an int, or a string "
            f"like '3/10' instead of the float {value!r}"
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            # Fraction parses both "3/4" and decimal strings like "0.75" exactly.
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse {what} from {value!r}: {exc}") from exc
    raise DomainError(f"{what} must be rational, got {type(value).__name__}")


def format_fraction(value: Fraction) -> str:
    """Canonical string form: '3/4', '-2', '0'."""
    return str(value)


def render_decimal(value: Fraction, digits: int = 9) -> str:
    """Human-oriented decimal rendering; display only, never fed back in.

    Values inside the float range render through ``float``.  Values past it,
    which would overflow or flush to zero, are divided out in ``Decimal`` at
    ``digits`` significant digits instead, so every Fraction renders.
    """
    try:
        approx = float(value)
    except OverflowError:
        approx = None
    if approx is None or (approx == 0 and value != 0):
        context = Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)
        quotient = context.divide(Decimal(value.numerator), Decimal(value.denominator))
        approx = quotient.normalize(context)  # drop trailing zeros, as float's "g" does
    return format(approx, f".{digits}g")
