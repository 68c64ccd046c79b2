"""Exact rational coercion and rendering helpers, the integer stored form of
rationals, and the JSON file format.

All public entry points of the package funnel numeric input through
``to_fraction`` so that arithmetic stays exact end to end.  Floats are
rejected on purpose: a literal like 0.3 is not the rational 3/10 once it
has been through binary floating point.  Pass "3/10", "0.3" (string), an
int, or a Fraction instead.

Strings are bounded before they are parsed: ``Fraction("1e100000000")``
would build a 10^8-digit integer.  A string longer than
``MAX_TEXT_LENGTH`` characters, or with a decimal exponent beyond
``MAX_EXPONENT`` in magnitude, raises ``ResourceCapError``.  The exponent
limit matches CPython's default cap of 4300 digits on int-string
conversion, which already bounds the written digits, so an exponent adds no
more digits than a written-out number could carry; ``1e400`` is accepted.

The range checks ``to_open_unit``, ``to_positive`` and ``to_at_most_one``
compare the integer pair of the value, never two Fractions: a Fraction
num/den has den > 0, so it is positive exactly when num > 0, below 1 exactly
when num < den, and above 1 exactly when num > den.  A Fraction comparison
goes through the ``numbers.Rational`` checks, several times the cost of the
integer one, and the checks run on every level a public function takes.

Stored forms.  Every type that stores numbers (a space's masses and
distances, a witness's values, a measure's positions and masses, a
profile's thresholds) stores them as ``(scale, ints)``: ``scale`` is the
lcm L of the numbers' reduced denominators and ``ints[k]`` is number k
times L.  Three helpers own that form.  ``_build`` makes it from the
numerators and denominators in lowest terms, ``_reduce`` brings integers
over any positive denominator to it, and ``_rescale`` puts its ints on a
multiple of ``scale``.

The form is canonical: L, and so each int, is a function of the numbers
alone, so two stored forms are equal exactly when their numbers are.
Integers ``k_1, ..., k_n`` over a positive D, the numbers ``k_i / D``, come
to it by dividing D and every k_i by ``g = gcd(D, k_1, ..., k_n)``.  Write
``D' = D / g`` and ``k'_i = k_i / g``, so that
``gcd(D', k'_1, ..., k'_n) = 1``.  The reduced denominator of
``k'_i / D'`` is ``q_i = D' / gcd(D', k'_i)``, which divides D', so L
divides D'.  Conversely, let p^e be the exact power of a prime p in D'.
Not every k'_i is a multiple of p, since the gcd is 1, and for such an i
``gcd(D', k'_i)`` has no factor p, so p^e divides q_i and L.  Hence D'
divides L, and ``D' = L``.  In particular a scale whose ints have gcd 1
with it is L.

The form has one ceiling.  ``ints[k]`` carries up to all the bits of L
beyond those of its own numerator, so n ints cost up to n times the bit
length of L, and numbers with pairwise coprime denominators make L their
product: 1/p over the first 5,000 primes p give an L of about 70,000 bits,
and their ints about 44 MB.  So n times the bit length of L may not pass
2^``SCALE_CEILING`` bits (32 MiB; 10^5 atoms on one short scale need about
2^21).  ``_build`` checks that as L grows, before any int exists, and
raises ``ResourceCapError`` past it.
"""

from __future__ import annotations

import json
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, ResourceCapError, ValidationError

__all__ = [
    "ZERO", "ONE", "JsonFile", "read_json", "to_fraction", "to_open_unit", "to_positive",
    "to_at_most_one",
    "format_fraction", "fraction_text", "render_decimal",
]

MAX_TEXT_LENGTH = 10_000  # two 4300-digit integers, a sign and a slash fit
MAX_EXPONENT = 4300
SCALE_CEILING = 28  # count times bits of a stored form's scale, at most 2^28
DECIMAL_DIGITS = 9  # significant digits of render_decimal

ZERO = Fraction(0)
ONE = Fraction(1)


def to_fraction(value, *, what: str = "value") -> Fraction:
    """Coerce ``value`` to an exact Fraction, refusing lossy inputs."""
    if isinstance(value, Fraction):  # never a bool or a float
        return value
    if isinstance(value, bool):
        raise DomainError(f"{what} must be a rational number, got a bool")
    if isinstance(value, float):
        raise DomainError(
            f"{what} must be exact; pass a Fraction, an int, or a string "
            f"like '3/10' instead of the float {value!r}"
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if len(text) > MAX_TEXT_LENGTH:
            raise ResourceCapError(f"{what} has {len(text)} characters, over {MAX_TEXT_LENGTH}")
        _, marker, exponent = text.lower().partition("e")
        if marker:
            # int() takes every digit run that Fraction takes as an exponent;
            # text it refuses is no number, and Fraction's message names it
            try:
                exponent = int(exponent)
            except ValueError:
                exponent = 0
            if abs(exponent) > MAX_EXPONENT:
                raise ResourceCapError(f"{what} has an exponent beyond +-{MAX_EXPONENT}")
        try:
            # Fraction parses both "3/4" and decimal strings like "0.75" exactly.
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse {what} from {value!r}: {exc}") from exc
    raise DomainError(f"{what} must be rational, got {type(value).__name__}")


def to_open_unit(value, *, what: str) -> Fraction:
    """``to_fraction`` for a level that must lie strictly between 0 and 1."""
    value = to_fraction(value, what=what)
    num, den = value.as_integer_ratio()
    if not 0 < num < den:
        raise DomainError(f"{what} must lie in (0, 1), got {fraction_text(value)}")
    return value


def to_positive(value, *, what: str) -> Fraction:
    """``to_fraction`` for a quantity that must be strictly positive."""
    value = to_fraction(value, what=what)
    if value.numerator <= 0:
        raise DomainError(f"{what} must be positive, got {fraction_text(value)}")
    return value


def to_at_most_one(value, *, what: str) -> Fraction:
    """``to_fraction`` for a mass level, which no set can pass above 1."""
    value = to_fraction(value, what=what)
    num, den = value.as_integer_ratio()
    if num > den:
        raise DomainError(f"{what} must be <= 1, got {fraction_text(value)}")
    return value


def _build(nums, dens, what: str, ceiling: str) -> tuple:
    """``(scale, ints)``, the stored form of the numbers ``num / den`` in
    lowest terms, the numerators given by ``nums`` (any iterable) and the
    denominators by the sequence ``dens`` (module docstring), the ints as a
    list.  Raises ``ResourceCapError`` before any int exists when
    ``len(dens)`` times the bit length of the growing lcm passes
    ``SCALE_CEILING``; the message names the count, ``what`` and the
    ``ceiling``."""
    scale = 1
    for den in set(dens):
        scale = lcm(scale, den)
        if len(dens) * scale.bit_length() > 1 << SCALE_CEILING:
            raise ResourceCapError(
                f"{len(dens)} {what} of {scale.bit_length()} or more bits exceed "
                f"the {ceiling} ceiling of 2^{SCALE_CEILING} bits"
            )
    return scale, [num * (scale // den) for num, den in zip(nums, dens)]


def _reduce(den: int, ints) -> tuple:
    """``(scale, ints)``, the stored form of the numbers ``k / den`` for k
    in ``ints`` and a positive ``den``: both divided by their gcd (module
    docstring)."""
    g = gcd(den, *ints)
    return den // g, tuple([k // g for k in ints])


def _rescale(scale: int, ints, common: int) -> list:
    """The ints of the stored form ``(scale, ints)`` put on ``common``, a
    positive multiple of ``scale``, as a new list."""
    factor = common // scale
    return list(ints) if factor == 1 else [k * factor for k in ints]


class JsonFile:
    """The one JSON file format: ``to_json_dict`` written with sorted keys,
    two-space indents and a final newline, read back by ``from_json_dict``."""

    __slots__ = ()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(read_json(path))


def read_json(path):
    """The JSON value in the file at ``path``.  A file that is not UTF-8
    text, or not JSON, or JSON nested too deep for the parser, is a
    ``ValidationError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise ValidationError(f"{path}: JSON nested too deeply to read") from exc


def format_fraction(value: Fraction) -> str:
    """Canonical string form: '3/4', '-2', '0'.

    A numerator or denominator past CPython's int-to-string digit limit
    (``sys.get_int_max_str_digits()``, 4300 by default) cannot be written;
    that raises ``ResourceCapError``, not a bare ``ValueError``.
    """
    try:
        return str(value)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ResourceCapError(
            f"a result's numerator or denominator has more than {limit} digits, "
            "the int-to-string limit (sys.set_int_max_str_digits)"
        ) from exc


def fraction_text(value) -> str:
    """``str(value)`` for error messages, which must never raise.

    Where ``str`` would fail at the int-to-string digit limit, the numerator
    and denominator are described by their digit counts instead.
    """
    try:
        return str(value)
    except ValueError:
        num, den = value.numerator, value.denominator
        sign = "-" if num < 0 else ""
        return f"{sign}<{_digits(num)}-digit numerator>/<{_digits(den)}-digit denominator>"


def _digits(number: int) -> int:
    """Decimal digits of ``abs(number)``, without converting it to a string."""
    number = abs(number)
    # 2^(bits - 1) <= number, so this undercounts by at most one
    count = int((number.bit_length() - 1) * 0.30102999566398120) + 1
    return count + 1 if number >= 10**count else count


def render_decimal(value: Fraction) -> str:
    """Human-oriented decimal rendering; display only, never fed back in.

    Values inside the float range render through ``float``.  Values past it,
    which would overflow or flush to zero, are divided out in ``Decimal`` at
    ``DECIMAL_DIGITS`` significant digits instead, so every Fraction renders.
    """
    try:
        approx = float(value)
    except OverflowError:
        approx = None
    if approx is None or (approx == 0 and value != 0):
        context = Context(prec=DECIMAL_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)
        quotient = context.divide(Decimal(value.numerator), Decimal(value.denominator))
        approx = quotient.normalize(context)  # drop trailing zeros, as float's "g" does
    return format(approx, f".{DECIMAL_DIGITS}g")
