"""Arbitrary-precision scalars with explicit precision contexts.

All floating arithmetic in this package goes through mpmath binary floats
with the working precision passed explicitly in bits.  A ``Ball`` couples a
value with an outward error radius for the few places where certified
enclosures are required (continued-fraction digit extraction, mechanical
word floors, final approximation radii).  ``int_str`` and ``fraction_strs``
print exact values (the largest endpoints print from a decimal replay in
``EXACT_DECIMAL``), and ``json_text`` writes every command's JSON output.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Optional

from mpmath import mp, mpf
from mpmath.libmp import from_int, mpf_div, mpf_shift

DEFAULT_PREC = 256
MIN_PREC = 64
MAX_PREC = 1 << 20  # `interval 1/2` still answers at 2^20 bits, not in a minute at 2^24

# str() converts in quadratic time on CPython 3.10 and 3.11.  On 3.11
# (x86-64) it is still 5% faster than the split below at 32k bits, and
# 30-45% slower from 34k bits on, where libmpdec's products turn
# subquadratic.  Below _SPLIT_LEAF bits the split converts directly.
# This gates int_str alone; rational_preimage._REPLAY_BITS gates the replay.
_STR_BITS = 33_000
_SPLIT_LEAF = 2048

# Integer arithmetic in decimal that never rounds (Inexact is trapped), for
# int_str and the replay of exact endpoints; both print with format "f".
EXACT_DECIMAL = decimal.Context(decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
EXACT_DECIMAL.traps[decimal.Inexact] = True


def int_str(n: int) -> str:
    """str(n), in subquadratic time and under any int-to-str digit limit.

    Above ``_STR_BITS`` bits (or when str() refuses n), n = hi * 2^h + lo
    is split at half its bit length, both halves are converted in turn and
    recombined in ``decimal``, whose integer arithmetic is exact and whose
    products of large operands are subquadratic (Brent & Zimmermann,
    Modern Computer Arithmetic, 2010, section 1.7; CPython 3.12's _pylong
    does the same).  The powers 2^h are kept for this call only.
    """
    if n.bit_length() <= _STR_BITS:
        try:
            return str(n)
        except ValueError:  # more digits than the interpreter's limit
            pass
    two_to: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        p = two_to.get(w)
        if p is None:
            if w <= _SPLIT_LEAF:
                p = decimal.Decimal(1 << w)
            elif w - 1 in two_to:
                p = two_to[w - 1] * 2
            else:
                p = power(w >> 1) * power(w - (w >> 1))
            two_to[w] = p
        return p

    def convert(x: int, w: int) -> decimal.Decimal:  # 0 <= x < 2^w
        if w <= _SPLIT_LEAF:
            return decimal.Decimal(x)
        h = w >> 1
        hi = x >> h
        return convert(x - (hi << h), h) + convert(hi, w - h) * power(h)

    with decimal.localcontext(EXACT_DECIMAL):
        digits = format(convert(abs(n), n.bit_length()), "f")
    return "-" + digits if n < 0 else digits


def fraction_strs(*xs: Fraction) -> list[str]:
    """[str(x) for x in xs] through ``int_str``, printing an integer that
    several of them share once (the two parts of an exact endpoint often
    share their denominator)."""
    printed: dict[int, str] = {}

    def text(n: int) -> str:
        if n not in printed:
            printed[n] = int_str(n)
        return printed[n]

    return [
        text(x.numerator) if x.denominator == 1 else f"{text(x.numerator)}/{text(x.denominator)}"
        for x in xs
    ]


class Written:
    """JSON text that ``json_text`` copies as it stands: a value that
    ``json_text`` wrote earlier at the nesting of the place it goes to."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def json_text(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for what the commands
    print: dicts with str keys, lists, tuples, str, int, bool, None and
    ``Written`` text.  Anything else raises TypeError.  With ``depth``, obj
    is written as it reads nested that many levels deep.

    With ``indent``, CPython's json module never uses its C encoder.  This
    writer checks no options, and it writes each list item into a string
    of its own, so that a staircase is joined from one string per step
    rather than from tens of thousands of pieces.
    """
    out: list[str] = []
    _write_json(obj, "\n" + "  " * depth, out)
    return "".join(out)


def _write_json(x, newline: str, out: list[str]) -> None:
    inner = newline + "  "
    if isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif x is None or x is True or x is False:
        out.append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, dict):
        sep = "{" + inner
        for key, value in x.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys here are str, not {type(key).__name__}")
            head = f"{sep}{encode_basestring_ascii(key)}: "
            if isinstance(value, str):  # the common cases, in one piece
                out.append(head + encode_basestring_ascii(value))
            elif type(value) is int:
                out.append(head + int.__repr__(value))
            else:
                out.append(head)
                _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "}" if x else "{}")
    elif isinstance(x, (list, tuple)):
        sep = "[" + inner
        for item in x:
            part = [sep]
            _write_json(item, inner, part)
            out.append("".join(part))
            sep = "," + inner
        out.append(newline + "]" if x else "[]")
    elif isinstance(x, Written):
        out.append(x.text)
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def mpf_from_fraction(x: Fraction | int, prec: int = DEFAULT_PREC) -> mpf:
    """Round an exact rational to an mpf at ``prec`` bits.

    The reduced numerator is rounded to nearest at ``prec`` bits and then
    the quotient, so the value is within about one ulp of x but not
    always x correctly rounded.  ``mpf_from_ratio`` keeps these two
    roundings on purpose, so that it returns the same bits.
    """
    x = Fraction(x)
    return mpf_from_ratio(x.numerator, x.denominator, prec)


def mpf_from_ratio(n: int, den: int, prec: int = DEFAULT_PREC) -> mpf:
    """``mpf_from_fraction(Fraction(n, den), prec)`` for den > 0, bit for
    bit, without reducing n/den by a full gcd.

    With den = odd * 2^e, gcd(n, den) = gcd(n, odd) * 2^t, t <= e.  Only
    gcd(n, odd) is divided out.  Rounding to ``prec`` bits commutes with
    scaling by a power of two, and the exponent is unbounded, so rounding
    n / gcd(n, odd), dividing it by the odd part with rounding and
    shifting by -e gives the bits that the reduced fraction gives.  When
    den is a power of two (every float family's scale), no gcd runs.
    """
    e = (den & -den).bit_length() - 1
    odd = den >> e
    if odd > 1:
        g = gcd(n, odd)
        n, odd = n // g, odd // g
    x = mpf_div(from_int(n, prec, "n"), from_int(odd), prec, "n")
    return mp.make_mpf(mpf_shift(x, -e))


def fraction_from_mpf(x) -> Fraction:
    """Exact rational value of a finite mpf (every mpf is dyadic)."""
    if not isinstance(x, mpf):
        # conversion of int/float only; re-wrapping an mpf would re-round
        # it to the ambient precision
        x = mpf(x)
    sign, man, exp, _ = x._mpf_
    man, exp = int(man), int(exp)  # gmpy2 backend hands back mpz
    if man == 0:
        if exp != 0:
            raise ValueError(f"non-finite value {x!r} has no rational value")
        return Fraction(0)
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def decimal_str(value: mpf, prec: int, radius: Optional[mpf] = None) -> str:
    """``value`` in decimal at max(20, prec/3.33) significant digits.  With
    a radius, printing stops at the digit in the decade of the radius: the
    digits below it are not supported."""
    digits = max(20, int(prec / 3.33))
    if radius and value:
        with mp.workprec(53):
            lead, last = (int(mp.floor(mp.log10(abs(x)))) for x in (value, radius))
        digits = max(1, min(digits, lead - last + 1))
    return mp.nstr(value, digits)


@dataclass(frozen=True)
class Ball:
    """A real number known to lie in [value - radius, value + radius]."""

    value: mpf
    radius: mpf

    def __post_init__(self):
        if not isinstance(self.value, mpf):
            object.__setattr__(self, "value", mpf(self.value))
        if not isinstance(self.radius, mpf):
            object.__setattr__(self, "radius", mpf(self.radius))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    def bounds(self) -> tuple[Fraction, Fraction]:
        v = fraction_from_mpf(self.value)
        r = fraction_from_mpf(self.radius)
        return v - r, v + r
