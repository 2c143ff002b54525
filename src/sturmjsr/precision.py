"""Arbitrary-precision scalars with explicit precision contexts.

All floating arithmetic in this package goes through mpmath binary floats
with the working precision passed explicitly in bits.  A ``Ball`` couples a
value with an outward error radius for the few places where certified
enclosures are required (continued-fraction digit extraction, mechanical
word floors, final approximation radii).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mpmath import mp, mpf

DEFAULT_PREC = 256


def mpf_from_fraction(x: Fraction | int, prec: int = DEFAULT_PREC) -> mpf:
    """Round an exact rational to an mpf at ``prec`` bits."""
    x = Fraction(x)
    with mp.workprec(prec):
        return mpf(x.numerator) / x.denominator


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

    @classmethod
    def exact(cls, x) -> "Ball":
        return cls(mpf(x), mpf(0))

    def bounds(self) -> tuple[Fraction, Fraction]:
        v = fraction_from_mpf(self.value)
        r = fraction_from_mpf(self.radius)
        return v - r, v + r

    def __contains__(self, x) -> bool:
        lo, hi = self.bounds()
        return lo <= Fraction(x) <= hi
