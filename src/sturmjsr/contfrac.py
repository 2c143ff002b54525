"""Continued fractions: exact rational and quadratic expansions, convergents,
and certified expansion of high-precision reals.

The expansion [a1, a2, ...] of x in (0, 1) means x = 1/(a1 + 1/(a2 + ...)).
Finite expansions are kept canonical, last coefficient > 1 (except [1]),
which the word and interval machinery relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence

from .precision import Ball


class CFError(ValueError):
    pass


class CoefficientsExhausted(CFError):
    pass


class CertificationError(CFError):
    """A coefficient could not be certified at the available precision."""

    def __init__(self, index: int, msg: str):
        super().__init__(f"coefficient {index}: {msg}")
        self.index = index


@dataclass
class CFExpansion:
    """Coefficient stream a1, a2, ... with positive integer terms.

    Finite lists may be marked ``prefix_only`` when they are a certified
    prefix of a longer expansion rather than a complete one.  Eventually
    periodic streams resume forever.
    """

    _coeffs: list[int] = field(default_factory=list)
    period: Optional[int] = None
    _head_len: int = 0  # preperiod length when period is not None
    prefix_only: bool = False

    # -- construction ---------------------------------------------------

    @classmethod
    def from_list(cls, coeffs: Sequence[int], prefix_only: bool = False) -> "CFExpansion":
        coeffs = [int(a) for a in coeffs]
        if not coeffs or any(a < 1 for a in coeffs):
            raise CFError("coefficients must be positive integers")
        return cls(coeffs, prefix_only=prefix_only)

    @classmethod
    def from_periodic(cls, preperiod: Sequence[int], period: Sequence[int]) -> "CFExpansion":
        pre, per = [int(a) for a in preperiod], [int(a) for a in period]
        if not per or any(a < 1 for a in pre + per):
            raise CFError("coefficients must be positive integers")
        return cls(pre + per, period=len(per), _head_len=len(pre))

    # -- access -----------------------------------------------------------

    def _extend(self, n: int) -> None:
        if self.period is not None:
            while len(self._coeffs) < n:
                self._coeffs.append(self._coeffs[-self.period])

    def prefix(self, n: Optional[int] = None) -> list[int]:
        if n is None:
            if self.is_finite:
                return list(self._coeffs)
            raise CFError("infinite expansion has no full prefix")
        self._extend(n)
        if len(self._coeffs) < n:
            raise CoefficientsExhausted(
                f"stream has only {len(self._coeffs)} coefficients, need {n}"
            )
        return self._coeffs[:n]

    def coefficient(self, k: int) -> int:
        """a_k, 1-based."""
        return self.prefix(k)[k - 1]

    @property
    def is_finite(self) -> bool:
        return self.period is None and not self.prefix_only

    def tail_bound(self, k0: int = 1) -> Optional[int]:
        """sup of a_k over k >= k0, when derivable from the source."""
        if self.period is not None:
            per = self._coeffs[self._head_len : self._head_len + self.period]
            pre_tail = self._coeffs[k0 - 1 : self._head_len]
            return max(per + pre_tail)
        if self.is_finite:
            tail = self._coeffs[k0 - 1 :]
            return max(tail) if tail else None
        return None

    def value(self) -> Fraction:
        if not self.is_finite:
            raise CFError("only finite expansions have exact values")
        x = Fraction(0)
        for a in reversed(self._coeffs):
            x = Fraction(1, a + x)
        return x

    # -- text form ----------------------------------------------------------

    def format(self, max_terms: int = 12) -> str:
        if self.period is not None:
            shown = self._coeffs[: self._head_len + self.period]
            return ",".join(map(str, shown)) + f";period={self.period}"
        if self.is_finite:
            return ",".join(map(str, self._coeffs))
        return ",".join(map(str, self._coeffs[:max_terms])) + ",..."

    @classmethod
    def parse(cls, text: str) -> "CFExpansion":
        text = text.strip()
        period = None
        if ";" in text:
            body, tail = text.split(";", 1)
            key, _, val = tail.partition("=")
            if key.strip() != "period":
                raise CFError(f"unknown suffix {tail!r}")
            period = int(val)
        else:
            body = text
        coeffs = [int(t) for t in body.replace(" ", "").split(",") if t and t != "..."]
        if period is not None:
            if period < 1 or period > len(coeffs):
                raise CFError("period must cover some trailing coefficients")
            return cls.from_periodic(coeffs[:-period], coeffs[-period:])
        return cls.from_list(coeffs)


# ---------------------------------------------------------------------------


def cf_of_rational(x: Fraction) -> CFExpansion:
    """Canonical finite expansion of x in (0, 1), last coefficient > 1."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise CFError(f"need 0 < x < 1, got {x}")
    coeffs = []
    a, b = x.denominator, x.numerator
    while b:
        coeffs.append(a // b)
        a, b = b, a % b
    if len(coeffs) > 1 and coeffs[-1] == 1:
        coeffs.pop()
        coeffs[-1] += 1
    return CFExpansion.from_list(coeffs)


def convergents(cf: CFExpansion | Sequence[int], n: int) -> list[tuple[int, int]]:
    """Convergent pairs (p_k, q_k) for k = -1 .. n.

    Seeds p_-1 = 1, q_-1 = 0, p_0 = 0, q_0 = 1 and the recurrences
    p_k = a_k p_{k-1} + p_{k-2}, q_k = a_k q_{k-1} + q_{k-2}.  Returned
    list index k+1 holds (p_k, q_k).
    """
    coeffs = cf.prefix(n) if isinstance(cf, CFExpansion) else list(cf[:n])
    if len(coeffs) < n:
        raise CoefficientsExhausted(f"need {n} coefficients, have {len(coeffs)}")
    out = [(1, 0), (0, 1)]
    for a in coeffs:
        p = a * out[-1][0] + out[-2][0]
        q = a * out[-1][1] + out[-2][1]
        out.append((p, q))
    return out


def cf_complement(cf: CFExpansion) -> CFExpansion:
    """Expansion of 1 - x from the expansion of x in (0, 1).

    Uses [1, a2, a3, ...] <-> [a2 + 1, a3, ...]; the map swaps expansions
    of values below and above one half.
    """
    a1 = cf.coefficient(1)
    if cf.is_finite and cf._coeffs == [1]:
        raise CFError("cannot complement the expansion of 1")
    if cf.period is not None:
        pre = list(cf._coeffs[: cf._head_len])
        per = list(cf._coeffs[cf._head_len : cf._head_len + cf.period])
        while len(pre) < 2:  # expose a1, a2 in the preperiod
            pre.append(per[0])
            per = per[1:] + [per[0]]
        head = [pre[1] + 1] + pre[2:] if pre[0] == 1 else [1, pre[0] - 1] + pre[1:]
        return CFExpansion.from_periodic(head, per)
    coeffs = list(cf._coeffs)
    # a prefix [1] holds no a2: coefficient(2) raises CoefficientsExhausted
    head = [cf.coefficient(2) + 1] + coeffs[2:] if a1 == 1 else [1, a1 - 1] + coeffs[1:]
    if not cf.prefix_only and len(head) > 1 and head[-1] == 1:
        head = head[:-1]
        head[-1] += 1
    return CFExpansion.from_list(head, prefix_only=cf.prefix_only)


# ---------------------------------------------------------------------------
# quadratic irrationals, exact integer state machine


def cf_of_quadratic(a: Fraction, b: Fraction, d: int) -> CFExpansion:
    """Expansion of a + b*sqrt(d) in (0, 1), b != 0, d positive nonsquare.

    Runs the classical (P + sqrt(N))/Q recursion in exact integers, so the
    stream is error-free and its eventual period is detected exactly by
    state repetition.
    """
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        raise CFError("rational input; use cf_of_rational")
    if d <= 0 or isqrt(d) ** 2 == d:
        raise CFError(f"{d} is not a positive nonsquare")
    p0 = a.numerator * b.denominator
    r = b.numerator * a.denominator
    big_n = r * r * d
    q0 = a.denominator * b.denominator
    if r < 0:
        p0, q0 = -p0, -q0
    if (big_n - p0 * p0) % q0 != 0:
        big_n *= q0 * q0
        p0 *= abs(q0)
        q0 *= abs(q0)
    s = isqrt(big_n)

    def floor_state(p: int, q: int) -> int:
        # floor((p + sqrt(big_n))/q); sqrt(big_n) is irrational
        if q > 0:
            return (p + s) // q
        return -((p + s) // (-q)) - 1

    if floor_state(p0, q0) != 0:
        raise CFError("value not in (0, 1)")

    terms: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    p = -p0  # integer part zero consumed
    q = (big_n - p * p) // q0
    while (p, q) not in seen:
        seen[(p, q)] = len(terms)
        a_k = floor_state(p, q)
        terms.append(a_k)
        p = a_k * q - p
        q = (big_n - p * p) // q
    start = seen[(p, q)]
    return CFExpansion.from_periodic(terms[:start], terms[start:])


# ---------------------------------------------------------------------------
# certified expansion of a real given with an error radius


def cf_of_real(x: Ball, n: int) -> CFExpansion:
    """First n coefficients of x in (0, 1), certified against the radius.

    Interval arithmetic over exact rationals (float bounds convert
    exactly): a coefficient is emitted only when both interval endpoints
    agree on it.  Raises CertificationError as soon as a floor straddles
    an integer, rather than guessing.
    """
    lo, hi = x.bounds()
    if not (0 < lo and hi < 1):
        raise CFError(f"need 0 < x < 1 certified, got [{lo}, {hi}]")
    coeffs: list[int] = []
    for k in range(1, n + 1):
        if lo <= 0:
            raise CertificationError(k, "remainder interval touches zero")
        inv_lo, inv_hi = 1 / hi, 1 / lo
        a_lo, a_hi = int(inv_lo.__floor__()), int(inv_hi.__floor__())
        if a_lo != a_hi:
            raise CertificationError(
                k, f"floor not constant on [{float(inv_lo):.6g}, {float(inv_hi):.6g}]"
            )
        coeffs.append(a_lo)
        lo, hi = inv_lo - a_lo, inv_hi - a_lo
    return CFExpansion.from_list(coeffs, prefix_only=True)
