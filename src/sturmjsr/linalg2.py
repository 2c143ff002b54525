"""Exact and high-precision 2x2 matrix arithmetic.

Scalars are either exact (int, Fraction, QuadExt = a + b*sqrt(d) over the
rationals) or mpmath floats at an explicit binary precision.  Matrices are
generic over both kinds; the exact path never touches floating point, so
equalities and orderings of computed spectral data are decidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from mpmath import mp, mpf, sqrt as msqrt
from mpmath.libmp import from_man_exp

from .precision import DEFAULT_PREC, fraction_strs

Word = str


class LinalgError(ValueError):
    pass


class RepeatedEigenvalueError(LinalgError):
    """Signals a non-diagonalisable (or defective within tolerance) matrix."""


# ---------------------------------------------------------------------------
# squarefree decomposition by trial division


_TRIAL_BOUND = 10_000
_TRIAL_PRIMES: list[int] = []  # the primes below _TRIAL_BOUND, filled on first use


def _trial_primes() -> list[int]:
    if not _TRIAL_PRIMES:  # sieve of Eratosthenes
        n = _TRIAL_BOUND
        sieve = bytearray([1]) * n
        sieve[:2] = b"\0\0"
        for p in range(2, isqrt(n - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
        _TRIAL_PRIMES.extend(p for p, flag in enumerate(sieve) if flag)
    return _TRIAL_PRIMES


def factorint(n: int) -> dict[int, int]:
    """Trial-division factorization of an integer n >= 1: {p: e} for the
    primes p below 10^4, primes ascending, then the cofactor c > 1 with no
    prime factor below 10^4, as {c: 1}, or {r: 2} when c = r^2.  Complete
    (c prime) whenever c < 10007^2."""
    if n < 1:
        raise LinalgError("can only factor positive integers")
    found: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            found[p] = e
    if n > 1:
        r = isqrt(n)
        found.update({r: 2} if r * r == n else {n: 1})
    return found


@lru_cache(maxsize=1024)
def squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * d for an integer n >= 0; returns (d, s), the last 1024
    results memoised.

    d is the squarefree core of n up to the square of a prime above 10^4:
    ``factorint``'s cofactor has no prime factor below 10^4, so below
    10007^3 it has at most two and is squarefree unless it is a square,
    which is detected.  d is therefore exactly squarefree for every n below
    10^12, and whenever that cofactor is below 10007^3; beyond, d may keep
    such a square (1000003^2 * 998244353 is returned whole).  Sign and
    order never need squarefreeness, and equality stays consistent between
    values built from the same discriminant.
    """
    if n < 0:
        raise LinalgError("negative radicand")
    if n == 0:
        return 0, 1
    d, s = 1, 1
    for p, e in factorint(n).items():
        if e % 2:
            d *= p
        s *= p ** (e // 2)
    return d, s


# ---------------------------------------------------------------------------
# quadratic field scalars


# Guard bits of the integer that QuadExt.to_mpf rounds to prec bits.
_GUARD_BITS = 32


def _above(f: Fraction) -> int:
    """|f| < 2^_above(f)."""
    return f.numerator.bit_length() - f.denominator.bit_length() + 1


@dataclass(frozen=True, slots=True)
class QuadExt:
    """Exact scalar a + b*sqrt(d), a and b rational, d positive and the
    squarefree core of the radicand as ``squarefree_split`` gives it (exact
    below 10^12; above, d may keep the square of a prime above 10^4).

    d == 0 encodes a rational value (b is then zero).  A rational value
    computed in Q(sqrt(d)) may also carry b == 0 with d != 0 (the 4/5 and
    5/4 endpoints of the hmst 1/2 step have d = 5); it equals the d == 0
    form, and JSON output prints it with b = 0 and that d.  Arithmetic
    mixes freely with int and Fraction; two QuadExt operands must share d.
    Comparisons are exact sign determinations, no floating point involved.
    """

    a: Fraction
    b: Fraction
    d: int
    _scale: int | None = field(default=None, init=False, repr=False, compare=False)
    # str(a), str(b) once printed; before that None, or the recipe its
    # maker attached: a callable of this value, returning them or None
    _text: object = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def make(a, b=0, d: int = 0) -> "QuadExt":
        """Normalize: extract square factors of d, collapse rational values."""
        a, b = Fraction(a), Fraction(b)
        if b == 0 or d == 0:
            return QuadExt(a, Fraction(0), 0)
        if d < 0:
            raise LinalgError("negative radicand")
        core, s = squarefree_split(d)
        if core == 1:
            return QuadExt(a + b * s, Fraction(0), 0)
        return QuadExt(a, b * s, core)

    # -- helpers ------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _coerce(self, other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), Fraction(0), 0)
        return None

    def _join(self, other: "QuadExt") -> int:
        if self.d and other.d and self.d != other.d:
            raise LinalgError(f"mixed radicands {self.d} and {other.d}")
        return self.d or other.d

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self._join(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join(o)
        if self.d and o.d:
            return QuadExt(
                self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d
            )
        a = QuadExt(self.a * o.a, self.a * o.b + self.b * o.a, d)
        return a if a.b else QuadExt(a.a, Fraction(0), 0)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("zero QuadExt")
        return QuadExt(self.a / norm, -self.b / norm, self.d if self.b else 0)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * self.inverse()

    def __pow__(self, k: int) -> "QuadExt":
        if k < 0:
            return self.inverse() ** (-k)
        if not self.b:
            return QuadExt(self.a ** k, Fraction(0), 0)
        # (x + y sqrt(d))^k / den^k over the integers: one gcd at the end
        # instead of one per Fraction operation
        den = lcm(self.a.denominator, self.b.denominator)
        x = self.a.numerator * (den // self.a.denominator)
        y = self.b.numerator * (den // self.b.denominator)
        ra, rb = pair_pow((x, y), k, self.d)
        den **= k
        b = Fraction(rb, den)  # zero only for (b sqrt(d))^even
        return QuadExt(Fraction(ra, den), b, self.d if b else 0)

    def conjugate(self) -> "QuadExt":
        """a - b sqrt(d), with this value's recipe (a recipe reads signs from
        the value it prints) or its strings, b's sign flipped."""
        x, t = QuadExt(self.a, -self.b, self.d), self._text
        flipped = isinstance(t, tuple) and self.b and (t[0], t[1][1:] if t[1][0] == "-" else "-" + t[1])
        object.__setattr__(x, "_text", flipped or t)
        return x

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        return _sign_two_term(self.a, self.b, self.d)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.b == 0 and o.b == 0:
            return self.a == o.a
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadExt with {type(other)}")
        return quad_compare(self, o)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- conversion ---------------------------------------------------------

    def scale_bits(self) -> int:
        """An e with S = |a| + |b| sqrt(d) < 2^e, from bit lengths.

        A rational f has |f| < 2^above(f), above(f) = bits(num) - bits(den)
        + 1, and sqrt(d) <= 2^ceil(bits(d) / 2); when b != 0, S < 2^e_a +
        2^e_b <= 2^(max + 1).  Computed once per value: ``to_mpf`` and the
        error of an exact endpoint both read it.
        """
        e = self._scale
        if e is None:
            e = _above(self.a)
            if self.b:
                e = max(e, _above(self.b) + (self.d.bit_length() + 1) // 2) + 1
            object.__setattr__(self, "_scale", e)
        return e

    def to_mpf(self, prec: int = DEFAULT_PREC) -> mpf:
        """The value rounded to ``prec`` bits from integers alone, within
        2^(e + 2 - prec) of it, e = ``scale_bits()``.

        With G = ``_GUARD_BITS``, s = max(prec + G - e, 0) and t >= 0 such
        that |b| 2^-t < 1/4, the integer

            m = floor(a.num 2^s / a.den) + floor(b.num r / (b.den 2^t)),
            r = isqrt(d 2^(2(s + t))) = sqrt(d) 2^(s + t) - delta, 0 <= delta < 1,

        differs from x 2^s by less than 1 (the first floor) + |b| delta 2^-t
        (below 1/4) + 1 (the second floor) < 3.  So |m 2^-s - x| < 3 * 2^-s
        <= 3 * 2^(e - prec - G), also when s = 0, where e - prec - G >= 0.
        Then |m 2^-s| < 2^(e + 1), and rounding it once to ``prec`` bits, in
        any mode, moves it by at most 2^(e + 1 - prec).  For G >= 2 the
        total is below 2^(e + 1 - prec) + 2^(e - prec) < 2^(e + 2 - prec).
        S, not |x|, is the scale, so cancellation between the terms is
        covered, and the bound is never below 2^(2 - prec) times S rounded
        upwards to 53 bits.  The value is x correctly rounded to nearest unless x lies
        within 3 * 2^(e - prec - G) of a rounding boundary.
        """
        a, b = self.a, self.b
        s = max(prec + _GUARD_BITS - self.scale_bits(), 0)
        m = (a.numerator << s) // a.denominator
        if b:
            t = max(_above(b) + 2, 0)
            m += (b.numerator * isqrt(self.d << 2 * (s + t))) // (b.denominator << t)
        return mp.make_mpf(from_man_exp(m, -s, prec, "n"))

    def strs(self, keep: bool = True) -> tuple[str, str]:
        """(str(a), str(b)): by the recipe in ``_text``, else ``fraction_strs``;
        kept in ``_text`` unless ``keep`` is false, for a caller that keeps
        the text it writes them into."""
        text = self._text
        if not isinstance(text, tuple):
            text = (text and text(self)) or tuple(fraction_strs(self.a, self.b))
            if keep:
                object.__setattr__(self, "_text", text)
        return text

    def __repr__(self):
        return self.text()

    def text(self, keep: bool = True) -> str:
        """The repr; ``keep`` as for ``strs``."""
        a, b = self.strs(keep)
        return f"({a})" if self.b == 0 else f"({a}) + ({b})*sqrt({self.d})"


def pair_mul(x: tuple, y: tuple, d: int) -> tuple:
    """(x0 + x1 sqrt(d)) * (y0 + y1 sqrt(d)) on integer pairs."""
    return x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0]


def pair_pow(x: tuple, k: int, d: int, y: tuple = (1, 0), j: int = 0) -> tuple:
    """x^k y^j on integer pairs a + b sqrt(d), k, j >= 0, d not
    necessarily squarefree.

    One left-to-right ladder over the bits of k and j: the accumulator
    is squared once per bit and multiplied only by the small x, y or xy,
    never by a large power of them.
    """
    if not (k or j):
        return (1, 0)
    mults = (None, x, y, pair_mul(x, y, d) if k and j else None)
    i = max(k.bit_length(), j.bit_length()) - 1
    r = mults[(k >> i & 1) | (j >> i & 1) << 1]
    for i in range(i - 1, -1, -1):
        r = (r[0] * r[0] + r[1] * r[1] * d, 2 * r[0] * r[1])
        bits = (k >> i & 1) | (j >> i & 1) << 1
        if bits:
            r = pair_mul(r, mults[bits], d)
    return r


def _scalar_sign(x) -> int:
    """Exact sign of a QuadExt, or the sign of any ordered scalar."""
    if isinstance(x, QuadExt):
        return x.sign()
    return (x > 0) - (x < 0)


def _sign_two_term(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for rational a, b and integer d >= 0."""
    if b == 0 or d == 0:
        return _scalar_sign(a)
    r = isqrt(d)
    if r * r == d:
        return _scalar_sign(a + b * r)
    sa, sb = _scalar_sign(a), _scalar_sign(b)
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    # opposite signs: compare a^2 with b^2 d
    return sa * _scalar_sign(a * a - b * b * d)


def _sign_three_term(r: Fraction, b: Fraction, d: int, c: Fraction, e: int) -> int:
    """Exact sign of r + b*sqrt(d) + c*sqrt(e), d != e both nonsquare."""
    if b == 0:
        return _sign_two_term(r, c, e)
    if c == 0:
        return _sign_two_term(r, b, d)
    if d == e:
        return _sign_two_term(r, b + c, d)
    # t = sign of b*sqrt(d) + c*sqrt(e)
    sb, sc = _scalar_sign(b), _scalar_sign(c)
    if sb == sc:
        t = sb
    else:
        t = sb * _scalar_sign(b * b * d - c * c * e)
    if r == 0:
        return t
    sr = _scalar_sign(r)
    if t == 0 or t == sr:
        return sr
    # opposite: compare r^2 with (b sqrt(d) + c sqrt(e))^2
    u = r * r - b * b * d - c * c * e
    v = 2 * b * c
    return sr * _sign_two_term(u, -v, d * e)


def quad_compare(x: QuadExt, y: QuadExt) -> int:
    """Exact three-way comparison, permitting different radicands."""
    if x.b == 0 or y.b == 0 or x.d == y.d:
        d = x.d if x.b else y.d
        return _sign_two_term(x.a - y.a, x.b - y.b, d)
    return _sign_three_term(x.a - y.a, x.b, x.d, -y.b, y.d)


# ---------------------------------------------------------------------------
# 2x2 matrices


@dataclass(frozen=True, slots=True)
class Mat2:
    """Immutable 2x2 matrix over any scalar ring (int/Fraction/QuadExt/mpf)."""

    a: object
    b: object
    c: object
    d: object

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    def __matmul__(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def __add__(self, o: "Mat2") -> "Mat2":
        return Mat2(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __sub__(self, o: "Mat2") -> "Mat2":
        return Mat2(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def scale(self, k) -> "Mat2":
        return Mat2(k * self.a, k * self.b, k * self.c, k * self.d)

    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def map(self, fn) -> "Mat2":
        return Mat2(fn(self.a), fn(self.b), fn(self.c), fn(self.d))

    def is_nonnegative(self) -> bool:
        return all(_scalar_sign(x) >= 0 for x in self.entries())

    def is_positive(self) -> bool:
        return all(_scalar_sign(x) > 0 for x in self.entries())

    def is_exact(self) -> bool:
        return all(isinstance(x, (int, Fraction, QuadExt)) for x in self.entries())

    def __pow__(self, k: int) -> "Mat2":
        if k < 0:
            raise LinalgError("negative matrix power")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result @ base
            k >>= 1
            if k:
                base = base @ base
        return Mat2.identity() if result is None else result

    def to_mpf(self, prec: int = DEFAULT_PREC) -> "Mat2":
        return self.map(lambda x: _to_mpf(x, prec))

    def __repr__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


def _to_mpf(x, prec: int) -> mpf:
    if isinstance(x, QuadExt):
        return x.to_mpf(prec)
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        with mp.workprec(prec):
            return mpf(x.numerator) / x.denominator
    with mp.workprec(prec):
        return +mpf(x)


def product_of_word(a0: Mat2, a1: Mat2, w: Word) -> Mat2:
    """Matrix product indexed by a word, last letter leftmost: the word u
    of length m maps to M(u) = A_{u_m} ... A_{u_1}, so M(uv) = M(v) M(u)."""
    if not w:
        raise LinalgError("empty word has no product")
    result = a1 if w[0] == "1" else a0
    for ch in w[1:]:
        result = (a1 if ch == "1" else a0) @ result
    return result


# ---------------------------------------------------------------------------
# spectra


def _exact_sqrt(x: Fraction) -> QuadExt:
    """sqrt of a nonnegative rational as a QuadExt."""
    if x < 0:
        raise LinalgError("negative radicand")
    if x == 0:
        return QuadExt.make(0)
    n = x.numerator * x.denominator
    d, s = squarefree_split(n)
    if d == 1:
        return QuadExt.make(Fraction(s, x.denominator))
    return QuadExt.make(0, Fraction(s, x.denominator), d)


def eigenvalues_exact(m: Mat2) -> tuple[QuadExt, QuadExt]:
    """Both eigenvalues of an exact matrix with real spectrum, largest first."""
    t, det = Fraction(m.trace()), Fraction(m.det())
    disc = t * t - 4 * det
    if disc < 0:
        raise LinalgError("complex eigenvalues")
    root = _exact_sqrt(disc)
    half = Fraction(1, 2)
    return (root + t) * half, (QuadExt.make(t) - root) * half


def spectral_radius(m: Mat2, prec: int = DEFAULT_PREC):
    """Largest eigenvalue modulus.

    Exact matrices with real spectrum give an exact QuadExt; complex
    spectrum falls back to sqrt(det).  Float matrices evaluate at ``prec``.
    """
    if m.is_exact():
        if any(isinstance(x, QuadExt) and x.b for x in m.entries()):
            raise LinalgError(
                "exact spectral radius needs rational entries; "
                "rank-one products go through rank_one_spectral_radius"
            )
        t = Fraction(m.trace() if not isinstance(m.trace(), QuadExt) else m.trace().a)
        det = Fraction(m.det() if not isinstance(m.det(), QuadExt) else m.det().a)
        disc = t * t - 4 * det
        if disc < 0:
            return _exact_sqrt(det)
        return (_exact_sqrt(disc) + abs(t)) * Fraction(1, 2)
    with mp.workprec(prec):
        t, det = mpf(m.trace()), mpf(m.det())
        disc = t * t - 4 * det
        if disc < 0:
            return msqrt(det)
        return (abs(t) + msqrt(disc)) / 2


def radius_from_trace_det(t: Fraction, det: Fraction, prec: int = DEFAULT_PREC) -> mpf:
    """Spectral radius of a real 2x2 matrix from its exact trace and det.

    The sign of the discriminant is decided exactly; the value,
    (|t| + sqrt(t^2 - 4 det)) / 2 or sqrt(det) for complex spectrum, is
    evaluated at prec + 8 bits and rounded once to ``prec``.
    """
    disc = t * t - 4 * det
    with mp.workprec(prec + 8):
        if disc < 0:
            x = msqrt(mpf(det.numerator) / det.denominator)
        else:
            x = abs(mpf(t.numerator) / t.denominator)
            x = (x + msqrt(mpf(disc.numerator) / disc.denominator)) / 2
    with mp.workprec(prec):
        return +x


def spectral_radius_mpf(m: Mat2, prec: int = DEFAULT_PREC) -> mpf:
    """Spectral radius as an mpf at ``prec``; rational matrices go through
    ``radius_from_trace_det`` and need no quadratic-field value."""
    if all(isinstance(x, (int, Fraction)) for x in m.entries()):
        return radius_from_trace_det(Fraction(m.trace()), Fraction(m.det()), prec)
    r = spectral_radius(m, prec)
    return r.to_mpf(prec) if isinstance(r, QuadExt) else r


def perron_projection(m: Mat2, prec: int = DEFAULT_PREC) -> Mat2:
    """Projection onto the leading eigenspace along the other eigenspace.

    Equals lim rho(M)^-n M^n for matrices whose leading eigenvalue is the
    spectral radius (nonnegative matrices with positive trace).  Computed
    as (M - lam2 I) / (lam1 - lam2); satisfies P^2 = P, MP = PM = lam1 P,
    det P = 0.  Raises RepeatedEigenvalueError when lam1 == lam2, which is
    exactly the non-diagonalisable case for our inputs.
    """
    if m.is_exact():
        lam1, lam2 = eigenvalues_exact(m)
        if lam1 == lam2:
            raise RepeatedEigenvalueError(f"repeated eigenvalue {lam1} of {m}")
        gap = lam1 - lam2
        return Mat2(
            (QuadExt.make(Fraction(m.a)) - lam2) / gap,
            QuadExt.make(Fraction(m.b)) / gap,
            QuadExt.make(Fraction(m.c)) / gap,
            (QuadExt.make(Fraction(m.d)) - lam2) / gap,
        )
    with mp.workprec(prec):
        t, det = mpf(m.trace()), mpf(m.det())
        disc = t * t - 4 * det
        if disc <= 0 or msqrt(disc) < abs(t) * mpf(2) ** (-prec + 16):
            raise RepeatedEigenvalueError(
                f"eigenvalue gap below tolerance 2^{-prec + 16} for {m}"
            )
        root = msqrt(disc)
        lam2 = (t - root) / 2
        return Mat2(
            (mpf(m.a) - lam2) / root,
            mpf(m.b) / root,
            mpf(m.c) / root,
            (mpf(m.d) - lam2) / root,
        )


def rank_one_spectral_radius(m: Mat2, prec: int = DEFAULT_PREC):
    """Spectral radius |trace| of a matrix with determinant zero.

    Avoids the cancellation-prone quadratic formula for rank-one products
    such as (Perron projection) * (family matrix).  Exact inputs must have
    det exactly zero; float inputs allow a relative tolerance.
    """
    det = m.det()
    if m.is_exact():
        if (det != 0) if not isinstance(det, QuadExt) else det.sign() != 0:
            raise LinalgError(f"determinant {det} is not zero")
        t = m.trace()
        return abs(t) if isinstance(t, QuadExt) else abs(QuadExt.make(Fraction(t)))
    with mp.workprec(prec):
        t = mpf(m.trace())
        scale = max(abs(mpf(x)) for x in m.entries()) or mpf(1)
        if abs(mpf(det)) > scale * scale * mpf(2) ** (-prec + 24):
            raise LinalgError(f"determinant {det} not within rank-one tolerance")
        return abs(t)


# ---------------------------------------------------------------------------
# norms (all submultiplicative)


def operator_norm_rowsum(m: Mat2):
    """Max absolute row sum (the operator norm induced by the sup norm)."""
    r1 = abs(m.a) + abs(m.b)
    r2 = abs(m.c) + abs(m.d)
    return r1 if r1 >= r2 else r2


def frobenius_norm(m: Mat2, prec: int = DEFAULT_PREC) -> mpf:
    with mp.workprec(prec):
        return msqrt(sum(mpf(x) ** 2 for x in m.to_mpf(prec).entries()))


def sigma_norm(m: Mat2, prec: int = DEFAULT_PREC) -> mpf:
    """Largest singular value (operator norm for the Euclidean norm)."""
    with mp.workprec(prec):
        a, b, c, d = m.to_mpf(prec).entries()
        return sigma_from_frobenius(a * a + b * b + c * c + d * d, a * d - b * c)


def sigma_from_frobenius(f2: mpf, det: mpf) -> mpf:
    """Largest singular value of a 2x2 matrix from its Frobenius mass
    f2 = a^2 + b^2 + c^2 + d^2 and its determinant, at the working
    precision: sigma^2 = (f2 + sqrt(f2^2 - 4 det^2)) / 2.  For a fixed
    det it grows with f2, so the largest f2 gives the largest sigma."""
    gap = f2 * f2 - 4 * det * det
    if gap < 0:
        gap = mpf(0)
    return msqrt((f2 + msqrt(gap)) / 2)
