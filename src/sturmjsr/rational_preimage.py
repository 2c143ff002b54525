"""Closed-form parameter intervals where the extremal 1-ratio is a fixed
rational, plus the concave growth exponent S and the JSR on those intervals.

For a family passing the structural hypotheses, the set of parameters
alpha with ratio p/q is a closed interval with nonempty interior.  With
(u, v) the standard pair of p/q, B1 = M(u), B2 = M(v), A = B1*B2 (written
order; swapping it shifts both endpoints) and P the Perron projection
of A, the interval is

    [ rho(B1*P)^q / rho(A)^q1 ,  rho(A)^q2 / rho(P*B2)^q ]

with q1 = |u|, q2 = |v|.  The degenerate ends: ratio 0 gives [0,
rho(A0)/rho(P0*A1)] when A0 is diagonalisable and the single point {0}
otherwise; ratio 1 gives [rho(P1*A0)/rho(A1), +inf) or the empty set.

The endpoints are evaluated in trace form.  With t = tr A, det = det A,
Delta = t^2 - 4 det and lambda, mu = (t +- sqrt(Delta))/2, the projection
is P = (A - mu I)/sqrt(Delta), so rho(B*P) = rho(P*B) = N / (2 sqrt(Delta))
with N = (2 tr(A*B) - t tr B) + tr B sqrt(Delta).  Each endpoint depends
only on t, det, tr B and tr(A*B), and the identity lambda^-1 = mu/det
turns the division by rho(A)^q1 into a product:

    lo = N1^q (t - sqrt(Delta))^q1 sqrt(Delta)^q / (2^(q+q1) Delta^q det^q1)
    hi = lo |4 Delta det(B2) / norm(N2)|^q

so both ends are one ladder, N1^q (t - sqrt(Delta))^q1 sqrt(Delta)^q,
times known factors.  Proof: B1 det(B2) = A adj(B2) and PA = lambda P, so
det(B2) tr(B1 P) = lambda tr(adj(B2) P) = lambda tr(Q B2), Q = I - P, as
adj(B2) = tr(B2) I - B2.  Conjugation (sqrt(Delta) -> -sqrt(Delta)) maps P
to Q, so conj(N2) = -2 sqrt(Delta) tr(Q B2) = -det(B2) N1 / lambda, and
hi = lambda^q2 (2 sqrt(Delta))^q conj(N2)^q / norm(N2)^q = lo (-4 Delta
det(B2) / norm(N2))^q.  norm(N2) = 0 only when det(B2) = 0; that end is
then lambda^q2 (2 sqrt(Delta))^q / N2^q on a ladder of its own.

Exact families are scaled to integer generators k0*A0, k1*A1 (k0, k1 the
entries' common denominators).  That multiplies M(w) by
s(w) = k0^|w|_0 k1^|w|_1 and both endpoints by s(u)^q2 / s(v)^q1, a
factor divided out at the end.  The traces are read from the integer
entries, the powers run on integer pairs in Z[sqrt(Delta)], Delta is split
once per step, and each rational part is reduced once, by the factors its
denominator is known to have (see ``_reduced``): powers of 2, Delta, det,
norm(N2), and the denominators of the scale and of sqrt(Delta)/sqrt(D).
An end that prints past ``_REPLAY_BITS`` also keeps them as (base,
exponent) pairs, for ``_replay``.  An exact endpoint carries D = the
squarefree core of Delta (0 when Delta is a square), also when it is
rational; ``squarefree_split`` states when D may keep the square of a
prime above 10^4.  Its mpf value is rounded from integers
(``QuadExt.to_mpf``) as the centre of a ball whose radius is a power of
two read from bit lengths (``exact_ball``).  Its digits are made when it
is first printed: past ``_REPLAY_BITS``, by rerunning its arithmetic in
``decimal`` (``_replay``), else by ``int_str``.  Float families evaluate
the same traces in mpf at ``prec``, with mu = det/lambda so that nothing
cancels, and get a coarse tracked radius.  Every ordering of endpoints
and points goes through ``compare``, which decides from the balls when
they are apart.

The standard pairs, grown from ('0', '1') by (u, v) -> (u, uv) or (uv, v),
are the Stern-Brocot tree.  Every step and every M(uv) is read from one node
type of it, ``SternBrocotNode``, which carries M(u) and M(v): a step descends
one run of children per partial quotient, the staircase walks the tree, and
the boundary steps are read at its root.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache, cached_property, partial
from json.encoder import encode_basestring_ascii
from math import gcd, prod
from typing import Iterator, Optional

from mpmath import mp, mpf, log as mlog, sqrt as msqrt
from mpmath.libmp import mpf_abs, mpf_add, mpf_cmp, mpf_sub

from .family import MatrixFamily
from .linalg2 import (
    Mat2,
    QuadExt,
    _sign_two_term,
    pair_mul,
    pair_pow,
    quad_compare,
    spectral_radius,
    spectral_radius_mpf,
    squarefree_split,
)
from .precision import _SPLIT_LEAF, DEFAULT_PREC, EXACT_DECIMAL
from .precision import Written, fraction_from_mpf, json_text, mpf_from_fraction
from .words import StandardPair


class PreimageError(ValueError):
    pass


class EndpointPrecisionError(ValueError):
    """A float endpoint lies within its radius of the value it is compared
    with: the order is not decided at this precision."""


@dataclass(frozen=True)
class Endpoint:
    """Interval endpoint: mpf value, exact QuadExt when available, and a
    first-order rounding radius for float-family endpoints (None = exact).
    ``prec`` is the precision ``value`` was rounded at.  ``error``, set
    when the endpoint is made, bounds |value - endpoint|: the radius of a
    float endpoint, 0 for a bare value, and for an exact endpoint (made by
    ``exact_ball``) the power of two 2^(e + 2 - prec) that
    ``QuadExt.to_mpf`` rounds within, e = ``exact.scale_bits()``."""

    value: mpf
    exact: Optional[QuadExt] = None
    radius: Optional[mpf] = None
    prec: int = DEFAULT_PREC
    error: mpf = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.exact is not None:  # the mpf 2^(e + 2 - prec), made from its tuple
            error = mp.make_mpf((0, 1, self.exact.scale_bits() + 2 - self.prec, 1))
        else:
            error = self.radius if self.radius is not None else mpf(0)
        object.__setattr__(self, "error", error)

    def as_json(self, keep: bool = True) -> dict:
        """The printed fields; ``keep`` is passed to ``QuadExt.strs``."""
        out = {"dec": mp.nstr(self.value, 30)}
        if self.exact is not None:
            a, b = self.exact.strs(keep)
            out["exact"] = {"a": a, "b": b, "D": self.exact.d}
        if self.radius is not None:
            out["radius"] = mp.nstr(self.radius, 5)
        return out


@dataclass(frozen=True)
class PreimageInterval:
    """Closed parameter interval where the ratio function equals ``fraction``.

    ``degenerate`` marks the single point {0} and the empty set (the
    latter with lo > hi sentinel None endpoints); any other None endpoint
    is unbounded.
    """

    fraction: Fraction
    lo: Optional[Endpoint]
    hi: Optional[Endpoint]
    degenerate: bool = False
    pair: Optional[StandardPair] = None

    @property
    def lo_unbounded(self) -> bool:
        """The ratio-0 interval, which contains 0."""
        return self.lo is None and not self.degenerate

    @property
    def hi_unbounded(self) -> bool:
        """The ratio-1 interval, which extends to +inf."""
        return self.hi is None and not self.degenerate

    @property
    def empty(self) -> bool:
        return self.lo is None and self.hi is None

    def contains(self, alpha) -> bool:
        """Closed-interval membership, exact whenever endpoints are exact."""
        if self.empty:
            return False
        if self.degenerate:
            return compare(alpha, 0) == 0
        lo_ok = self.lo_unbounded or compare(alpha, self.lo) >= 0
        hi_ok = self.hi_unbounded or compare(alpha, self.hi) <= 0
        return lo_ok and hi_ok

    def as_json(self, keep: bool = True) -> dict:
        out: dict = {"p": self.fraction.numerator, "q": self.fraction.denominator}
        if self.empty:
            out["empty"] = True
            return out
        if self.degenerate:
            out["degenerate"] = True
        out["lo"] = self.lo.as_json(keep) if self.lo is not None else {"dec": "0"}
        out["hi"] = self.hi.as_json(keep) if self.hi is not None else {"dec": "+inf"}
        if self.pair is not None:
            out["u"] = self.pair.u
            out["v"] = self.pair.v
        return out

    @cached_property
    def listed(self) -> Written:
        """``as_json`` written as an item of a list in a JSON object, the
        place of a step in a staircase: a function of the step, kept with
        it, so that a memoized step is written once.  The ends' digits are
        kept in this text alone.  A step with a pair and two exact ends is
        written into ``_LISTED``; any other by ``json_text``."""
        ends = (self.lo, self.hi)
        if self.pair is None or any(e is None or e.exact is None or e.radius is not None for e in ends):
            return Written(json_text(self.as_json(keep=False), 2))
        s, pq = encode_basestring_ascii, self.fraction
        ends = [x for e in ends for x in (s(mp.nstr(e.value, 30)), *map(s, e.exact.strs(False)), e.exact.d)]
        return Written(_LISTED.format(pq.numerator, pq.denominator, *ends, s(self.pair.u), s(self.pair.v)))


# what json_text writes for an exact step with a pair at a staircase step's
# nesting, its strings put through encode_basestring_ascii
_END = '{{\n        "dec": {},\n        "exact": {{\n          "a": {},\n          "b": {},\n          "D": {}\n        }}'
_LISTED = (
    '{{\n      "p": {},\n      "q": {},\n      "lo": ' + _END + '\n      }},\n      "hi": ' + _END
    + '\n      }},\n      "u": {},\n      "v": {}\n    }}'
)


def exact_ball(x: QuadExt, prec: int = DEFAULT_PREC) -> Endpoint:
    """The exact endpoint x, its value ``x.to_mpf(prec)``; ``Endpoint``
    derives the error that conversion stays within."""
    return Endpoint(x.to_mpf(prec), x, prec=prec)


def _point(x, prec: int) -> Endpoint:
    """An endpoint as it is, and a point (int, Fraction or mpf) as an exact
    endpoint: an exact ball at ``prec``, or the bare mpf value."""
    if isinstance(x, Endpoint):
        return x
    if isinstance(x, (int, Fraction)):
        return exact_ball(QuadExt.make(x), prec)
    return Endpoint(x if isinstance(x, mpf) else mpf(x), prec=prec)


def compare(x, y) -> int:
    """Certified sign of x - y; each of x, y is an Endpoint or a point
    (int, Fraction or mpf).

    A filtered predicate (Shewchuk 1997): the mpf values decide when their
    exact difference exceeds the sum of the operands' error bounds -- the
    ball radius of an exact endpoint or rational point (made by
    ``exact_ball``), the radius of a float endpoint, 0 for an mpf point.
    The filter runs on the raw libmp tuples: the difference exactly, the
    sum of the bounds rounded upwards at the working precision
    ``mp.prec``.  Otherwise exact operands are compared in their quadratic
    fields (a bare mpf value as its rational), and a float endpoint raises
    EndpointPrecisionError.
    """
    if not (isinstance(x, Endpoint) and isinstance(y, Endpoint)):
        prec = max(
            (e.prec for e in (x, y) if isinstance(e, Endpoint)), default=DEFAULT_PREC
        )
        x, y = _point(x, prec), _point(y, prec)
    diff = mpf_sub(x.value._mpf_, y.value._mpf_)
    if mpf_cmp(mpf_abs(diff), mpf_add(x.error._mpf_, y.error._mpf_, mp.prec, "u")) > 0:
        return -1 if diff[0] else 1
    xq, yq = (
        e.exact if e.exact is not None or e.radius is not None
        else QuadExt.make(fraction_from_mpf(e.value))
        for e in (x, y)
    )
    if xq is None or yq is None:
        raise EndpointPrecisionError(
            f"cannot order {mp.nstr(x.value, 20)} and {mp.nstr(y.value, 20)} "
            f"within their radii at {max(x.prec, y.prec)} bits"
        )
    return quad_compare(xq, yq)


@dataclass(frozen=True)
class SValue:
    """Growth exponent S(p/q) = (1/q) log rho(M(uv)) along ratio p/q."""

    fraction: Fraction
    value: mpf
    exact_rho: Optional[QuadExt] = None


def _float_radius(value: mpf, q: int, prec: int) -> mpf:
    # first-order rounding model: O(q log q) mpf operations, each <= 1/2 ulp;
    # rounded at 53 bits whatever the caller's working precision, so that an
    # endpoint depends on its arguments alone
    ops = 8 * (q + 4) * (q.bit_length() + 2)
    with mp.workprec(53):
        return abs(value) * mpf(2) ** (-prec + 1) * ops


def _endpoint(x, q: int, prec: int, fam: MatrixFamily) -> Endpoint:
    """Endpoint of a value computed from words of total length q: a QuadExt
    is exact, an mpf gets the rounding radius of that computation at the
    lesser of ``prec`` and the precision of the family's entries."""
    if isinstance(x, QuadExt):
        return exact_ball(x, prec)
    return Endpoint(x, None, _float_radius(x, q, min(prec, fam.prec)), prec)


def s_value(fam: MatrixFamily, pq: Fraction, prec: int = DEFAULT_PREC) -> SValue:
    """S at a rational, from M(uv) of its Stern-Brocot node (uv the
    cyclically balanced word of the standard pair); S(0) and S(1) are the
    log spectral radii of the generators.

    Callers are responsible for the structural hypotheses (see
    family.check_technical_hypotheses); concavity and the growth
    interpretation of S are meaningless without them.
    """
    pq = Fraction(pq)
    if not 0 <= pq <= 1:
        raise PreimageError(f"ratio {pq} outside [0, 1]")
    with mp.workprec(prec):
        if pq == 0 or pq == 1:
            m = fam.a0 if pq == 0 else fam.a1
        else:
            m = SternBrocotNode.root(fam).descend(pq).m_uv
        rho = spectral_radius(m, prec)
        exact = rho if isinstance(rho, QuadExt) else None
        val = exact.to_mpf(prec) if exact is not None else rho
        return SValue(pq, mlog(val) / pq.denominator, exact)


try:  # a Fraction from a coprime pair with positive denominator, no gcd
    _coprime_fraction = Fraction._from_coprime_ints  # Python 3.12 on
except AttributeError:  # Python 3.10 and 3.11
    def _coprime_fraction(n: int, d: int) -> Fraction:
        return Fraction(n, d, _normalize=False)


# Rounds of stripping a small shared factor before _reduced falls back to
# a full gcd.  No hmst step tried needed more than four (the 1/(n+1) up
# to q = 301, 137/350, 213/350 and the bench's deep-steps lists), and the
# powers of 3 up to 3^3242 of some Kozyakin-type steps go in eight.
_STRIP_ROUNDS = 8


def _twos(x: int) -> int:
    """The exponent of 2 in x != 0."""
    return (x & -x).bit_length() - 1


def _reduced(n: int, factors: list[tuple[int, int]]) -> Fraction:
    """n / den in lowest terms, den the product of the powers in
    ``factors``: (power, base) pairs of nonzero integers in which every
    prime of the power divides the base.

    No gcd runs on full-size numbers unless n and den share a high power
    of an odd prime.  The common power of two is shifted out and the sign
    moved to n.  Then each round takes g = gcd(n, R, den) by two small
    gcds, R the odd part of the product of the bases, and divides n and
    den by g, g^2, g^4, ... while that divides both, which at least halves
    the largest power of g dividing both.  Proof that g = 1 makes the pair
    coprime: every prime of den divides a base, so it is 2 or divides R;
    an odd prime of both n and den would divide g, and 2 does not divide
    both after the shift.  The divisions keep every prime of den among
    those of 2R.  After ``_STRIP_ROUNDS`` rounds Fraction reduces the rest.
    """
    if n == 0:
        return Fraction(0)
    den = radical = 1
    for power, base in factors:
        den *= power
        radical *= abs(base)
    shift = min(_twos(n), _twos(den))
    n, den = n >> shift, den >> shift
    if den < 0:
        n, den = -n, -den
    radical >>= _twos(radical)
    for _ in range(_STRIP_ROUNDS):
        g = gcd(n % radical, radical)
        if g > 1:
            g = gcd(den % g, g)
        if g == 1:
            return _coprime_fraction(n, den)
        while not (den % g or n % g):
            n, den, g = n // g, den // g, g * g
    return Fraction(n, den)


class _ExactSpectrum:
    """Trace-form endpoints over the integer matrix a = k*A, each
    multiplied by ``scale``.  sqrt(disc a) = r*sqrt(core), with core split
    from disc A = disc(a)/k^2 as QuadExt.make splits it."""

    def __init__(self, a: Mat2, k: int, scale: Fraction):
        self.a, self.scale, self.t = a, scale, a.trace()
        self.disc = self.t * self.t - 4 * a.det()
        if self.disc < 0:
            raise PreimageError(f"complex eigenvalues of {a}")
        self.degenerate = self.disc == 0
        if not self.degenerate:
            red = Fraction(self.disc, k * k)
            self.core, s = squarefree_split(red.numerator * red.denominator)
            self.r = Fraction(k * s, red.denominator)

    def _inverse(self, x: tuple) -> tuple:
        """1/x as an integer pair over an integer."""
        if self.core == 1:  # sqrt(disc) = r is an integer
            return (1, 0), x[0] + x[1] * int(self.r)
        return (x[0], -x[1]), x[0] * x[0] - x[1] * x[1] * self.disc

    def _n(self, b: Mat2) -> tuple:
        """N = 2 sqrt(d) rho(B*P) as an integer pair, from tr B and tr(A*B)."""
        a, tb = self.a, b.a + b.d
        n = (2 * (a.a * b.a + a.b * b.c + a.c * b.b + a.d * b.d) - self.t * tb, tb)
        return n if _sign_two_term(n[0], n[1], self.disc) >= 0 else (-n[0], -n[1])

    def ends(self, b1: Mat2, q: int, k: int, b2: Optional[Mat2] = None) -> list[QuadExt]:
        """[lo], and given ``b2`` [lo, hi], of the step of A = B1*B2 from
        one ladder: lo = N1^q (2/lam)^k / (2 sqrt(d))^q, 2/lam = mu/det,
        and hi = lo |4 d det(B2) / norm(N2)|^q (module docstring), or
        ``endpoint``'s when norm(N2) = 0."""
        d, (y, other) = self.disc, self._inverse((abs(self.t), 1))
        lists = [([(2, k)], [(2, q), (d, (q + 1) // 2), (other, k)])]
        n2 = b2 is not None and self._n(b2)
        if norm := n2 and abs(n2[0] * n2[0] - n2[1] * n2[1] * d):
            lists.append(([(2, q + k), (d, q // 2), (abs(b2.det()), q)], [(other, k), (norm, q)]))
        ends = self._ends((self._n(b1), q, y, k), lists)
        return ends if norm or b2 is None else ends + [self.endpoint(b2, q, q - k, True)]

    def endpoint(self, b: Mat2, q: int, k: int, upper: bool) -> QuadExt:
        """rho(B*P)^q / rho(A)^k, or when ``upper`` rho(A)^k / rho(P*B)^q =
        lam^k (2 sqrt(d))^q / (2^k N^q), 1/N taken over its norm."""
        if not upper:
            return self.ends(b, q, k)[0]
        (x, other), y = self._inverse(self._n(b)), (abs(self.t), 1)
        return self._ends((x, q, y, k), [([(2, q), (self.disc, q // 2)], [(2, k), (other, q)])])[0]

    def _ends(self, powers: tuple, lists: list) -> list[QuadExt]:
        """x^q y^k sqrt(d)^(q % 2) * scale * prod(num) / prod(den), (x, q,
        y, k) = ``powers``, from one ladder for each (num, den) in ``lists``
        of known factors as (base, exponent) pairs.  Past ``_CANCEL_BITS``
        its contents join each numerator (``_split``), cancelled at the
        bases (``_cancelled``).  The lists go to ``_reduced`` and to the
        recipe of an end past ``_REPLAY_BITS`` whose cancelled factors have
        short odd parts; its ends share one decimal ladder."""
        d, (x, q, y, k) = self.disc, powers
        powers, contents = (x, q, y, k, None), []
        if q * x[0].bit_length() + k * y[0].bit_length() > _CANCEL_BITS:
            powers, contents = _split(x, q, y, k, d)
        za, zb = _ladder(powers, q % 2, d, self.r, self.core == 1)
        ladder = cache(partial(_ladder, powers, q % 2, d, self.r, self.core == 1, Decimal))
        rd, ends = self.r.denominator, []
        for num, den in lists:
            num, den = num + [(self.scale.numerator, 1)], den + [(self.scale.denominator, 1)]
            if contents:
                num, den = _cancelled(num + contents, den)
            top, factors = prod(base ** e for base, e in num), [(base ** e, base) for base, e in den]
            ma, mb = za * top, zb * top
            fa, fb = _reduced(ma, factors), _reduced(mb, factors + [(rd, rd)])
            ends.append(QuadExt(fa, fb, self.core if self.core > 1 else 0))
            if max(fa.numerator.bit_length(), fa.denominator.bit_length(),
                   fb.numerator.bit_length(), fb.denominator.bit_length()) > _REPLAY_BITS:
                # a part's cancelled factor g = |m| / |numerator| is 2^s h, s = twos(m) -
                # twos(numerator) and h odd, below 2^(bits(m) - bits(numerator) - s + 1)
                parts = [(abs(m), abs(f.numerator), _twos(m) - _twos(f.numerator)) if f else (1, 1, 0)
                         for m, f in ((ma, fa), (mb, fb))]
                if all(m.bit_length() - n.bit_length() - s < _SPLIT_LEAF for m, n, s in parts):
                    g = [(m >> s) // n << s for m, n, s in parts]
                    object.__setattr__(ends[-1], "_text", partial(_replay, ladder, num, den, self.r, g))
        return ends


# The estimated bits of an end's ladder above which its contents are split
# off and its known factors cancelled at their bases.  Timed per end by
# band of these bits: below 2048 the split costs hmst and Kozyakin-type
# ends 4-23% more than the full gcd it can save; from 4096 it saves
# Kozyakin-type ends 6-72% and costs hmst's 2-11% (their contents share no
# odd factor with the denominator).
_CANCEL_BITS = 4096

# The printed bits of an end above which it prints from its decimal replay
# rather than through ``int_str``, when its cancelled factors are short.
# Timed with the ladder shared by a step's ends: the bench's deep-steps
# lists print fastest from 6k to 10k bits, 1-2% slower at 16k, 6% at 33k.
_REPLAY_BITS = 8_000


def _content(x: tuple) -> tuple:
    """(x / g, g) for the nonzero integer pair x, g the gcd of its parts."""
    g = gcd(*x)
    return (x[0] // g, x[1] // g), g


def _split(x: tuple, q: int, y: tuple, k: int, d: int) -> tuple:
    """x^q y^k in Z[sqrt(d)] as the contents g1^m g2^j times the powers
    w1^m w2^j z: m = min(q, k) and w1 g1 = xy, and the rest of x or y,
    z^(2j + i), as w2 g2 = z^2 and z^i (z None when i = 0).  Returns
    ((w1, m, w2, j, z), the contents as (base, exponent) pairs).  A prime
    whose ideals divide x and y, or whose ramified ideal divides z, thus
    leaves most of its power in the contents, not in the ladder's parts."""
    m = min(q, k)
    z, e = (x, q - m) if q > k else (y, k - m)
    (w1, g1), (w2, g2) = _content(pair_mul(x, y, d)), _content(pair_mul(z, z, d))
    return (w1, m, w2, e // 2, z if e % 2 else None), [(g1, m), (g2, e // 2)]


def _cancelled(num: list, den: list) -> tuple[list, list]:
    """The (base, exponent) lists of a numerator and a denominator with
    their shared factors divided out: powers of two at the exponents (odd
    bases, one base 2 on the side that keeps a power of it), then, while a
    base a^e of the numerator and b^f of the denominator share a c > 1,
    with t = min(e, f) they become (a/c)^t a^(e-t) and (b/c)^t b^(f-t).
    Each step divides the denominator by c^t, so the loop ends."""
    t = sum(_twos(b) * e for b, e in num) - sum(_twos(b) * e for b, e in den)
    todo, den = ([(b >> _twos(b), e) for b, e in fs if e] for fs in (num, den))
    done, todo, den = [], todo + [(2, t)] * (t > 0), den + [(2, -t)] * (t < 0)
    while todo:
        a, e = todo.pop()
        for i, (b, f) in enumerate(den):
            c = gcd(a, b)
            if c > 1:
                t = min(e, f)
                den[i:i + 1] = [(b // c, t)] + [(b, f - t)] * (f > t)
                todo += [(a // c, t)] + [(a, e - t)] * (e > t)
                break
        else:
            done.append((a, e))
    return done, den


def _ladder(powers: tuple, odd: int, d, r, rational: bool, ring=int) -> tuple:
    """The factors of an end's parts a, b over ``ring``: x^q y^k z in
    Z[sqrt(d)] for ``powers`` = (x, q, y, k, z) (z None for 1), times
    sqrt(d) when ``odd``."""
    x, q, y, k, z = powers
    if ring is not int:
        x, y, z = (p and tuple(map(ring, p)) for p in (x, y, z))
    zx, zy = pair_pow(x, q, ring(d), y, k)
    if z is not None:
        zx, zy = pair_mul((zx, zy), z, ring(d))
    if odd:  # an odd q leaves one factor sqrt(d)
        zx, zy = zy * d, zx
    return (zx + zy * int(r), 0) if rational else (zx, zy * r.numerator)


_GUARD = (1 << 61) - 1  # a prime


def _replay(ladder, num, den, r, g, value: QuadExt) -> Optional[tuple[str, str]]:
    """(str(a), str(b)) of the exact end ``value``: ``_ExactSpectrum._ends``
    rerun in ``EXACT_DECIMAL`` (``ladder()``, its step's ``_ladder`` over
    Decimal, run once for both ends, and the same known factors), then
    each part divided by its cancelled factor g.  libmpdec's large
    products are number-theoretic transforms, so this costs about one more
    ladder; converting the binary integers costs more.  When the two parts
    share their denominator (the same cancelled factor and an integer r,
    as in every hmst end), it is divided and printed once.

    Every operation is exact (Inexact is trapped) on the integers that the
    binary path computed, so the replay prints the same integers; signs
    come from ``value``.  A guard against a recipe that does not describe
    that arithmetic checks each printed integer against its binary value
    modulo the prime 2^61 - 1, in linear time on both sides.  On a mismatch
    this returns None, and ``QuadExt.strs`` prints ``value`` through
    ``int_str``.
    """
    with localcontext(EXACT_DECIMAL):
        za, zb = ladder()
        top, bottom = (prod(Decimal(base) ** e for base, e in fs) for fs in (num, den))
        texts, bottoms = [], {}  # (r's denominator or 1, g) -> (residue, digits) of a denominator
        for z, f, extra, cancelled in ((za, value.a, 1, g[0]), (zb, value.b, r.denominator, g[1])):
            if not f:
                texts.append("0")
                continue
            m = abs(z * top) // cancelled
            if (extra, cancelled) not in bottoms:
                n = abs(bottom * extra) // cancelled
                bottoms[extra, cancelled] = n % _GUARD, format(n, "f")
            n_mod, n_text = bottoms[extra, cancelled]
            if [m % _GUARD, n_mod] != [abs(f.numerator) % _GUARD, f.denominator % _GUARD]:
                return None
            texts.append(f"{'-' if f < 0 else ''}{m:f}" + (f"/{n_text}" if f.denominator != 1 else ""))
    return tuple(texts)


class _FloatSpectrum:
    """The same endpoints in mpf at ``prec``, with mu = det/lambda so that
    the small eigenvalue does not cancel."""

    def __init__(self, a: Mat2, prec: int):
        self.a, self.prec = a, prec
        with mp.workprec(prec):
            t, det = mpf(a.trace()), mpf(a.det())
            disc = t * t - 4 * det
            self.degenerate = disc <= 0 or msqrt(disc) < abs(t) * mpf(2) ** (-prec + 16)
            if not self.degenerate:
                self.root = msqrt(disc)
                self.rho = (abs(t) + self.root) / 2
                self.mu = det / ((t + self.root) / 2)

    def endpoint(self, b: Mat2, q: int, k: int, upper: bool) -> mpf:
        with mp.workprec(self.prec):
            rho_b = abs((self.a @ b).trace() - self.mu * b.trace()) / self.root
            return self.rho ** k / rho_b ** q if upper else rho_b ** q / self.rho ** k

    def ends(self, b1: Mat2, q: int, k: int, b2: Mat2) -> list[mpf]:
        return [self.endpoint(b1, q, k, False), self.endpoint(b2, q, q - k, True)]


_EXACT = nullcontext()


def _rounding(fam: MatrixFamily, prec: int):
    """The context a product of ``fam``'s matrices is taken in: ``prec``
    bits for a float family, none for an exact one, whose integer products
    never round."""
    return _EXACT if fam.integral else mp.workprec(prec)


@dataclass(frozen=True, slots=True, eq=False)
class SternBrocotNode:
    """A standard pair (u, v) with the letter counts (zeros, ones) of u and
    v and M(u), M(v) over the generators the root takes once: k0*A0, k1*A1
    for exact families (``scales`` = (k0, k1)), else A0, A1 at the family's
    precision.  The fraction is slope(uv); the children are (u, u^k v) below
    and (u v^k, v) above, and M(uv) = M(v) M(u) makes a child one product
    and a run of k steps one matrix power.  Nodes compare and hash by
    identity, so a root can key the steps of its family.
    """

    fam: MatrixFamily
    scales: tuple[int, int]
    pair: StandardPair
    count_u: tuple[int, int]
    count_v: tuple[int, int]
    m_u: Mat2
    m_v: Mat2

    @classmethod
    def root(cls, fam: MatrixFamily) -> "SternBrocotNode":
        (g0, k0), (g1, k1) = (  # float generators are kept as they are
            fam.integer_generators() if fam.integral else ((fam.a0, 1), (fam.a1, 1))
        )
        return cls(fam, (k0, k1), StandardPair("0", "1"), (1, 0), (0, 1), g0, g1)

    @property
    def q(self) -> int:
        return sum(self.count_u) + sum(self.count_v)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.count_u[1] + self.count_v[1], self.q)

    @property
    def slopes(self) -> tuple[Fraction, Fraction]:
        """(slope(u), slope(v)), the Farey parents of the fraction."""
        return tuple(Fraction(c[1], sum(c)) for c in (self.count_u, self.count_v))

    def child(self, below: bool, k: int = 1) -> "SternBrocotNode":
        """(u, u^k v) when ``below``, else (u v^k, v)."""
        u, v, cu, cv = self.pair.u, self.pair.v, self.count_u, self.count_v
        m_u, m_v = self.m_u, self.m_v
        with _rounding(self.fam, self.fam.prec):
            if below:
                pair, m_v = StandardPair(u, u * k + v), m_v @ m_u ** k
                cv = (k * cu[0] + cv[0], k * cu[1] + cv[1])
            else:
                pair, m_u = StandardPair(u + v * k, v), m_v ** k @ m_u
                cu = (cu[0] + k * cv[0], cu[1] + k * cv[1])
        return SternBrocotNode(self.fam, self.scales, pair, cu, cv, m_u, m_v)

    def descend(self, pq: Fraction) -> "SternBrocotNode":
        """The node of p/q, for slope(u) < p/q < slope(v) or p/q this node's
        fraction: one run of children per partial quotient of p/q."""
        p, q, node = pq.numerator, pq.denominator, self
        while True:
            (zu, ou), (zv, ov) = node.count_u, node.count_v
            left, right = p * (zu + ou) - q * ou, q * ov - p * (zv + ov)
            # p/q lies below the fraction of (u, u^j v) iff (j + 1) left < right
            # and above that of (u v^j, v) iff left > (j + 1) right
            if left == right:
                return node
            if min(left, right) <= 0:  # only on the first pass
                raise PreimageError("need {} < p/q < {}, got {}".format(*self.slopes, pq))
            if left < right:
                node = node.child(True, (right - 1) // left)
            else:
                node = node.child(False, (left - 1) // right)

    def walk(self, qmax: int) -> Iterator["SternBrocotNode"]:
        """The nodes of this subtree with denominator at most ``qmax``, in
        ascending order of fraction."""
        stack: list[SternBrocotNode] = []
        node = self if self.q <= qmax else None
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.child(True) if node.q + sum(node.count_u) <= qmax else None
            node = stack.pop()
            yield node
            node = node.child(False) if node.q + sum(node.count_v) <= qmax else None

    @property
    def m_uv(self) -> Mat2:
        """M(uv) = M(v) M(u) over A0, A1; exact families divide out s(uv) = k0^zeros k1^ones."""
        with _rounding(self.fam, self.fam.prec):
            m = self.m_v @ self.m_u
        (k0, k1), (zu, ou), (zv, ov) = self.scales, self.count_u, self.count_v
        return m.scale(Fraction(1, k0 ** (zu + zv) * k1 ** (ou + ov))) if self.fam.integral else m

    def _spectrum(self, a: Mat2, k: int, scale: Fraction, prec: int):
        """Trace-form endpoints over a = k*A: exact times ``scale``, or in mpf at ``prec``."""
        if not self.fam.asserted_sturmian:
            raise PreimageError(f"family {self.fam.label!r} does not assert Sturmian extremality")
        return _ExactSpectrum(a, k, scale) if self.fam.integral else _FloatSpectrum(a, prec)

    def interval(self, prec: int = DEFAULT_PREC) -> PreimageInterval:
        """The step of this node's fraction: the lower end rho(B1*P)^q /
        rho(A)^q1 and the upper end rho(A)^q2 / rho(P*B2)^q, both read from
        the trace-form spectrum of A = M(u) M(v)."""
        (k0, k1), (zu, ou), (zv, ov) = self.scales, self.count_u, self.count_v
        s_u, s_v = k0 ** zu * k1 ** ou, k0 ** zv * k1 ** ov
        with _rounding(self.fam, prec):
            a = self.m_u @ self.m_v
        spec = self._spectrum(a, s_u * s_v, Fraction(s_v ** (zu + ou), s_u ** (zv + ov)), prec)
        if spec.degenerate:
            raise PreimageError(
                f"repeated eigenvalue of M(uv) for {self.fraction} (hypothesis violation)"
            )
        ends = spec.ends(self.m_u, self.q, sum(self.count_u), self.m_v)
        lo, hi = (_endpoint(x, self.q, prec, self.fam) for x in ends)
        return PreimageInterval(self.fraction, lo, hi, pair=self.pair)

    def varrho(self, step: PreimageInterval, alpha, prec: int = DEFAULT_PREC) -> mpf:
        """JSR of {A0, alpha*A1} for alpha in ``step``, this node's step:
        (alpha^p rho(M(uv)))^(1/q).  Out-of-step alpha is rejected."""
        if not step.contains(alpha):
            raise PreimageError(f"alpha {alpha} outside the ratio-{step.fraction} interval")
        with mp.workprec(prec):
            rho = spectral_radius_mpf(self.m_uv, prec)
            a = mpf_from_fraction(alpha, prec) if isinstance(alpha, (int, Fraction)) else mpf(alpha)
            return (a ** step.fraction.numerator * rho) ** (mpf(1) / step.fraction.denominator)

    def boundary(self, which: int, prec: int = DEFAULT_PREC) -> PreimageInterval:
        """The ratio-0 (``which`` = 0) or ratio-1 step.  Read at the root only:
        its M(u), M(v) are the generators k0*A0, k1*A1."""
        k0, k1 = self.scales
        fixed, other, k = (self.m_u, self.m_v, k0) if which == 0 else (self.m_v, self.m_u, k1)
        frac = Fraction(which)
        spec = self._spectrum(fixed, k, Fraction(k1, k0), prec)
        if spec.degenerate:  # {0} for ratio 0, the empty set for ratio 1
            zero = Endpoint(mpf(0)) if which == 0 else None
            return PreimageInterval(frac, None, zero, degenerate=True)
        # ratio 0: rho(A0) / rho(P0*A1); ratio 1: rho(A0*P1) / rho(A1)
        ep = _endpoint(spec.endpoint(other, 1, 1, which == 0), 2, prec, self.fam)
        return PreimageInterval(frac, None, ep) if which == 0 else PreimageInterval(frac, ep, None)


def preimage_interval(
    fam: MatrixFamily, pq: Fraction, prec: int = DEFAULT_PREC
) -> PreimageInterval:
    """The closed interval of parameters whose ratio is p/q in (0, 1)."""
    return SternBrocotNode.root(fam).descend(Fraction(pq)).interval(prec)


def preimage_zero(fam: MatrixFamily, prec: int = DEFAULT_PREC) -> PreimageInterval:
    """[0, rho(A0)/rho(P0*A1)] when A0 is diagonalisable, else just {0}."""
    return SternBrocotNode.root(fam).boundary(0, prec)


def preimage_one(fam: MatrixFamily, prec: int = DEFAULT_PREC) -> PreimageInterval:
    """[rho(P1*A0)/rho(A1), +inf) when A1 is diagonalisable, else empty."""
    return SternBrocotNode.root(fam).boundary(1, prec)


def varrho_on_interval(
    fam: MatrixFamily, pq: Fraction, alpha, prec: int = DEFAULT_PREC
) -> mpf:
    """JSR of {A0, alpha*A1} for alpha inside the ratio-p/q interval.

    Equals rho(M_alpha(uv))^(1/q), constant-exponent along the whole
    interval; membership is checked (exactly, for exact families) and
    out-of-interval alpha is rejected rather than extrapolated.  uv has p
    ones, so M_alpha(uv) = alpha^p M(uv).  The step and uv both come from
    the node of p/q.
    """
    node = SternBrocotNode.root(fam).descend(Fraction(pq))
    return node.varrho(node.interval(prec), alpha, prec)


def general_one_over_n_interval(
    fam: MatrixFamily, n: int, prec: int = DEFAULT_PREC
) -> PreimageInterval:
    """Closed-form interval for ratio 1/(n+1) on the unipotent integer
    family, cross-asserted against the generic construction.

    With m = n^2 + 4n, the endpoints are

        (1 + 1/sqrt(m))^(n+1) / (1 + n/2 + sqrt(m)/2)

    and

        (1 + n/2 + sqrt(m)/2)^n / ((n+1)/2 + (n^2+3n-2)/(2m) * sqrt(m))^(n+1).

    A mismatch with the generic route signals an implementation fault and
    raises.
    """
    if not fam.is_hmst():
        raise PreimageError("closed form is specific to the hmst family")
    if n < 1:
        raise PreimageError("need n >= 1")
    m = n * n + 4 * n
    one = Fraction(1)
    lo_base = QuadExt.make(one, Fraction(1, m), m)  # 1 + sqrt(m)/m = 1 + 1/sqrt(m)
    rho_a = QuadExt.make(1 + Fraction(n, 2), Fraction(1, 2), m)
    hi_den = QuadExt.make(Fraction(n + 1, 2), Fraction(n * n + 3 * n - 2, 2 * m), m)
    lo = lo_base ** (n + 1) / rho_a
    hi = rho_a ** n / hi_den ** (n + 1)
    generic = preimage_interval(fam, Fraction(1, n + 1), prec)
    if generic.lo.exact != lo or generic.hi.exact != hi:
        raise PreimageError(
            f"closed form disagrees with generic construction at 1/{n + 1}"
        )
    return generic
