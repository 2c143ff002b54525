"""Brute-force, assumption-free bounds on the JSR of {A0, alpha*A1}.

The lower bound is the Gelfand-style maximum of rho(M_alpha(w))^(1/|w|)
over all words up to a length cap, enumerated over necklaces only
(spectral radius is rotation invariant, so canonical rotations lose
nothing); each radius comes from the exact trace and det of the product.
The upper bound is the maximum of a submultiplicative norm over all words
of exactly the cap length, taken as the smaller of two valid norms: the
plain spectral norm, and the spectral norm after the balancing similarity
diag(1, sqrt(alpha)), which equalizes the alpha-weighted transfer between
the two generators and is markedly tighter away from alpha = 1.  Both
norms depend on a product only through its Frobenius mass and its det,
and det is fixed by the ones-count, so the enumeration keeps one largest
mass per ones-count, and evaluates at full precision only the ones-counts
that can hold the largest norm: away from ties, one per norm.  Everything here
validates the closed-form machinery at desk scale and assumes nothing
about extremality structure.

Double-precision screen.  Almost every word is far from the best value,
so each is first bounded in doubles and evaluated at full precision only
when that bound cannot rule it out.  The results are bit-identical to
evaluating every word.  Below, u = 2^-53 is the unit roundoff of a
double, fp the family's precision, and a word w has n letters, k ones.
The proof of each margin:

* Generators in doubles.  B_i = fl(A_i / nu_i), with nu_i the exact
  largest row sum of |A_i|, so ||A_i / nu_i||_inf = 1 and every product of
  the B_i stays in [-1, 1]: no overflow.  Double products are within
  (1 + 3.01u)^n - 1 <= 3.02nu of X(w) = M(w) / nu(w), nu(w) = nu_0^(n-k)
  nu_1^k, in the inf-norm, for any signs (induction: err_{j+1} <=
  c (1 + err_j) + err_j with c = gamma_2 (1 + u) + u); mpf products at fp
  bits are within (1 + 2.01 2^-fp)^n - 1 <= 2.02n 2^-fp.  An underflow
  adds at most 2^-1075 per operation, n 2^-1070 in all.
* Lower bound (``_Screen``).  One depth-first walk of the FKM tree of
  prenecklaces (``_necklace_levels``) lists every necklace of n <= L
  letters as (k, trace, word bits), by length and in lexicographic order;
  each node's product is one product of a generator with its parent's,
  the same left-to-right integer or double products as a scan of the
  words one by one (the last length's traces are formed without the
  product, by the same roundings).  A word's key is |t|, t its integer trace, for an
  exact family, and fl(|t| + 2 eps + 16u), t = fl(tr F) with F the double
  product, for a float one.  For a class (n letters, k ones) and a key K,
  the double B(K) is at or above log x for every necklace w of the class
  whose key is at most K, where x = fl(rho(M(w)) * fl(alpha^k)) is the mpf
  that ``jsr_bounds`` and ``check_condition_v`` compute.  It rests on one
  fact: at a fixed det, the spectral radius of a real 2x2 matrix does not
  decrease as |trace| grows (it is sqrt(det) while trace^2 < 4 det, then
  (|trace| + sqrt(trace^2 - 4 det)) / 2, which rises), and all the words
  of a class share one det.
  - Exact families: M(w) = G(w) / D with G(w) the integer product and
    D = k0^(n-k) k1^k.  With Delta = det(G0)^(n-k) det(G1)^k = det G(w)
    and disc = K^2 - 4 Delta, rho(G(w)) is at most sqrt(Delta) if
    disc < 0 and (K + sqrt(disc)) / 2 < (K + isqrt(disc) + 1) / 2
    otherwise.  ``radius_from_trace_det`` adds a relative
    (1 + 2^-6) 2^-prec.
  - Float families: F is within eps = 4n(u + 2^-fp) + n 2^-1070 of
    P / nu(w), P the mpf product, entrywise, and X(w) is within
    2.02n 2^-fp <= eps of P / nu(w).  So
    tr(P / nu(w)) is within 2 eps + 2.1u of t, and det(P / nu(w)) within
    4.2 eps of the class det det(A0/nu0)^(n-k) det(A1/nu1)^k.  Its
    magnitude is exp(lg / 2), lg the log of its square; the double sum of
    the ``_log_float`` of det(A_i/nu_i)^2 is within 2^-49 (|lg| + 64) of
    lg, so exp((lg -+ 2^-40 (|lg| + 64)) / 2), with the sign of the
    class, bound it.  ``spectral_radius`` at prec >= 53 returns, to a
    relative 4 2^-prec, the radius of a matrix whose trace is within
    2^(2-prec) and whose det is within 16 2^-prec of P / nu(w)'s.  The
    radius of a real 2x2 matrix with |trace| <= K and det in [dlo, dhi] is
    at most max((K + sqrt(K^2 - 4 dlo)) / 2, sqrt(dhi)), by the fact
    above.  The key holds 2 eps + 16u, dlo and dhi widen the class's
    bounds by 5 eps + 32u, K^2 - 4 dlo takes 64u and the result 8u, which
    covers the doubles' own rounding, so log rho(P) <= log r + log nu(w).
    Both cases bound the radius and never its reciprocal, so complex
    spectra and negative dets need nothing more.
  - The double sum of the logs (math.log of an integer or ``_log_float``
    of k_i, nu_i and alpha, each within 3u (1 + |value|)) is within
    8u (S + 1), S the sum of their absolute values.  The mpf radius,
    alpha^k and their product add at most 28 2^-prec to log x.  B adds
    2^-40 (S + 64), which exceeds both by 2^9 at prec >= 53.  With
    alpha = 0 and k > 0, x = 0 and B = -inf.  Below 53 bits, of prec or
    of a float family, B = +inf and no word is screened.
* Class caps.  For a class and a limit y, ``_Screen.cap`` solves B's
  formula for the key at which it meets y, and keeps that key (or one a
  relative 2^-40 lower) as the cap C only when B(C) < y as computed; else
  C = -1 (none), and likewise where y = -inf or below 53 bits.  With
  alpha = 0 and k > 0, C = +inf.  A word whose key is at most C has
  log x <= B(C) < y, so it is skipped with one comparison and no log; a
  word above its cap takes its own bound B(key).  ``jsr_bounds`` takes
  each length's caps with the floor at the start of the length: the floor
  only rises, so they stay sound.  ``check_condition_v``'s limits are
  fixed per length, so each of its caps is computed once.
* Skips.  ``_log_floor(y)`` is at least 2^-41 (1 + |log y|) below log y.
  Below, B is B(C) for a word under its cap and B(key) otherwise.
  - ``jsr_bounds`` skips w when B < fl(n * floor(best)).  Then
    log x < n (log best - 2^-42 (1 + |log best|)); the root
    x^fl(1/n) moves log x / n by at most 2^(2-prec) + |log x| 2^-prec / n,
    so val < best <= fl(best * tie_slack).  The sequence of updates, the
    tie rule and the witness are those of the unscreened loop.
  - ``check_condition_v`` skips a word off the step's slope when
    B < floor(fl(target * (1 - tol))): then x < target * (1 - tol), it
    is no violation, and it is still counted in ``checked``.
  A word that is not skipped gets its radius as before.  A float family's
  mpf product is rebuilt by ``MatrixFamily.product``.
* Upper bound (``_mass_candidates``).  The leaves are products of the
  B_i.  A double product P of m letters, built by any bracketing from
  the B_i, is within e_m = (1 + u)^m (1 + gamma_2)^(m-1) - 1 of X(word)
  in the inf-norm, leaving out underflow: a B_i is within u of its
  A_i / nu_i, and for exact X, Y of norm <= 1 and doubles within e_a,
  e_b of them, fl(P_Y P_X) is within gamma_2 (1 + e_a)(1 + e_b) of
  P_Y P_X, which is within (1 + e_a)(1 + e_b) - 1 of YX: e_(a+b) in
  all.  A product with the identity is exact.  Each leaf F is
  P_last P_first, the halves of lengths ceil(L/2) and floor(L/2) built
  one letter at a time: L - 1 rounded products, as in a left-to-right
  walk, so e_L <= (1 + 3.01u)^L - 1 <= 3.02Lu for L <= 20.  A product's
  underflow adds at most 4 * 2^-1075 per row, which the later products
  scale by less than 1.01, so F is within eps1 = 3.1Lu + L 2^-1073 of
  X(w).
  sum |X_ij| <= 2, so its plain mass a^2 + b^2 + c^2 + d^2 and its
  balanced key (a^2 + d^2) r + x^2 r^2 + y^2, with r = fl(min(alpha,
  1/alpha)) and (x, y) = (b, c) below alpha = 1, (c, b) above (the
  balanced mass times alpha below 1, divided by alpha above), are within
  E = 4.1 eps1 + 40u of X's for any signs.
  Within a ones-count every leaf shares nu(w) and D, so the exact argmax
  has a double within 2E of every other leaf's; keeping the leaves within
  2E of the running maximum keeps it; the kept set is the same for any
  order of the leaves, so it is updated once per batch.  Those few
  leaves are rebuilt as integer products, whose masses and keys give the
  exact maxima.  Each class det and maximum n / den^2 is rounded by
  ``mpf_from_ratio``, which divides out only the gcd of n with the odd
  part of den^2 and shifts by its power of two: the bits of
  ``mpf_from_fraction`` of the reduced fraction, without its full gcd.
* Class screen (``_upper_bounds``).  For a ones-count k and a norm, the
  exact largest plain mass or balanced key K of the class's X(w) lies in
  t -+ 2E, t its double maximum (``tops``).  Its sigma is nu(w) sqrt(S/r),
  S = (K + sqrt(K^2 - c)) / 2, c = 4 r^2 Delta^2, Delta = det(A0/nu0)^(L-k)
  det(A1/nu1)^k, r = min(alpha, 1/alpha) for the balanced norm and 1 for
  the plain one: S rises with K and falls with c.  The double sum lc of
  log 4, -2 |log alpha| and the logs of det(A_i/nu_i)^2 (all <= 0 but
  log 4) is within 2^-49 (|lc| + 64) of log c, so exp(lc -+ 2^-40 (|lc| +
  64)) bound c.  mpf rounds f and det to a relative 2^-prec, and
  f^2 - 4 det^2 to an absolute 8 2^-prec f^2; 64u K^2, added to the upper
  gap and taken from the lower one, covers that and the doubles' rounding
  and underflow at prec >= 53.  The other logs and roundings are within
  2^-49 (S' + 64), S' the sum of the logs' absolute values, and the
  bounds add or take 2^-40 (S' + 64).  A class whose upper bound is below
  the largest lower bound of its norm has a smaller mpf value than that
  class, so ``max`` returns the same bits without it.  Below 53 bits
  every class is evaluated.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from mpmath import mp, mpf

from .family import MatrixFamily
from .linalg2 import radius_from_trace_det, sigma_from_frobenius
from .precision import DEFAULT_PREC, as_mpf, fraction_from_mpf, mpf_from_fraction, mpf_from_ratio
from .rational_preimage import SternBrocotNode
from .words import is_cyclically_balanced, slope

MAX_LEN_CAP = 20

_U = 2.0 ** -53  # unit roundoff of a double
_MARGIN = 2.0 ** -40  # relative slack of every double bound (module docstring)
_LN2 = math.log(2)


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class OracleBound:
    alpha: mpf
    max_len: int
    lower: mpf
    lower_witness: str
    upper: mpf
    upper_norm: str
    witness_is_cyclically_balanced: bool

    def as_json(self) -> dict:
        return {
            "alpha": mp.nstr(self.alpha, 30),
            "max_len": self.max_len,
            "lower": mp.nstr(self.lower, 30),
            "witness": self.lower_witness,
            "witness_slope": str(slope(self.lower_witness)),
            "witness_cyclically_balanced": self.witness_is_cyclically_balanced,
            "upper": mp.nstr(self.upper, 30),
            "upper_norm": self.upper_norm,
        }


def _scaled_value(rho_int: mpf, alpha: mpf, ones: int, length: int) -> mpf:
    return (rho_int * alpha ** ones) ** (mpf(1) / length)


def _per_class(pair: tuple, length: int, ones: int):
    """pair[0]^(length - ones) * pair[1]^ones: the scale factor or the
    determinant of a product of ``length`` integer letters, ``ones`` of
    them ones (see ``MatrixFamily.integer_generators``)."""
    return pair[0] ** (length - ones) * pair[1] ** ones


def _mul(x: tuple, y: tuple) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _trace(x: tuple, y: tuple):
    """The trace of ``_mul(x, y)``, by the same roundings."""
    return (x[0] * y[0] + x[1] * y[2]) + (x[2] * y[1] + x[3] * y[3])


def _log_float(x) -> float:
    """log(x) as a double within 2^-52 (1 + |log x|) for x >= 0 (an int,
    Fraction or mpf); -inf at 0.  ``float`` rounds each of them to nearest,
    which moves the log by at most 1.01u; where that gives a positive
    normal double, math.log of it (a libm log within 1 ulp) adds at most
    2u |log x| + 3u^2.  Elsewhere mpmath takes the log at 64 bits (math.log
    of an int past the double range can miss the bound)."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if 2.0 ** -1022 <= f < math.inf:  # a positive normal double
        return math.log(f)
    with mp.workprec(64):
        return float(mp.log(mpf_from_fraction(x, 64) if isinstance(x, (int, Fraction)) else x))


def _log_floor(x: mpf) -> float:
    """A double at least 2^-41 (1 + |log x|) below log(x); -inf if x <= 0."""
    if x <= 0:
        return -math.inf
    lx = _log_float(x)
    return lx - _MARGIN * (1 + abs(lx))


# One call's set-up: per generator, G_i = k_i A_i's entries, k_i, det G_i,
# A_i / nu_i in doubles (nu_i: largest row sum of |A_i|, 1 for A_i = 0) and
# the ``_log_float`` of k_i, nu_i and det(A_i / nu_i)^2; then log alpha.
_Setup = namedtuple("_Setup", "ints dens dets units log_k log_nu log_det2 log_alpha")


def _setup(fam: MatrixFamily, alpha_f: mpf) -> _Setup:
    columns = []
    for g, k in fam.integer_generators():
        a, b, c, d = e = g.entries()
        s = max(abs(a) + abs(b), abs(c) + abs(d)) or k  # nu = s / k
        det = a * d - b * c
        columns.append((e, k, det, tuple(x / s for x in e), _log_float(k),
                        _log_float(Fraction(s, k)), _log_float(Fraction(det * det, s ** 4))))
    return _Setup(*zip(*columns), _log_float(alpha_f))


def _exact_log_radius(t: int, det: int) -> float:
    """A double above log rho of every integer 2x2 matrix with |trace| <= t
    and determinant ``det`` (module docstring)."""
    disc = t * t - 4 * det
    return math.log(det) / 2 if disc < 0 else math.log(t + math.isqrt(disc) + 1) - _LN2


def _float_log_radius(t: float, dlo: float, dhi: float) -> float:
    """Upper bound on log rho of every real 2x2 matrix with |trace| <= ``t``
    and det in [``dlo``, ``dhi``], widened for the doubles' own rounding
    (module docstring)."""
    r = (t + math.sqrt(max(t * t - 4 * dlo + 64 * _U, 0.0))) / 2
    if dhi > 0:
        r = max(r, math.sqrt(dhi))
    return math.log(r * (1 + 8 * _U))


def _necklace_levels(g0: tuple, g1: tuple, max_len: int) -> list:
    """levels[n] for n <= ``max_len``: (ones, trace, bits) for every
    necklace of n letters, in lexicographic order, with ``bits`` the word
    as an n-bit integer (first letter highest) and ``trace`` that of the
    product g_(w_n) ... g_(w_1) of the generators ``g0``, ``g1``.

    One depth-first walk of the FKM tree of prenecklaces (Ruskey, Savage
    and Wang, J. Algorithms 13, 1992): a prenecklace a_1 ... a_t whose
    longest Lyndon prefix has p letters has the child a_1 ... a_t a_(t+1-p),
    with the same p, and, when that letter is 0, the child a_1 ... a_t 1,
    with p = t + 1; it is a necklace when p divides t.  The 0 child comes
    first, so each length's words come in lexicographic order, and each
    node's product is one product with its parent's.  Of the last letter's
    children only the necklaces are formed, and only their traces."""
    levels = [[] for _ in range(max_len + 1)]
    last = levels[max_len]
    stack = [(1, 1, 1, 1, g1), (1, 1, 0, 0, g0)]  # (t, p, bits, ones, product)
    while stack:
        t, p, bits, ones, m = stack.pop()
        if t % p == 0:
            levels[t].append((ones, m[0] + m[3], bits))
        u, x = t + 1, bits >> (p - 1) & 1  # x = a_(t+1-p)
        if u < max_len:
            if x:
                stack.append((u, p, 2 * bits + 1, ones + 1, _mul(g1, m)))
            else:
                stack.append((u, u, 2 * bits + 1, ones + 1, _mul(g1, m)))
                stack.append((u, p, 2 * bits, ones, _mul(g0, m)))
        elif u == max_len:
            if max_len % p == 0:
                last.append((ones + x, _trace(g1 if x else g0, m), 2 * bits + x))
            if not x:
                last.append((ones + 1, _trace(g1, m), 2 * bits + 1))
    return levels


class _Screen:
    """The lower bound's double screen for one call (module docstring).

    ``levels`` holds the walk's necklaces.  After ``start(n)``, a necklace
    of n letters and k ones with trace t has the key |t|, widened for a
    float family by what ``start`` returns; ``bound(k, key)`` is a double at
    or above log(rho(M(w)) * alpha^k), as mpf evaluates it, for every such
    necklace of key at most ``key``, and ``cap(k, limit)`` a key, near the
    largest, whose bound it verified below ``limit`` (-1 for none)."""

    def __init__(self, fam: MatrixFamily, st: _Setup, max_len: int, prec: int):
        self.fam, self.st, self.prec = fam, st, prec
        self.exact = fam.integral
        self.certified = prec >= 53 and (self.exact or fam.prec >= 53)
        self.logs = (-st.log_k[0], -st.log_k[1]) if self.exact else st.log_nu
        self.levels = _necklace_levels(*(st.ints if self.exact else st.units), max_len)

    def start(self, n: int):
        """Sets up the classes of n letters; returns the key widening."""
        st, la, logs = self.st, self.st.log_alpha, self.logs
        rest = n * max(map(abs, logs)) + 64
        self.n, self.scale = n, []
        for k in range(n + 1):
            lak = k * la if k else 0.0
            self.scale.append(((n - k) * logs[0] + k * logs[1] + lak, rest + abs(lak)))
        if self.exact:
            self.dets = [_per_class(st.dets, n, k) for k in range(n + 1)]
            return 0
        eps = 4 * n * (_U + 2.0 ** -self.fam.prec) + n * 2.0 ** -1070
        e_det = 5 * eps + 32 * _U
        self.dets = []
        for k in range(n + 1):  # det(A_0 / nu_0)^(n-k) det(A_1 / nu_1)^k, -+ e_det
            z = n - k
            lg = (z * st.log_det2[0] if z else 0.0) + (k * st.log_det2[1] if k else 0.0)
            lo = hi = 0.0
            if lg > -math.inf:
                mg = _MARGIN * (abs(lg) + 64)
                lo, hi = math.exp((lg - mg) / 2), math.exp((lg + mg) / 2)
                if ((st.dets[0] < 0) * z + (st.dets[1] < 0) * k) % 2:
                    lo, hi = -hi, -lo
            self.dets.append((lo - e_det, hi + e_det))
        return 2 * eps + 16 * _U

    def _bound(self, k: int, key) -> float:
        if self.exact:
            lr = _exact_log_radius(key, self.dets[k])
        else:
            lr = _float_log_radius(key, *self.dets[k])
        c, rest = self.scale[k]
        return lr + c + _MARGIN * (abs(lr) + rest)

    def bound(self, k: int, key) -> float:
        if not self.certified:
            return math.inf
        if k and self.st.log_alpha == -math.inf:
            return -math.inf  # alpha = 0: the value is 0
        return self._bound(k, key)

    def cap(self, k: int, limit: float):
        if not self.certified or limit == -math.inf:
            return -1
        if k and self.st.log_alpha == -math.inf:
            return math.inf
        # the log radius at which the bound meets the limit, and the key
        # there from the bound's formula; then the check
        c, rest = self.scale[k]
        z = limit - c - _MARGIN * rest
        lr = min(z / (1 + _MARGIN) if z >= 0 else z / (1 - _MARGIN), 700.0)
        if self.exact:
            r = 2 * math.exp(lr) - 1  # |t| + sqrt(t^2 - 4 det)
            if r <= 0:
                return -1
            num, den = r.as_integer_ratio()
            top = (num * num + 4 * self.dets[k] * den * den) // (2 * num * den)
            tops = (top, top - 1 - (top >> 40))
        else:
            r = math.exp(lr) / (1 + 8 * _U)
            top = r + (self.dets[k][0] - 16 * _U) / r
            tops = (top, top - abs(top) * 2.0 ** -40)
        for top in tops:
            if top >= 0 and self._bound(k, top) < limit:
                return top
        return -1

    def word(self, bits: int) -> str:
        return format(bits, f"0{self.n}b")

    def radius(self, k: int, t, bits: int) -> mpf:
        """rho(M(w)) at ``prec``, exactly as the unscreened oracle did: from
        the integer trace and det, or from the family-precision product."""
        if self.exact:
            den = _per_class(self.st.dens, self.n, k)
            det = Fraction(self.dets[k], den * den)
            return radius_from_trace_det(Fraction(t, den), det, self.prec)
        m = self.fam.product(self.word(bits))
        return radius_from_trace_det(m.trace(), m.det(), self.prec)


def _word_tables(f0: tuple, f1: tuple, length: int) -> list:
    """levels[n][k] for n <= ``length``: the words of length n with k ones
    (as n-bit integers, first letter highest) and their double products,
    as a pair of lists."""
    levels = [[([0], [(1.0, 0.0, 0.0, 1.0)])]]  # the empty word
    for n in range(1, length + 1):
        level = [([], []) for _ in range(n + 1)]
        for k, (words, prods) in enumerate(levels[-1]):
            for x, f in ((0, f0), (1, f1)):
                level[k + x][0].extend([2 * w + x for w in words])
                level[k + x][1].extend([_mul(f, m) for m in prods])
        levels.append(level)
    return levels


def _mass_slack(length: int) -> float:
    """2E for leaves of ``length`` letters (module docstring)."""
    eps1 = 3.1 * length * _U + length * 2.0 ** -1073
    return 2 * (4.1 * eps1 + 40 * _U)


def _mass_candidates(st: _Setup, alpha_f: mpf, length: int):
    """Per ones-count, the words of ``length`` (as ``length``-bit integers,
    first letter highest) whose double plain mass, and whose double
    balanced key, can still be the largest of their ones-count: a set
    that holds the exact argmax (module docstring).  Also the largest
    double mass and key of each ones-count.  The balanced lists are None
    when alpha is zero.

    Each leaf is P_last * P_first, the double products of its last
    ceil(L/2) and first floor(L/2) letters, read from tables of the short
    words by ones-count.  Leaves are kept in batches, one per first half
    and ones-count of the last half."""
    balanced = alpha_f > 0
    f0, f1 = st.units
    if balanced:
        r = float(min(alpha_f, 1 / alpha_f))
        below = alpha_f < 1
    slack = _mass_slack(length)
    tops = ([-1.0] * (length + 1), [-1.0] * (length + 1))
    kept = ([[] for _ in range(length + 1)], [[] for _ in range(length + 1)])

    def keep(i, k, masses, high, words):
        top, best = tops[i], max(masses)
        cut = top[k] - slack
        if best < cut:
            return
        if best > top[k]:
            top[k], cut = best, best - slack
            kept[i][k] = [x for x in kept[i][k] if x[0] >= cut]
        kept[i][k].extend([(x, high | w) for x, w in zip(masses, words) if x >= cut])

    h1 = length // 2
    h2 = length - h1
    tables = _word_tables(f0, f1, h2)
    for k1, (firsts, first_prods) in enumerate(tables[h1]):
        for first, (p, q, s, t) in zip(firsts, first_prods):
            high = first << h2
            for k, (lasts, last_prods) in enumerate(tables[h2], k1):
                leaves = [(e * p + f * s, e * q + f * t, g * p + h * s, g * q + h * t)
                          for e, f, g, h in last_prods]
                masses = [a * a + d * d + b * b + c * c for a, b, c, d in leaves]
                keep(0, k, masses, high, lasts)
                if not balanced:
                    continue
                if below:
                    keys = [(a * a + d * d) * r + b * b * r * r + c * c for a, b, c, d in leaves]
                else:
                    keys = [(a * a + d * d) * r + c * c * r * r + b * b for a, b, c, d in leaves]
                keep(1, k, keys, high, lasts)
    words = [[[w for _, w in cls] for cls in side] for side in kept]
    return words[0], words[1] if balanced else None, tops


def _class_bounds(st: _Setup, top: float, slack: float, length: int, k: int, shift: float):
    """Doubles (lo, hi) below and above the log of sigma * alpha^k as mpf
    evaluates it for the class of ``k`` ones whose largest double mass or
    balanced key is ``top``; ``shift`` is -log r (module docstring)."""
    la = st.log_alpha
    if k and la == -math.inf:
        return -math.inf, -math.inf  # alpha = 0: the value is 0
    z = length - k
    lc = math.log(4) - 2 * shift
    lc += (z * st.log_det2[0] if z else 0.0) + (k * st.log_det2[1] if k else 0.0)
    mc = _MARGIN * (abs(lc) + 64)
    c_lo, c_hi = (math.exp(lc - mc), math.exp(lc + mc)) if lc > -math.inf else (0.0, 0.0)
    k_hi, k_lo = top + slack, max(top - slack, 0.0)
    s_hi = (k_hi + math.sqrt(max(k_hi * k_hi - c_lo, 0.0) + 64 * _U * k_hi * k_hi)) / 2
    s_lo = (k_lo + math.sqrt(max(k_lo * k_lo * (1 - 64 * _U) - c_hi, 0.0))) / 2
    scale = z * st.log_nu[0] + k * st.log_nu[1] + (k * la if k else 0.0)
    rest = length * max(map(abs, st.log_nu)) + (k * abs(la) if k else 0.0) + shift + 64
    ls_lo, ls_hi = math.log(s_lo) if s_lo > 0 else -math.inf, math.log(s_hi)
    return ((ls_lo + shift) / 2 + scale - _MARGIN * (abs(ls_lo) + rest),
            (ls_hi + shift) / 2 + scale + _MARGIN * (abs(ls_hi) + rest))


def _upper_bounds(st: _Setup, alpha_f: mpf, length: int, prec: int) -> tuple[mpf, Optional[mpf]]:
    """Largest sigma(M_alpha(w)) over the words w of ``length``, plain and
    after the balancing similarity diag(1, sqrt(alpha)) (None when alpha
    is zero).

    The similarity keeps det and turns the Frobenius mass a^2+b^2+c^2+d^2
    into a^2 + d^2 + alpha*b^2 + c^2/alpha.  det depends only on the
    ones-count k, and sigma grows with the mass at fixed det, so one
    largest mass per k is needed, and sigma is evaluated only for the k
    whose double bound can reach the largest lower bound of its norm: one
    per norm away from ties.  Only the few words of ``_mass_candidates``
    are multiplied out in integers.  With alpha = p/q, the dyadic value of
    ``alpha_f``, the balanced masses are compared as the integer keys
    (a^2+d^2)*p*q + b^2*p^2 + c^2*q^2.
    """
    plain, bal, tops = _mass_candidates(st, alpha_f, length)

    def products(words):
        for word in words:
            m = (1, 0, 0, 1)
            for i in range(length - 1, -1, -1):
                m = _mul(st.ints[(word >> i) & 1], m)
            yield m

    norms = [(plain, tops[0], lambda a, b, c, d: a * a + b * b + c * c + d * d, 1, 0.0)]
    if bal is not None:
        p, q = fraction_from_mpf(alpha_f).as_integer_ratio()
        s, u, v = p * q, p * p, q * q
        norms.append((bal, tops[1], lambda a, b, c, d: (a * a + d * d) * s + b * b * u + c * c * v,
                      s, abs(st.log_alpha)))
    slack = _mass_slack(length)
    ups = []
    for words, top, key, div, shift in norms:
        bounds = [_class_bounds(st, t, slack, length, k, shift) for k, t in enumerate(top)]
        floor = max(lo for lo, _ in bounds) if prec >= 53 else -math.inf
        up = mpf(0)
        for k, (_, hi) in enumerate(bounds):
            if hi < floor:
                continue
            den2 = _per_class(st.dens, length, k) ** 2
            det = mpf_from_ratio(_per_class(st.dets, length, k), den2, prec)
            f = mpf_from_ratio(max(key(*m) for m in products(words[k])), den2 * div, prec)
            up = max(up, sigma_from_frobenius(f, det) * alpha_f ** k)
        ups.append(up)
    return ups[0], ups[1] if bal is not None else None


def jsr_bounds(
    fam: MatrixFamily, alpha, max_len: int, prec: int = DEFAULT_PREC
) -> OracleBound:
    """Two-sided JSR bounds by exhaustive word enumeration.

    ``lower`` is the largest rho(M_alpha(w))^(1/|w|) over necklaces up to
    ``max_len``; ``upper`` is the smaller of the plain and the balanced
    spectral-norm bounds over all words of length exactly ``max_len``,
    taken from one largest Frobenius mass per ones-count.  Both are mpf
    values rounded to nearest at ``prec``, not outward, so they are
    bounds up to a few ulps of rounding, not certified enclosures.

    Each necklace is first bounded in doubles with a proven margin, by
    its class's trace cap or else by its own bound, and its radius and
    root are computed at ``prec`` only when that bound is not below the
    best value so far; a skipped word's value is below the best, so the
    result is that of evaluating every word.  The upper bound likewise
    multiplies out only the leaves whose double mass can reach the largest
    of their ones-count, and evaluates sigma only for the ones-counts whose
    double bound can reach the largest of their norm.  The module
    docstring proves every margin.
    """
    if not 1 <= max_len <= MAX_LEN_CAP:
        raise OracleError(f"max_len must be in [1, {MAX_LEN_CAP}]")
    if max_len > 16:
        warnings.warn(
            f"enumerating 2^{max_len} products; this is a desk-scale oracle",
            stacklevel=2,
        )
    with mp.workprec(prec):
        alpha_f = as_mpf(alpha, prec)
        if alpha_f < 0:
            raise OracleError(f"alpha must be nonnegative, got {alpha}")
        # lower bound over necklaces, alpha factored out of the products;
        # near-ties (ulp noise between power-related words) keep the
        # earlier, i.e. shortest and lexicographically least, witness
        best = mpf(-1)
        witness = "0"
        floor = -math.inf  # _log_floor(best)
        tie_slack = 1 + mpf(2) ** (-prec + 24)
        st = _setup(fam, alpha_f)
        screen = _Screen(fam, st, max_len, prec)
        for n, level in enumerate(screen.levels[1:], 1):
            wide = screen.start(n)
            limit = n * floor
            caps = [screen.cap(k, limit) for k in range(n + 1)]  # still sound as floor rises
            for ones, t, bits in level:
                key = abs(t) + wide
                if key <= caps[ones] or screen.bound(ones, key) < limit:
                    continue
                val = _scaled_value(screen.radius(ones, t, bits), alpha_f, ones, n)
                if val > best * tie_slack:
                    best, witness = val, screen.word(bits)
                    floor = _log_floor(best)
                    limit = n * floor
        up_plain, up_bal = _upper_bounds(st, alpha_f, max_len, prec)
        exponent = mpf(1) / max_len
        upper = up_plain ** exponent
        norm_used = "sigma"
        if up_bal is not None:
            up_bal = up_bal ** exponent
            if up_bal < upper:
                upper = up_bal
                norm_used = "sigma-balanced"
        if upper < best:
            # mathematically impossible; tolerate ulp-scale fuzz only
            if upper < best * (1 - mpf(2) ** (-prec // 2)):
                raise OracleError("bound inversion: implementation fault")
            upper = best
        return OracleBound(
            alpha=alpha_f,
            max_len=max_len,
            lower=best,
            lower_witness=witness,
            upper=upper,
            upper_norm=norm_used,
            witness_is_cyclically_balanced=is_cyclically_balanced(witness),
        )


@dataclass
class ConditionVReport:
    """Exhaustive extremality check at a parameter inside a rational step.

    Every word up to the cap must satisfy rho(M_alpha(w))^(1/|w|) strictly
    below the JSR unless the word is cyclically balanced with the step's
    slope, in which case equality (to the stated relative tolerance) is
    required.
    """

    alpha: mpf
    fraction: Fraction
    max_len: int
    tolerance: mpf
    checked: int = 0
    equalities: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_condition_v(
    fam: MatrixFamily,
    alpha,
    pq: Fraction,
    max_len: int,
    prec: int = DEFAULT_PREC,
    varrho: Optional[mpf] = None,
) -> ConditionVReport:
    """Verify strict sub-extremality of every non-mechanical word.

    Enumerates necklaces (the tested quantities are rotation invariant).
    Equality tolerance is relative 2^(-prec/2): products of length <= 20
    lose at most a few ulps per multiplication, far inside that slack.
    A word off the step's slope whose double bound (module docstring) lies
    below target * (1 - tol) is counted but not evaluated at ``prec``.
    ``varrho``, the JSR at alpha, is read from the node of p/q after one
    build of its step, unless the caller has read it (as
    ``spot_check_condition_v`` does); alpha must then lie on the step.
    """
    pq = Fraction(pq)
    if not 1 <= max_len <= MAX_LEN_CAP:
        raise OracleError(f"max_len must be in [1, {MAX_LEN_CAP}]")
    if varrho is None:
        node = SternBrocotNode.root(fam).descend(pq)
        step = node.interval(prec)
        if not step.contains(alpha):
            raise OracleError(f"alpha {alpha} outside the ratio-{pq} step")
        varrho = node.varrho(step, alpha, prec)
    with mp.workprec(prec):
        alpha_f = as_mpf(alpha, prec)
        tol = mpf(2) ** (-prec // 2)
        rep = ConditionVReport(alpha_f, pq, max_len, tol)
        targets = [varrho ** n for n in range(max_len + 1)]
        cuts = [_log_floor(target * (1 - tol)) for target in targets]
        p, q = pq.numerator, pq.denominator
        screen = _Screen(fam, _setup(fam, alpha_f), max_len, prec)
        for n, level in enumerate(screen.levels[1:], 1):
            wide, target, cut = screen.start(n), targets[n], cuts[n]
            caps = [screen.cap(k, cut) for k in range(n + 1)]
            rep.checked += len(level)
            for ones, t, bits in level:
                on_slope = ones * q == p * n and is_cyclically_balanced(screen.word(bits))
                key = abs(t) + wide
                if not on_slope and (key <= caps[ones] or screen.bound(ones, key) < cut):
                    continue
                w = screen.word(bits)
                rho = screen.radius(ones, t, bits) * alpha_f ** ones
                if on_slope:
                    rep.equalities += 1
                    if abs(rho - target) > tol * target:
                        rep.violations.append(
                            f"{w}: expected equality, got {mp.nstr(rho / target, 10)}"
                        )
                elif rho >= target * (1 - tol):
                    rep.violations.append(
                        f"{w}: rho^(1/n) ratio {mp.nstr((rho / target) ** (mpf(1) / n), 10)} not strictly below"
                    )
        return rep


def spot_check_condition_v(
    fam: MatrixFamily, pq: Fraction, max_len: int, prec: int = DEFAULT_PREC
) -> ConditionVReport:
    """``check_condition_v`` at the midpoint of the p/q step, descending to
    the node of p/q and building its step once."""
    pq = Fraction(pq)
    node = SternBrocotNode.root(fam).descend(pq)
    step = node.interval(prec)
    with mp.workprec(prec):
        mid = (step.lo.value + step.hi.value) / 2
    return check_condition_v(fam, mid, pq, max_len, prec, node.varrho(step, mid, prec))
