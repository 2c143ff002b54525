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
mass per ones-count and evaluates L + 1 norms, not 2^L.  Everything here
validates the closed-form machinery at desk scale and assumes nothing
about extremality structure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from mpmath import mp, mpf

from .family import MatrixFamily
from .linalg2 import (
    Mat2,
    radius_from_trace_det,
    sigma_from_frobenius,
    spectral_radius_mpf,
)
from .precision import DEFAULT_PREC, fraction_from_mpf, mpf_from_fraction
from .rational_preimage import preimage_interval, varrho_on_interval
from .words import is_cyclically_balanced, necklaces, slope

MAX_LEN_CAP = 20


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


def _as_mpf(alpha, prec: int) -> mpf:
    if isinstance(alpha, (int, Fraction)):
        return mpf_from_fraction(alpha, prec)
    return +mpf(alpha)


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


def _necklace_radii(fam: MatrixFamily, max_len: int, prec: int):
    """(word, ones, rho(M(w))) for every necklace up to ``max_len``, by
    length.  Rational families take rho from the exact trace and det of the
    integer product.  Float families multiply at the family's precision,
    exactly as ``MatrixFamily.product`` does, and take rho from that
    product.  Consecutive necklaces share the products of their common
    prefix."""
    exact = fam.integral
    if exact:
        (g0, k0), (g1, k1) = fam.integer_generators()
        dens, dets = (k0, k1), (g0.det(), g1.det())
    else:
        g0, g1 = fam.a0, fam.a1
    gens = {"0": g0.entries(), "1": g1.entries()}
    prev, stack = "", [(1, 0, 0, 1)]  # stack[j]: product of prev[:j]
    for n in range(1, max_len + 1):
        for w in necklaces(n):
            j = 0
            while j < len(prev) and j < n and prev[j] == w[j]:
                j += 1
            del stack[j + 1:]
            with mp.workprec(fam.prec):
                for ch in w[j:]:
                    stack.append(_mul(gens[ch], stack[-1]))
            prev, m, ones = w, stack[-1], w.count("1")
            if exact:
                den = _per_class(dens, n, ones)
                det = Fraction(_per_class(dets, n, ones), den * den)
                rho = radius_from_trace_det(Fraction(m[0] + m[3], den), det, prec)
            else:
                rho = spectral_radius_mpf(Mat2(*m), prec)
            yield w, ones, rho


def _upper_bounds(
    fam: MatrixFamily, alpha_f: mpf, length: int, prec: int
) -> tuple[mpf, Optional[mpf]]:
    """Largest sigma(M_alpha(w)) over the words w of ``length``, plain and
    after the balancing similarity diag(1, sqrt(alpha)) (None when alpha
    is zero).

    The similarity keeps det and turns the Frobenius mass a^2+b^2+c^2+d^2
    into a^2 + d^2 + alpha*b^2 + c^2/alpha.  det depends only on the
    ones-count k, and sigma grows with the mass at fixed det, so a depth-
    first walk over the integer products keeps one largest mass per k and
    one sigma per k is evaluated.  With alpha = p/q, the dyadic value of
    ``alpha_f``, the balanced masses are compared as the integer keys
    (a^2+d^2)*p*q + b^2*p^2 + c^2*q^2.
    """
    (g0, k0), (g1, k1) = fam.integer_generators()
    dens, dets = (k0, k1), (g0.det(), g1.det())
    g0, g1 = g0.entries(), g1.entries()
    balanced = alpha_f > 0
    if balanced:
        p, q = fraction_from_mpf(alpha_f).as_integer_ratio()
        s, u, v = p * q, p * p, q * q
    top_f = [-1] * (length + 1)
    top_b = [-1] * (length + 1)
    stack = [((1, 0, 0, 1), 0, 0)]
    while stack:
        m, depth, ones = stack.pop()
        if depth < length:
            stack.append((_mul(g0, m), depth + 1, ones))
            stack.append((_mul(g1, m), depth + 1, ones + 1))
            continue
        a, b, c, d = m
        a2d2, b2, c2 = a * a + d * d, b * b, c * c
        f = a2d2 + b2 + c2
        if f > top_f[ones]:
            top_f[ones] = f
        if balanced:
            key = a2d2 * s + b2 * u + c2 * v
            if key > top_b[ones]:
                top_b[ones] = key
    up_plain = mpf(0)
    up_bal = mpf(0) if balanced else None
    for k in range(length + 1):
        den2 = _per_class(dens, length, k) ** 2
        det = mpf_from_fraction(Fraction(_per_class(dets, length, k), den2), prec)
        scale = alpha_f ** k
        f = mpf_from_fraction(Fraction(top_f[k], den2), prec)
        up_plain = max(up_plain, sigma_from_frobenius(f, det) * scale)
        if balanced:
            f = mpf_from_fraction(Fraction(top_b[k], den2 * s), prec)
            up_bal = max(up_bal, sigma_from_frobenius(f, det) * scale)
    return up_plain, up_bal


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
    """
    if not 1 <= max_len <= MAX_LEN_CAP:
        raise OracleError(f"max_len must be in [1, {MAX_LEN_CAP}]")
    if max_len > 16:
        warnings.warn(
            f"enumerating 2^{max_len} products; this is a desk-scale oracle",
            stacklevel=2,
        )
    with mp.workprec(prec):
        alpha_f = _as_mpf(alpha, prec)
        if alpha_f < 0:
            raise OracleError(f"alpha must be nonnegative, got {alpha}")
        # lower bound over necklaces, alpha factored out of the products;
        # near-ties (ulp noise between power-related words) keep the
        # earlier, i.e. shortest and lexicographically least, witness
        best = mpf(-1)
        witness = "0"
        tie_slack = 1 + mpf(2) ** (-prec + 24)
        for w, ones, rho in _necklace_radii(fam, max_len, prec):
            val = _scaled_value(rho, alpha_f, ones, len(w))
            if val > best * tie_slack:
                best, witness = val, w
        up_plain, up_bal = _upper_bounds(fam, alpha_f, max_len, prec)
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


def extremal_slope_estimate(
    fam: MatrixFamily, alpha, max_len: int, prec: int = DEFAULT_PREC
) -> Fraction:
    """Slope of the lower-bound witness: a finite-depth estimate of the
    extremal 1-ratio at alpha."""
    return slope(jsr_bounds(fam, alpha, max_len, prec).lower_witness)


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
) -> ConditionVReport:
    """Verify strict sub-extremality of every non-mechanical word.

    Enumerates necklaces (the tested quantities are rotation invariant).
    Equality tolerance is relative 2^(-prec/2): products of length <= 20
    lose at most a few ulps per multiplication, far inside that slack.
    """
    pq = Fraction(pq)
    if not 1 <= max_len <= MAX_LEN_CAP:
        raise OracleError(f"max_len must be in [1, {MAX_LEN_CAP}]")
    interval = preimage_interval(fam, pq, prec)
    if not interval.contains(alpha):
        raise OracleError(f"alpha {alpha} outside the ratio-{pq} step")
    with mp.workprec(prec):
        alpha_f = _as_mpf(alpha, prec)
        varrho = varrho_on_interval(fam, pq, alpha, prec, interval=interval)
        tol = mpf(2) ** (-prec // 2)
        rep = ConditionVReport(alpha_f, pq, max_len, tol)
        for w, ones, rho in _necklace_radii(fam, max_len, prec):
            n = len(w)
            target = varrho ** n
            rho = rho * alpha_f ** ones
            rep.checked += 1
            if is_cyclically_balanced(w) and slope(w) == pq:
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
