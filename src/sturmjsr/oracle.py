"""Brute-force, assumption-free bounds on the JSR of {A0, alpha*A1}.

The lower bound is the Gelfand-style maximum of rho(M_alpha(w))^(1/|w|)
over all words up to a length cap, enumerated over necklaces only
(spectral radius is rotation invariant, so canonical rotations lose
nothing).  The upper bound is the maximum of a submultiplicative norm
over all words of exactly the cap length, taken as the smaller of two
valid norms: the plain spectral norm, and the spectral norm after the
balancing similarity diag(1, sqrt(alpha)), which equalizes the
alpha-weighted transfer between the two generators and is markedly
tighter away from alpha = 1.  Everything here validates the closed-form
machinery at desk scale and assumes nothing about extremality structure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from mpmath import mp, mpf, sqrt as msqrt

from .family import MatrixFamily
from .linalg2 import Mat2, sigma_norm_mpf, spectral_radius_mpf
from .precision import DEFAULT_PREC, mpf_from_fraction
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


def _balance_basis(alpha: mpf) -> Optional[tuple[Mat2, Mat2]]:
    """The similarity diag(1, sqrt(alpha)); None when alpha is zero."""
    if alpha <= 0:
        return None
    s = msqrt(alpha)
    return Mat2(mpf(1), mpf(0), mpf(0), s), Mat2(mpf(1), mpf(0), mpf(0), 1 / s)


def _scaled_value(rho_int: mpf, alpha: mpf, ones: int, length: int) -> mpf:
    return (rho_int * alpha ** ones) ** (mpf(1) / length)


def jsr_bounds(
    fam: MatrixFamily, alpha, max_len: int, prec: int = DEFAULT_PREC
) -> OracleBound:
    """Certified two-sided JSR bounds by exhaustive word enumeration."""
    if not 1 <= max_len <= MAX_LEN_CAP:
        raise OracleError(f"max_len must be in [1, {MAX_LEN_CAP}]")
    if max_len > 16:
        warnings.warn(
            f"enumerating 2^{max_len} products; this is a desk-scale oracle",
            stacklevel=2,
        )
    with mp.workprec(prec):
        alpha_f = _as_mpf(alpha, prec)
        # lower bound over necklaces, alpha factored out of the products;
        # near-ties (ulp noise between power-related words) keep the
        # earlier, i.e. shortest and lexicographically least, witness
        best = mpf(-1)
        witness = "0"
        tie_slack = 1 + mpf(2) ** (-prec + 24)
        for n in range(1, max_len + 1):
            for w in necklaces(n):
                m = fam.product(w)
                rho = spectral_radius_mpf(m, prec)
                ones = w.count("1")
                val = _scaled_value(rho, alpha_f, ones, n)
                if val > best * tie_slack:
                    best, witness = val, w
        # upper bound: exhaustive DFS over words of length exactly max_len
        basis = _balance_basis(alpha_f)
        up_plain = mpf(0)
        up_pre = mpf(0)
        a0, a1 = fam.a0, fam.a1
        stack = [(Mat2.identity(), 0, 0)]
        while stack:
            m, depth, ones = stack.pop()
            if depth == max_len:
                mf = m.to_mpf(prec)
                w_scale = alpha_f ** ones
                s = sigma_norm_mpf(mf) * w_scale
                if s > up_plain:
                    up_plain = s
                if basis is not None:
                    t, tinv = basis
                    s2 = sigma_norm_mpf(tinv @ mf @ t) * w_scale
                    if s2 > up_pre:
                        up_pre = s2
                continue
            stack.append((a0 @ m, depth + 1, ones))
            stack.append((a1 @ m, depth + 1, ones + 1))
        exponent = mpf(1) / max_len
        up_plain = up_plain ** exponent
        norm_used = "sigma"
        upper = up_plain
        if basis is not None:
            up_pre = up_pre ** exponent
            if up_pre < upper:
                upper = up_pre
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
        for n in range(1, max_len + 1):
            target = varrho ** n
            for w in necklaces(n):
                rho = spectral_radius_mpf(fam.product(w), prec) * alpha_f ** w.count("1")
                rep.checked += 1
                balanced_right_slope = (
                    is_cyclically_balanced(w) and slope(w) == pq
                )
                if balanced_right_slope:
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
