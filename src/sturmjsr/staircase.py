"""Assembly of the full ratio-function staircase over bounded denominators,
inversion of the ratio function at arbitrary parameters, and gap
diagnostics.

The ratio function is continuous and monotone, constant on one closed
interval per rational in (0, 1); the staircase collects those steps for
all reduced p/q with q <= qmax, verifies strict ordering and pairwise
disjointness with the certified endpoint predicate, and serves interval
lookups.  Parameters not covered by any step (irrational-ratio points or
rational steps of larger denominator) are located by mediant descent.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from mpmath import mp, mpf

from .contfrac import cf_of_rational
from .family import MatrixFamily
from .precision import DEFAULT_PREC, fraction_from_mpf
from .rational_preimage import (
    PreimageInterval,
    compare,
    preimage_interval,
    preimage_one,
    preimage_zero,
)


class StaircaseError(ValueError):
    pass


def farey_fractions(qmax: int) -> list[Fraction]:
    """All reduced fractions in (0, 1) with denominator <= qmax, ascending."""
    return sorted(
        Fraction(p, q)
        for q in range(2, qmax + 1)
        for p in range(1, q)
        if Fraction(p, q).denominator == q
    )


@dataclass
class Staircase:
    family_label: str
    qmax: int
    steps: list[PreimageInterval]  # ascending by fraction, interior only
    zero_step: PreimageInterval
    one_step: PreimageInterval
    prec: int = DEFAULT_PREC

    def step_for(self, pq: Fraction) -> Optional[PreimageInterval]:
        pq = Fraction(pq)
        lo = bisect_left(self.steps, pq, key=lambda step: step.fraction)
        if lo < len(self.steps) and self.steps[lo].fraction == pq:
            return self.steps[lo]
        return None

    def all_rows(self) -> list[PreimageInterval]:
        rows = []
        if not self.zero_step.empty:
            rows.append(self.zero_step)
        rows.extend(self.steps)
        if not self.one_step.empty:
            rows.append(self.one_step)
        return rows


def build_staircase(
    fam: MatrixFamily,
    qmax: int,
    prec: int = DEFAULT_PREC,
    workers: Optional[int] = None,
) -> Staircase:
    """Steps for every reduced p/q, q <= qmax, plus the boundary steps.

    The steps are computed one after another; ``workers`` is accepted
    for compatibility and ignored.  Strict ordering and pairwise
    disjointness are verified with ``compare``: a violation raises
    StaircaseError (an implementation fault, not data noise), and float
    endpoints too close to order at ``prec`` raise EndpointPrecisionError.
    """
    if qmax < 2:
        raise StaircaseError("need qmax >= 2")
    steps = [preimage_interval(fam, pq, prec) for pq in farey_fractions(qmax)]
    st = Staircase(
        family_label=fam.label,
        qmax=qmax,
        steps=steps,
        zero_step=preimage_zero(fam, prec),
        one_step=preimage_one(fam, prec),
        prec=prec,
    )
    _verify_disjoint(st)
    return st


def _verify_disjoint(st: Staircase) -> None:
    prev = st.zero_step.hi if not st.zero_step.empty else None
    for step in st.steps:
        if prev is not None and compare(prev, step.lo) >= 0:
            raise StaircaseError(
                f"steps touch or overlap near {step.fraction} "
                f"(previous hi {prev.value} vs lo {step.lo.value})"
            )
        prev = step.hi
    if not st.one_step.empty and prev is not None:
        if compare(prev, st.one_step.lo) >= 0:
            raise StaircaseError("last interior step reaches the ratio-1 step")


# ---------------------------------------------------------------------------
# point queries


@dataclass(frozen=True)
class RatioBracket:
    """Result of an exhausted mediant descent: the ratio lies strictly
    between the two fractions; cf_prefix collects the certified leading
    continued-fraction coefficients of the ratio."""

    low: Fraction
    high: Fraction
    cf_prefix: tuple[int, ...]


def _cf_common_prefix(lo: Fraction, hi: Fraction) -> tuple[int, ...]:
    if lo == 0 or hi == 1:
        return ()
    a = cf_of_rational(lo).prefix()
    b = cf_of_rational(hi).prefix()
    out = []
    for x, y in zip(a, b):
        if x == y:
            out.append(x)
        else:
            break
    return tuple(out)


def ratio_at(
    fam: MatrixFamily,
    alpha,
    depth: int = 32,
    prec: int = DEFAULT_PREC,
    cache: Optional[dict] = None,
):
    """The ratio-function value at alpha: a Fraction when alpha lands on a
    rational step within ``depth`` mediant refinements, else the bracket.

    Mediant (Stern-Brocot) descent: at bracket (l, r) test the step of the
    mediant; alpha inside resolves, alpha left or right of it narrows the
    bracket.  Comparisons go through ``compare``, so a returned fraction
    is certain for integral families.  The cache maps fractions to
    computed steps and may be shared, read-only, across queries.
    """
    if isinstance(alpha, (int, Fraction)):
        alpha = Fraction(alpha)
        if alpha < 0:
            raise StaircaseError("alpha must be nonnegative")
    else:
        alpha = fraction_from_mpf(alpha)
        if alpha < 0:
            raise StaircaseError("alpha must be nonnegative")
    zero = preimage_zero(fam, prec)
    if zero.contains(alpha):
        return Fraction(0)
    one = preimage_one(fam, prec)
    if one.contains(alpha):
        return Fraction(1)
    cache = cache if cache is not None else {}
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(depth):
        mid = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        step = cache.get(mid)
        if step is None:
            step = preimage_interval(fam, mid, prec)
            cache[mid] = step
        if compare(alpha, step.lo) < 0:
            hi = mid
        elif compare(alpha, step.hi) <= 0:
            return mid
        else:
            lo = mid
    return RatioBracket(lo, hi, _cf_common_prefix(lo, hi))


# ---------------------------------------------------------------------------
# diagnostics and export


@dataclass
class GapReport:
    """Uncovered parameter mass inside a bracket, per refinement level."""

    bracket: tuple[str, str]
    residuals: dict[int, mpf]  # qmax -> uncovered length
    diameter_fit_slope: Optional[float] = None
    diameters: list[tuple[int, float]] = field(default_factory=list)

    def monotone_decreasing(self) -> bool:
        vals = [self.residuals[q] for q in sorted(self.residuals)]
        return all(b < a for a, b in zip(vals, vals[1:]))


def gap_diagnostics(
    st: Staircase,
    bracket: tuple,
    qmaxes: Optional[list[int]] = None,
    prec: int = DEFAULT_PREC,
) -> GapReport:
    """Lebesgue length of the bracket not covered by steps, for each
    refinement qmax (subsets of the staircase's steps), plus a least
    squares fit of log step diameter against denominator.

    The residual shrinking toward zero as qmax grows is the measurable
    trace of the uncovered set having zero measure; the log-diameter fit
    slope being negative reflects the exponential shrink of step widths.
    """
    with mp.workprec(prec):
        a = mpf(str(bracket[0]))
        b = mpf(str(bracket[1]))
        if not (0 <= a < b):
            raise StaircaseError("need 0 <= a < b")
        qmaxes = qmaxes or [st.qmax]
        if any(q > st.qmax for q in qmaxes):
            raise StaircaseError("refinement exceeds staircase qmax")
        residuals: dict[int, mpf] = {}
        for q in qmaxes:
            covered = mpf(0)
            for step in st.all_rows():
                if step.fraction.denominator > q:
                    continue
                lo_v = step.lo.value if step.lo is not None else mpf(0)
                hi_v = step.hi.value if step.hi is not None else b
                lo_c, hi_c = max(lo_v, a), min(hi_v, b)
                if hi_c > lo_c:
                    covered += hi_c - lo_c
            residuals[q] = (b - a) - covered
        diameters = []
        for step in st.steps:
            if step.lo is None or step.hi is None:
                continue
            mid_in = a <= step.lo.value and step.hi.value <= b
            if mid_in:
                diam = step.hi.value - step.lo.value
                if diam > 0:
                    diameters.append(
                        (step.fraction.denominator, float(mp.log(diam)))
                    )
        slope = None
        if len(diameters) >= 2:
            n = len(diameters)
            sx = sum(d[0] for d in diameters)
            sy = sum(d[1] for d in diameters)
            sxx = sum(d[0] * d[0] for d in diameters)
            sxy = sum(d[0] * d[1] for d in diameters)
            denom = n * sxx - sx * sx
            if denom:
                slope = (n * sxy - sx * sy) / denom
        return GapReport((str(bracket[0]), str(bracket[1])), residuals, slope, diameters)


def export(
    st: Staircase,
    fmt: str,
    path: str,
    midpoint_samples: bool = False,
    alpha_range: Optional[tuple] = None,
) -> None:
    """Write the staircase as CSV or JSON step data.

    CSV columns: alpha_lo, alpha_hi, p, q, value_p_over_q, exact_lo,
    exact_hi.  One row per step; any plotting tool can render the step
    function from it.  ``midpoint_samples`` appends one (alpha, value)
    sample row per step for tools that want point data.
    """
    text = render(st, fmt, midpoint_samples, alpha_range)
    with open(path, "w") as fh:
        fh.write(text)


def render(
    st: Staircase,
    fmt: str,
    midpoint_samples: bool = False,
    alpha_range: Optional[tuple] = None,
) -> str:
    """Step data as CSV or JSON; ``alpha_range = (lo, hi)`` keeps only the
    steps meeting that parameter window (as mpf-comparable values)."""
    digits = max(20, int(st.prec / 3.33))
    rows = st.all_rows()
    if alpha_range is not None:
        with mp.workprec(st.prec):
            w_lo, w_hi = mpf(str(alpha_range[0])), mpf(str(alpha_range[1]))
        rows = [
            step
            for step in rows
            if (step.lo.value if step.lo is not None else mpf(0)) <= w_hi
            and (step.hi.value if step.hi is not None else w_hi) >= w_lo
        ]
    if fmt == "json":
        payload = {
            "family": st.family_label,
            "qmax": st.qmax,
            "steps": [step.as_json() for step in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt != "csv":
        raise StaircaseError(f"unknown format {fmt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["alpha_lo", "alpha_hi", "p", "q", "value_p_over_q", "exact_lo", "exact_hi"]
    )
    for step in rows:
        lo = mp.nstr(step.lo.value, digits) if step.lo is not None else "0"
        hi = mp.nstr(step.hi.value, digits) if step.hi is not None else "inf"
        writer.writerow(
            [
                lo,
                hi,
                step.fraction.numerator,
                step.fraction.denominator,
                f"{step.fraction.numerator}/{step.fraction.denominator}",
                repr(step.lo.exact) if step.lo is not None and step.lo.exact is not None else "",
                repr(step.hi.exact) if step.hi is not None and step.hi.exact is not None else "",
            ]
        )
    if midpoint_samples:
        writer.writerow(["# alpha_mid", "value", "", "", "", "", ""])
        with mp.workprec(st.prec):
            for step in rows:
                if step.lo is None or step.hi is None:
                    continue
                mid = (step.lo.value + step.hi.value) / 2
                val = mpf(step.fraction.numerator) / step.fraction.denominator
                writer.writerow([mp.nstr(mid, digits), mp.nstr(val, digits), "", "", "", "", ""])
    return buf.getvalue()
