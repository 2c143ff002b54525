"""Assembly of the full ratio-function staircase over bounded denominators,
inversion of the ratio function at arbitrary parameters, and gap
diagnostics.

The ratio function is continuous and monotone, constant on one closed
interval per rational in (0, 1).  The staircase walks the Stern-Brocot
tree of standard pairs (``SternBrocotNode``) in order, visiting each
reduced p/q with q <= qmax once, verifies strict ordering and pairwise
disjointness with the certified endpoint predicate, and serves interval
lookups.  Parameters not covered by any step (irrational-ratio points or
rational steps of larger denominator) are located by descending the same
tree one mediant at a time.  In a swap-symmetric family the steps above
1/2 are conjugated from their mirrors below (``_mirrored``) and stored like
any other, so ``step_of`` and ``ratio_at`` read them from the memo.

Within one process, ``build_staircase`` and ``ratio_at`` share the steps
they compute through one bounded memo, a flat dict.  A family's entry,
under (fam.integral, fam), is its Stern-Brocot root, looked up once per
request; the root, hashed and compared by identity, then keys each node's
step, (root, pair, prec), and each boundary step, (root, which, prec).
``fam.integral`` is part of the family's key because a family with
Fraction entries and one with equal mpf entries compare and hash equal,
yet the first has exact endpoints and the second float ones.  The memo
holds at most ``_MEMO_SIZE`` entries, roots and steps alike, and past that
drops the oldest; a family's root moves to the newest place at each
lookup, and a computation that raises stores nothing.  A memoized step
keeps its JSON text as an item of the staircase's list of steps
(``PreimageInterval.listed``, the only place its ends' digits are kept),
so a repeated build joins stored strings.  ``resolve_family`` builds each
builtin family once per (name, prec) in a process, and each config file
once per content, so its requests find one family object; a config file's
bytes are read on every request.  Every build still verifies its order
with ``compare``.  ``step_of``, behind the CLI's ``interval``, reads a
step from the memo and leaves the memo as it finds it: a step it builds on
a miss is not stored, nor are its printed strings, and a family's root is
neither made nor moved.  ``preimage_interval`` and the other
one-off queries of ``rational_preimage`` neither read nor fill the memo.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from mpmath import mp, mpf

from .contfrac import cf_of_rational
from .family import MatrixFamily
from .precision import DEFAULT_PREC, decimal_str, fraction_from_mpf, json_text
from .linalg2 import QuadExt
from .rational_preimage import PreimageInterval, SternBrocotNode, compare, exact_ball


class StaircaseError(ValueError):
    pass


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
        return [s for s in (self.zero_step, *self.steps, self.one_step) if not s.empty]


# counts entries, not bytes: one hmst build at qmax 45 stores 627 steps,
# 3.5 MB with their text (tracemalloc, after a JSON render); a full memo of
# hmst steps (qmax 116) holds 85 MB
_MEMO_SIZE = 1 << 12
_memo: dict = {}


def _store(key, value):
    """``value`` stored under ``key``, dropping the oldest entry when the
    memo is full."""
    if len(_memo) >= _MEMO_SIZE:
        del _memo[next(iter(_memo))]
    _memo[key] = value
    return value


def _cached(key, compute, *args):
    """The memo's value under ``key``, or on a miss ``compute(*args)``,
    stored; a computation that raises stores nothing."""
    value = _memo.get(key)
    return value if value is not None else _store(key, compute(*args))


def _family(fam: MatrixFamily) -> SternBrocotNode:
    """The Stern-Brocot root of ``fam`` from the memo, made on a miss and
    moved to the newest place, so that a family in use outlives its oldest
    steps."""
    key = (fam.integral, fam)
    root = _memo.pop(key, None)
    return _store(key, root if root is not None else SternBrocotNode.root(fam))


def step_of(fam: MatrixFamily, pq: Fraction, prec: int = DEFAULT_PREC) -> PreimageInterval:
    """The step of p/q in (0, 1): the memoized one, or on a miss one built
    and not stored, so that one-off deep steps do not fill the memo.  It
    leaves the memo as it finds it: a family with no root there gets none."""
    root = _memo.get((fam.integral, fam)) or SternBrocotNode.root(fam)
    node = root.descend(Fraction(pq))
    step = _memo.get((root, node.pair, prec))
    return step if step is not None else node.interval(prec)


def build_staircase(
    fam: MatrixFamily,
    qmax: int,
    prec: int = DEFAULT_PREC,
    workers: Optional[int] = None,
) -> Staircase:
    """Steps for every reduced p/q, q <= qmax, plus the boundary steps.

    The steps are the nodes of one in-order walk of the Stern-Brocot tree,
    computed one after another; ``workers`` is accepted for compatibility
    and ignored.  Strict ordering and pairwise disjointness are verified
    with ``compare``: a violation raises StaircaseError (an implementation
    fault, not data noise), and float endpoints too close to order at
    ``prec`` raise EndpointPrecisionError.
    """
    if qmax < 2:
        raise StaircaseError("need qmax >= 2")
    root = _family(fam)
    nodes, steps, mirrored = list(root.walk(qmax)), [], fam.is_swap_symmetric()
    for i, node in enumerate(nodes):  # the walk is symmetric about its middle node, 1/2
        above_half = mirrored and 2 * i > len(nodes)
        build = (_mirrored, node, steps[len(nodes) - 1 - i]) if above_half else (node.interval,)
        steps.append(_cached((root, node.pair, prec), *build, prec))
    st = Staircase(
        family_label=fam.label,
        qmax=qmax,
        steps=steps,
        zero_step=_cached((root, 0, prec), root.boundary, 0, prec),
        one_step=_cached((root, 1, prec), root.boundary, 1, prec),
        prec=prec,
    )
    _verify_disjoint(st)
    return st


def _mirrored(node: SternBrocotNode, mirror: PreimageInterval, prec: int) -> PreimageInterval:
    """The step of ``node``, p/q, in a swap-symmetric family, from
    ``mirror``, the step of 1 - p/q: each end is the conjugate of the
    mirror's end on the same side.  Proof sketch: J = [[0,1],[1,0]] maps
    {A0, alpha A1} to alpha {A0, A1/alpha} with the letters swapped, so the
    step of 1 - p/q is [1/hi, 1/lo].  With A = B1 B2, P and Q = I - P its
    projections on lambda and mu, and adj B1 = tr B1 - B1, tr(P B2) =
    lambda tr(adj(B1) P) / det B1 = lambda tr(B1 Q) / det B1.  For a
    nonsquare Delta, conjugation swaps lambda and mu, P and Q, so hi conj(lo)
    = det(B1)^q / (lambda mu)^q1 = 1, as det A0 = det A1: conj(lo) = 1/hi and
    conj(hi) = 1/lo, in the lowest terms a step built anew prints.  A
    mirror end with D = 0 (a square Delta) or a mirror of another fraction
    falls back to ``node.interval``."""
    lo, hi = mirror.lo.exact, mirror.hi.exact
    if not (lo.d and hi.d) or mirror.fraction != 1 - node.fraction:
        return node.interval(prec)
    ends = (exact_ball(lo.conjugate(), prec), exact_ball(hi.conjugate(), prec))
    return PreimageInterval(node.fraction, *ends, pair=node.pair)


def _verify_disjoint(st: Staircase) -> None:
    rows = st.all_rows()  # the zero step always has a hi, the one step is last
    for prev, step in zip(rows, rows[1:]):
        if compare(prev.hi, step.lo) >= 0:
            raise StaircaseError(
                f"steps touch or overlap near {step.fraction} "
                f"(previous hi {prev.hi.value} vs lo {step.lo.value})"
            )


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


def ratio_at(fam: MatrixFamily, alpha, depth: int = 32, prec: int = DEFAULT_PREC):
    """The ratio-function value at alpha: a Fraction when alpha lands on a
    rational step within ``depth`` mediant refinements, else the bracket.

    Stern-Brocot descent: at a node, test the step of its fraction; alpha
    inside resolves, alpha left or right of it moves to the child below or
    above.  The bracket is (slope(u), slope(v)) of the last node.  alpha is
    made an exact ball once, and every comparison goes through
    ``compare``, so a returned fraction is certain for integral families.

    The root, the boundary steps and each node's step come from the
    module's memo, shared with ``build_staircase`` and earlier queries of
    this process (see the module docstring): the family is looked up once,
    under (fam.integral, fam), so that a Fraction family and its
    equal-valued mpf twin never share a step.  A step missing from the memo
    is built whole by ``SternBrocotNode.interval`` and stored.
    """
    if depth < 0:
        raise StaircaseError("depth must be nonnegative")
    alpha = Fraction(alpha) if isinstance(alpha, (int, Fraction)) else fraction_from_mpf(alpha)
    if alpha < 0:
        raise StaircaseError("alpha must be nonnegative")
    point = exact_ball(QuadExt.make(alpha), prec)
    root = _family(fam)
    if _cached((root, 0, prec), root.boundary, 0, prec).contains(point):
        return Fraction(0)
    if _cached((root, 1, prec), root.boundary, 1, prec).contains(point):
        return Fraction(1)
    node = root
    for _ in range(depth):
        step = _cached((root, node.pair, prec), node.interval, prec)
        if compare(point, step.lo) < 0:
            node = node.child(below=True)
        elif compare(point, step.hi) <= 0:
            return node.fraction
        else:
            node = node.child(below=False)
    lo, hi = node.slopes
    return RatioBracket(lo, hi, _cf_common_prefix(lo, hi))


# ---------------------------------------------------------------------------
# diagnostics and rendering


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


def gap_residuals(
    st: Staircase,
    bracket: tuple,
    qmaxes: Optional[list[int]] = None,
    prec: int = DEFAULT_PREC,
) -> dict[int, mpf]:
    """Lebesgue length of the bracket not covered by steps, for each
    refinement qmax (subsets of the staircase's steps), in one pass over
    the steps; each level adds its steps' widths in step order."""
    with mp.workprec(prec):
        a = mpf(str(bracket[0]))
        b = mpf(str(bracket[1]))
        if not (0 <= a < b):
            raise StaircaseError("need 0 <= a < b")
        qmaxes = qmaxes or [st.qmax]
        if any(q > st.qmax for q in qmaxes):
            raise StaircaseError("refinement exceeds staircase qmax")
        covered = {q: mpf(0) for q in qmaxes}
        for step in st.all_rows():
            lo_v = step.lo.value if step.lo is not None else mpf(0)
            hi_v = step.hi.value if step.hi is not None else b
            lo_c, hi_c = max(lo_v, a), min(hi_v, b)
            if hi_c > lo_c:
                width = hi_c - lo_c
                for q in covered:
                    if step.fraction.denominator <= q:
                        covered[q] += width
        return {q: (b - a) - c for q, c in covered.items()}


def gap_diagnostics(
    st: Staircase,
    bracket: tuple,
    qmaxes: Optional[list[int]] = None,
    prec: int = DEFAULT_PREC,
) -> GapReport:
    """``gap_residuals``, plus a least squares fit of log step diameter
    against denominator.

    The residual shrinking toward zero as qmax grows is the measurable
    trace of the uncovered set having zero measure; the log-diameter fit
    slope being negative reflects the exponential shrink of step widths.
    """
    residuals = gap_residuals(st, bracket, qmaxes, prec)
    with mp.workprec(prec):
        a = mpf(str(bracket[0]))
        b = mpf(str(bracket[1]))
        diameters = [
            (step.fraction.denominator, float(mp.log(step.hi.value - step.lo.value)))
            for step in st.steps
            if a <= step.lo.value < step.hi.value <= b
        ]
        slope = None
        if len({q for q, _ in diameters}) >= 2:
            from statistics import linear_regression  # kept off the CLI import path

            slope = linear_regression(*zip(*diameters)).slope
        return GapReport((str(bracket[0]), str(bracket[1])), residuals, slope, diameters)


def render(
    st: Staircase,
    fmt: str,
    midpoint_samples: bool = False,
    alpha_range: Optional[tuple] = None,
) -> str:
    """Step data as CSV or JSON; ``alpha_range = (lo, hi)`` keeps only the
    steps meeting that parameter window (as mpf-comparable values)."""
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
            "steps": [step.listed for step in rows],
        }
        return json_text(payload) + "\n"
    if fmt != "csv":
        raise StaircaseError(f"unknown format {fmt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["alpha_lo", "alpha_hi", "p", "q", "value_p_over_q", "exact_lo", "exact_hi"]
    )
    for step in rows:
        lo = decimal_str(step.lo.value, st.prec, step.lo.radius) if step.lo is not None else "0"
        hi = decimal_str(step.hi.value, st.prec, step.hi.radius) if step.hi is not None else "inf"
        writer.writerow(
            [
                lo,
                hi,
                step.fraction.numerator,
                step.fraction.denominator,
                f"{step.fraction.numerator}/{step.fraction.denominator}",
                *("" if e is None or e.exact is None else e.exact.text(keep=False) for e in (step.lo, step.hi)),
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
                writer.writerow([decimal_str(mid, st.prec), decimal_str(val, st.prec), "", "", "", "", ""])
    return buf.getvalue()
