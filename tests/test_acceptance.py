"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s -v`` to see every line.

Provenance of the criterion-3 constants: each pinned 10-digit value is
backed inside the test by the exact rational-preimage endpoints of two
bracketing convergents, so no reference value comes from the irrational
machinery it checks.  Earlier printed values for cbrt(2)-1 and
(e-2)/(e-1) (0.5587336687 and 0.7904851693) were the trace-form partial
value at N = 4, a truncation taken before traces stand in for spectral
radii; both lie strictly inside rational plateaus.  The trace form
converges to the pinned values from N = 5 on
(test_criterion_03_trace_form_provenance), and the plateau facts are
asserted in test_criterion_03_cross_validation.
"""

import time
from fractions import Fraction

import pytest
from mpmath import cbrt, mp, mpf
from mpmath import exp as mexp
from mpmath import log as mlog
from mpmath import e as euler_e

from helpers import farey_fractions
from sturmjsr.contfrac import cf_of_quadratic, cf_of_real
from sturmjsr.irrational_preimage import (
    IrrationalPreimageError,
    alpha_by_traces,
    alpha_for_irrational,
    rho_sequence,
    tau_recurrence_golden,
)
from sturmjsr.linalg2 import Mat2, QuadExt, perron_projection, quad_compare
from sturmjsr.oracle import check_condition_v, jsr_bounds
from sturmjsr.precision import Ball
from sturmjsr.rational_preimage import (
    general_one_over_n_interval,
    preimage_interval,
    preimage_zero,
    s_value,
    varrho_on_interval,
)
from sturmjsr.staircase import build_staircase, gap_diagnostics
from sturmjsr.words import slope

Fr = Fraction


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_01_exact_interval_table(hmst, exact_intervals):
    t0 = time.monotonic()
    mismatches = []
    for pq, (lo, hi) in exact_intervals.items():
        iv = preimage_interval(hmst, pq)
        if iv.lo.exact != lo or iv.hi.exact != hi:
            mismatches.append(pq)
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 1.0
    report(1, ok, f"9 exact intervals, zero tolerance, {elapsed:.3f}s")
    assert not mismatches
    assert elapsed < 1.0


def test_criterion_02_alpha_star(hmst):
    t0 = time.monotonic()
    cf = cf_of_quadratic(Fr(3, 2), Fr(-1, 2), 5)
    res = alpha_for_irrational(hmst, cf, digits=29)
    elapsed = time.monotonic() - t0
    with mp.workprec(200):
        target = mpf("0.74932654633036755794396194809")
        diff = abs(res.value - target)
        ok = (
            diff < mpf(10) ** -29
            and res.rigorous
            and res.error_radius < mpf(10) ** -29
            and res.terms_used <= 14
            and elapsed < 1.0
        )
    report(
        2, ok,
        f"29 digits, radius {mp.nstr(res.error_radius, 3)}, N={res.terms_used}, {elapsed:.3f}s",
    )
    assert diff < mpf(10) ** -29
    assert res.rigorous and res.error_radius < mpf(10) ** -29
    assert res.terms_used <= 14
    assert elapsed < 1.0


def _gamma_cbrt2():
    with mp.workprec(900):
        return cf_of_real(Ball(cbrt(mpf(2)) - 1, mpf(2) ** -870), 40)


def _gamma_euler():
    with mp.workprec(900):
        return cf_of_real(Ball((euler_e - 2) / (euler_e - 1), mpf(2) ** -870), 40)


# (expansion, pinned value, label, (p/q below, p/q above) bracketing
# convergents whose inner endpoints hi(below) and lo(above) sandwich the
# parameter, since the ratio function is nondecreasing)
SECTION8_CASES = [
    pytest.param(
        lambda: cf_of_quadratic(Fr(-2), Fr(1), 5), "0.4596704785", "sqrt(5)-2",
        (Fr(4, 17), Fr(17, 72)), id="sqrt5-minus-2",
    ),
    pytest.param(
        _gamma_cbrt2, "0.5587336551", "cbrt(2)-1", (Fr(7, 27), Fr(6, 23)),
        id="cbrt2-minus-1",
    ),
    pytest.param(
        _gamma_euler, "0.7898271795", "(e-2)/(e-1)", (Fr(28, 67), Fr(23, 55)),
        id="euler-ratio",
    ),
]

SECTION8_TOL = Fr(5, 10**11)  # 0.5e-10: the pinned value is correctly rounded


def _within_exact(endpoint: QuadExt, center: Fraction, tol: Fraction) -> bool:
    """|endpoint - center| < tol, decided in the endpoint's quadratic field."""
    return (
        quad_compare(endpoint, QuadExt.make(center - tol)) > 0
        and quad_compare(endpoint, QuadExt.make(center + tol)) < 0
    )


@pytest.mark.parametrize("make_cf,printed,label,bracket", SECTION8_CASES)
def test_criterion_03_section8_examples(hmst, make_cf, printed, label, bracket):
    res = alpha_for_irrational(hmst, make_cf(), digits=12)
    with mp.workprec(200):
        target = mpf(printed)
        diff = abs(res.value - target)
        ok = diff < mpf("0.5e-10")
    # exact sandwich: the convergents' plateaus bound the parameter from
    # both sides, and both inner endpoints round to the pinned value
    below, above = bracket
    inner_lo = preimage_interval(hmst, below, 260).hi.exact
    inner_hi = preimage_interval(hmst, above, 260).lo.exact
    assert below < above
    assert quad_compare(inner_lo, inner_hi) <= 0
    pinned = Fr(printed)
    sandwiched = all(_within_exact(e, pinned, SECTION8_TOL) for e in (inner_lo, inner_hi))
    report(
        3, ok and sandwiched,
        f"{label}: computed {mp.nstr(res.value, 11)} vs pinned {printed} "
        f"(|diff| = {mp.nstr(diff, 3)}), exact sandwich hi({below}) <= lo({above})",
    )
    assert sandwiched, (
        f"pinned constant for {label} is not within 0.5e-10 of the exact "
        f"endpoints hi(r^-1({below})) and lo(r^-1({above}))"
    )
    assert ok, (
        f"pinned constant for {label} not reproduced by alpha_for_irrational; "
        "the pinned value itself is backed by the exact convergent sandwich"
    )


@pytest.mark.parametrize(
    "make_cf,old_printed,pinned",
    [
        pytest.param(_gamma_cbrt2, "0.5587336687", "0.5587336551", id="cbrt2-minus-1"),
        pytest.param(_gamma_euler, "0.7904851693", "0.7898271795", id="euler-ratio"),
    ],
)
def test_criterion_03_trace_form_provenance(hmst, make_cf, old_printed, pinned):
    """The earlier printed constants are the trace form
    (tau_N^{q_{N+1}} / tau_{N+1}^{q_N})^{(-1)^N} stopped at N = 4; from
    N = 5 on it agrees with the pinned converged values.  Computed from
    the public sequence accessors, since alpha_by_traces rightly refuses
    these expansions for want of a rigor certificate."""
    cf = make_cf()
    seq = rho_sequence(hmst, cf, 6)
    with mp.workprec(200):

        def trace_form(n):
            s = seq.q(n + 1) * mlog(mpf(seq.tau(n))) - seq.q(n) * mlog(mpf(seq.tau(n + 1)))
            return mexp(-s if n % 2 else s)

        tol = mpf("0.5e-10")
        assert abs(trace_form(4) - mpf(old_printed)) < tol
        assert abs(trace_form(4) - mpf(pinned)) > tol
        assert abs(trace_form(5) - mpf(pinned)) < tol
    with pytest.raises(IrrationalPreimageError, match="no rigor certificate"):
        alpha_by_traces(hmst, cf, 4)


@pytest.mark.parametrize(
    "make_cf,computed,plateau",
    [
        pytest.param(_gamma_cbrt2, "0.55873365514244", Fr(6, 23), id="cbrt2-minus-1"),
        pytest.param(_gamma_euler, "0.78982717945127", Fr(3, 7), id="euler-ratio"),
    ],
)
def test_criterion_03_cross_validation(hmst, make_cf, computed, plateau):
    """The earlier printed constants (N = 4 trace-form truncations) fail
    an assumption-free check: each lies strictly inside a rational
    plateau (an exact quadratic-field membership, no floating point),
    where the ratio function takes a rational value and so cannot equal
    the irrational target.  The computed value instead respects the
    monotone sandwich of the convergents' intervals wherever the
    separation exceeds its certified radius."""
    cf = make_cf()
    res = alpha_for_irrational(hmst, cf, digits=20)
    with mp.workprec(260):
        assert abs(res.value - mpf(computed)) < mpf(10) ** -14
        # decisive exact fact: the earlier printed constant is on a plateau
        pinned = {
            "0.55873365514244": "0.5587336687",
            "0.78982717945127": "0.7904851693",
        }[computed]
        step = preimage_interval(hmst, plateau, 260)
        assert step.contains(Fr(pinned))
        assert not step.contains(Fr(computed))
        # sandwich: every convergent's interval lies entirely on the
        # correct side, whenever distinguishable beyond the radius
        from sturmjsr.contfrac import convergents as conv_pairs

        pairs = conv_pairs(cf, 6)
        guard = 8 * (res.error_radius + mpf(2) ** -200)
        checked = 0
        for k in range(1, 7):
            p, q = pairs[k + 1]
            iv = preimage_interval(hmst, Fr(p, q), 260)
            if k % 2 == 0:  # convergent below the target ratio
                if res.value - iv.hi.value > guard:
                    checked += 1
                    assert iv.hi.value < res.value
            else:
                if iv.lo.value - res.value > guard:
                    checked += 1
                    assert res.value < iv.lo.value
        assert checked >= 3


def test_criterion_04_trace_recurrence(hmst):
    cf = cf_of_quadratic(Fr(3, 2), Fr(-1, 2), 5)
    taus = tau_recurrence_golden(14)
    seq = rho_sequence(hmst, cf, 14)
    bad = [n for n in range(-1, 15) if seq.tau(n) != taus[n + 2]]
    report(4, not bad, "integer trace recurrence equals matrix traces, n <= 14")
    assert not bad


def test_criterion_05_perron_projection_example():
    p = perron_projection(Mat2(2, 1, 1, 1))
    expected = Mat2(
        QuadExt.make(Fr(1, 2), Fr(1, 10), 5),
        QuadExt.make(0, Fr(1, 5), 5),
        QuadExt.make(0, Fr(1, 5), 5),
        QuadExt.make(Fr(1, 2), Fr(-1, 10), 5),
    )
    ok = p == expected
    report(5, ok, "projection of [[2,1],[1,1]] exact in the sqrt(5) field")
    assert ok


def test_criterion_06_oracle_sandwich(hmst):
    t0 = time.monotonic()
    prec = 256
    worst_gap = mpf(0)
    ok = True
    for alpha in (Fr(4, 5), Fr(9, 10), Fr(1), Fr(11, 10), Fr(5, 4)):
        ob = jsr_bounds(hmst, alpha, 12, prec)
        v = varrho_on_interval(hmst, Fr(1, 2), alpha, prec)
        with mp.workprec(prec):
            ok &= abs(ob.lower - v) <= v * mpf(2) ** -100
            gap = ob.upper - ob.lower
            worst_gap = max(worst_gap, gap)
            ok &= gap < mpf("0.02")
        ok &= slope(ob.lower_witness) == Fr(1, 2)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    report(6, bool(ok), f"worst gap {mp.nstr(worst_gap, 4)} < 0.02, {elapsed:.2f}s")
    assert ok


def test_criterion_07_condition_v_sweep(hmst):
    rep = check_condition_v(hmst, 1, Fr(1, 2), 10)
    report(7, rep.passed, f"{rep.checked} rotation classes, {len(rep.violations)} violations")
    assert rep.passed


def test_criterion_08_staircase_structure(hmst):
    st = build_staircase(hmst, 30)  # raises on any ordering/overlap fault
    ok = len(st.steps) == len(farey_fractions(30))
    # duality bijection with exact endpoints
    by_fraction = {s.fraction: s for s in st.steps}
    one = QuadExt.make(1)
    for pq, step in by_fraction.items():
        partner = by_fraction[1 - pq]
        ok &= partner.lo.exact == one / step.hi.exact
        ok &= partner.hi.exact == one / step.lo.exact
    rep = gap_diagnostics(st, ("0.5", "0.8"), [5, 10, 20, 30])
    ok &= rep.monotone_decreasing()
    report(
        8, bool(ok),
        "278 steps ordered+disjoint (exact), duality bijection, residuals "
        + " > ".join(mp.nstr(rep.residuals[q], 3) for q in (5, 10, 20, 30)),
    )
    assert ok


def test_criterion_09_strict_concavity(hmst):
    prec = 250
    worst_margin = None
    count = 0
    with mp.workprec(prec):
        stack = [(Fr(0, 1), Fr(1, 1))]
        while stack:
            left, right = stack.pop()
            med = Fr(
                left.numerator + right.numerator,
                left.denominator + right.denominator,
            )
            if med.denominator > 25:
                continue
            count += 1
            s_l = s_value(hmst, left, prec).value
            s_r = s_value(hmst, right, prec).value
            s_m = s_value(hmst, med, prec).value
            b, d = left.denominator, right.denominator
            margin = s_m - (b * s_l + d * s_r) / (b + d)
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
            stack.append((left, med))
            stack.append((med, right))
    ok = worst_margin is not None and worst_margin > 0
    report(9, ok, f"{count} mediant triples, smallest margin {mp.nstr(worst_margin, 4)}")
    assert ok


def test_criterion_10_asymptote_trend(hmst):
    with mp.workprec(200):
        errs = []
        last = None
        for n in (5, 10, 20, 30):
            iv = general_one_over_n_interval(hmst, n, 200)
            scaled = (n + 1) * iv.lo.value  # denominator times left endpoint
            errs.append(abs(scaled - mp.e))
            last = scaled
        decreasing = all(b < a for a, b in zip(errs, errs[1:]))
        within = errs[-1] / mp.e < mpf(1) / 10
    ok = decreasing and within
    report(
        10, bool(ok),
        f"denominator*lo tends to e: final {mp.nstr(last, 6)} "
        f"({mp.nstr(100 * errs[-1] / mp.e, 3)}% off)",
    )
    assert decreasing and within


def test_criterion_11_kozyakin_zero_step(kozyakin):
    z = preimage_zero(kozyakin)
    ok = (
        z.lo_unbounded
        and not z.empty
        and z.hi.exact == QuadExt.make(Fr(2, 5))
    )
    report(11, bool(ok), "ratio-0 step is exactly [0, 2/5]")
    assert ok
