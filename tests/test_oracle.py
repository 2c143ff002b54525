import json
import math
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, sqrt as msqrt

from sturmjsr import oracle
from sturmjsr.cli import main
from sturmjsr.family import (
    MatrixFamily,
    builtin_bousch_mairesse,
    builtin_hmst,
    builtin_kozyakin,
)
from sturmjsr.linalg2 import (
    Mat2,
    QuadExt,
    radius_from_trace_det,
    sigma_from_frobenius,
    sigma_norm,
    spectral_radius,
    spectral_radius_mpf,
)
from sturmjsr.oracle import (
    OracleError,
    _log_float,
    _log_floor,
    _mass_candidates,
    _Screen,
    _mul,
    _necklace_levels,
    _per_class,
    _setup,
    check_condition_v,
    extremal_slope_estimate,
    jsr_bounds,
)
from sturmjsr.precision import fraction_from_mpf, mpf_from_fraction
from sturmjsr.rational_preimage import SternBrocotNode, preimage_interval, varrho_on_interval
from sturmjsr.words import is_cyclically_balanced, necklaces, slope

Fr = Fraction


def test_bounds_basic_examples(hmst):
    ob = jsr_bounds(hmst, 1, 2)
    with mp.workprec(256):
        golden = (1 + mp.sqrt(5)) / 2
        assert abs(ob.lower - golden) < mpf(2) ** -200
    assert ob.lower_witness == "01"
    assert ob.witness_is_cyclically_balanced
    assert ob.lower <= ob.upper


def test_bounds_alpha_zero(hmst):
    ob = jsr_bounds(hmst, 0, 6)
    assert ob.lower == 1  # witness "0", mixed words die
    assert ob.lower_witness == "0"


def test_bounds_length_cap(hmst):
    with pytest.raises(OracleError):
        jsr_bounds(hmst, 1, 21)
    with pytest.raises(OracleError):
        jsr_bounds(hmst, 1, 0)


def test_bounds_cost_warning(hmst):
    with pytest.warns(UserWarning):
        jsr_bounds(hmst, 1, 17)


def test_endpoint_witness_slope(hmst):
    ob = jsr_bounds(hmst, Fr(4, 5), 12)
    assert ob.lower_witness == "01"
    # endpoints resolve to one of the adjacent Farey slopes
    for alpha in (Fr(4, 5), Fr(5, 4)):
        est = extremal_slope_estimate(hmst, alpha, 12)
        assert est in (Fr(1, 2), Fr(1, 3), Fr(2, 3))


def test_slope_estimate_tracks_parameter(hmst):
    assert extremal_slope_estimate(hmst, 1, 8) == Fr(1, 2)
    assert extremal_slope_estimate(hmst, 10, 10) > Fr(1, 2)
    assert extremal_slope_estimate(hmst, Fr(1, 10), 10) < Fr(1, 2)
    # near the non-finiteness parameter the witness is a golden convergent
    est = extremal_slope_estimate(hmst, Fr(74932654633, 10 ** 11), 13)
    assert est in (Fr(1, 3), Fr(2, 5), Fr(3, 8), Fr(5, 13))


def test_bounds_sandwich_known_step(hmst):
    prec = 256
    for alpha in (Fr(4, 5), Fr(9, 10), Fr(1), Fr(11, 10), Fr(5, 4)):
        ob = jsr_bounds(hmst, alpha, 12, prec)
        v = varrho_on_interval(hmst, Fr(1, 2), alpha, prec)
        with mp.workprec(prec):
            assert ob.lower <= v * (1 + mpf(2) ** -100)
            assert v <= ob.upper * (1 + mpf(2) ** -100)
            assert abs(ob.lower - v) <= v * mpf(2) ** -100
            assert ob.upper - ob.lower < mpf("0.02")


@pytest.mark.parametrize("fixture_name", ["hmst", "kozyakin", "bousch_mairesse"])
def test_bounds_sandwich_all_families(fixture_name, request):
    fam = request.getfixturevalue(fixture_name)
    prec = 160
    for pq in (Fr(1, 3), Fr(1, 2), Fr(2, 3)):
        iv = preimage_interval(fam, pq, prec)
        with mp.workprec(prec):
            samples = [
                iv.lo.value + (iv.hi.value - iv.lo.value) * k / 4 for k in (1, 2, 3)
            ]
        for alpha in samples:
            v = varrho_on_interval(fam, pq, alpha, prec)
            for max_len in (6, 12):
                ob = jsr_bounds(fam, alpha, max_len, prec)
                with mp.workprec(prec):
                    assert ob.lower <= v * (1 + mpf(2) ** -80)
                    assert v <= ob.upper * (1 + mpf(2) ** -80)


def test_upper_bound_monotone_along_divisor_chain(hmst):
    prev = None
    for max_len in (3, 6, 12):
        ob = jsr_bounds(hmst, Fr(9, 10), max_len)
        if prev is not None:
            assert ob.upper <= prev * (1 + mpf(2) ** -200)
        prev = ob.upper


def test_condition_v_pass(hmst):
    rep = check_condition_v(hmst, 1, Fr(1, 2), 10)
    assert rep.passed
    assert rep.equalities == 5  # powers of the 01 necklace up to length 10
    assert rep.checked == sum(1 for n in range(1, 11) for _ in necklaces(n))


def test_condition_v_specific_words(hmst):
    prec = 256
    with mp.workprec(prec):
        v = varrho_on_interval(hmst, Fr(1, 2), 1, prec)
        # a non-balanced word stays strictly below
        from sturmjsr.linalg2 import spectral_radius_mpf

        rho = spectral_radius_mpf(hmst.product("0011"), prec)
        assert rho < v ** 4
        # powers of the mechanical word meet the target to tolerance
        for k in (1, 2, 3):
            rho_k = spectral_radius_mpf(hmst.product("01" * k), prec)
            assert abs(rho_k - v ** (2 * k)) < v ** (2 * k) * mpf(2) ** -200


def test_condition_v_rejects_outside_alpha(hmst):
    with pytest.raises(OracleError):
        check_condition_v(hmst, 2, Fr(1, 2), 6)


def test_condition_v_off_slope_balanced_strict(hmst):
    # cyclically balanced words of other slopes are strictly below too
    rep = check_condition_v(hmst, 1, Fr(1, 2), 9)
    assert rep.passed
    with mp.workprec(256):
        from sturmjsr.linalg2 import spectral_radius_mpf

        v = varrho_on_interval(hmst, Fr(1, 2), 1)
        rho = spectral_radius_mpf(hmst.product("001"), 256)
        assert rho ** 2 < v ** 6  # slope 1/3 word, comfortably inside


def test_bounds_reject_negative_alpha(hmst):
    with pytest.raises(OracleError):
        jsr_bounds(hmst, Fr(-1, 2), 4)


# ---------------------------------------------------------------------------
# reference: one exact spectral radius per necklace and two sigma norms per
# leaf, with no reduction to one norm per ones-count


def _rounded(x, prec):
    """x rounded by mpmath alone, the numerator and then the quotient to
    nearest at ``prec`` bits: the roundings ``mpf_from_ratio`` must match."""
    x = Fr(x)
    with mp.workprec(prec):
        return mpf(x.numerator) / x.denominator


def _reference_bounds(fam, alpha, max_len, prec):
    with mp.workprec(prec):
        alpha_f = _rounded(alpha, prec)
        best, witness = mpf(-1), "0"
        tie_slack = 1 + mpf(2) ** (-prec + 24)
        for n in range(1, max_len + 1):
            for w in necklaces(n):
                r = spectral_radius(fam.product(w), prec)
                rho = r.to_mpf(prec) if isinstance(r, QuadExt) else r
                val = (rho * alpha_f ** w.count("1")) ** (mpf(1) / n)
                if val > best * tie_slack:
                    best, witness = val, w
        up_plain, up_bal = mpf(0), mpf(0)
        s = msqrt(alpha_f) if alpha_f > 0 else None
        stack = [(Mat2.identity(), 0, 0)]
        while stack:
            m, depth, ones = stack.pop()
            if depth < max_len:
                stack.append((fam.a0 @ m, depth + 1, ones))
                stack.append((fam.a1 @ m, depth + 1, ones + 1))
                continue
            mf = m.to_mpf(prec)
            scale = alpha_f ** ones
            up_plain = max(up_plain, sigma_norm(mf, prec) * scale)
            if s is not None:
                bal = Mat2(mf.a, mf.b * s, mf.c / s, mf.d)
                up_bal = max(up_bal, sigma_norm(bal, prec) * scale)
        upper, norm = up_plain ** (mpf(1) / max_len), "sigma"
        if s is not None and up_bal ** (mpf(1) / max_len) < upper:
            upper, norm = up_bal ** (mpf(1) / max_len), "sigma-balanced"
        return best, witness, max(upper, best), norm


_ORACLE_FAMILIES = {
    "hmst": builtin_hmst(),
    "kozyakin": builtin_kozyakin(Fr(1, 2), 1, 1, Fr(1, 2)),
    "bousch-mairesse": builtin_bousch_mairesse(1, "0.5", "0.5"),
    # unequal determinants 1/3 and 3/4, non-integer entries
    "kozyakin-det": builtin_kozyakin(Fr(1, 3), Fr(3, 2), 1, Fr(3, 4)),
}


@given(
    st.sampled_from(sorted(_ORACLE_FAMILIES)),
    st.fractions(min_value=0, max_value=5, max_denominator=1000),
    st.integers(1, 9),
)
@settings(max_examples=40, deadline=None)
def test_bounds_match_per_leaf_reference(name, alpha, max_len):
    fam, prec = _ORACLE_FAMILIES[name], 256
    lower, witness, upper, norm = _reference_bounds(fam, alpha, max_len, prec)
    ob = jsr_bounds(fam, alpha, max_len, prec)
    assert ob.lower_witness == witness
    assert ob.lower == lower
    assert ob.upper_norm == norm
    with mp.workprec(prec):
        assert abs(ob.upper - upper) <= upper * mpf(2) ** (16 - prec)


def test_oracle_json_golden(capsys):
    # payloads of `oracle --format json` at maxlen 10, pinned byte for byte:
    # alpha 1.1 lies on every builtin's 1/2 step, 0.7493 is near alpha-star
    cases = json.loads((Path(__file__).parent / "oracle_golden.json").read_text())
    assert len(cases) == 9
    for case in cases:
        argv = ["oracle", case["alpha"], "--maxlen", "10",
                "--family", case["family"], "--format", "json"]
        assert main(argv) == 0
        assert capsys.readouterr().out == case["stdout"], case


# ---------------------------------------------------------------------------
# the double-precision screen: soundness of its bounds, and bit-identity with
# the unscreened enumeration it replaced, kept here as the reference

_SCREEN_FAMILIES = dict(
    _ORACLE_FAMILIES,
    signed=MatrixFamily(Mat2(1, -1, 0, 1), Mat2(1, 0, 1, 1)),
    complex=MatrixFamily(Mat2(0, 1, -1, 0), Mat2(1, 0, 1, 1)),
    # A1 is A0^T up to 2^-70: transposed words nearly tie in mass, closer
    # than doubles resolve, and the unequal row sums make the rounding of
    # the two products differ
    near_tie=MatrixFamily(
        Mat2(1, Fr(1, 3), 0, Fr(1, 5)), Mat2(1, 0, Fr(1, 3) + Fr(1, 2 ** 70), Fr(1, 5))
    ),
)

_SCREEN_ALPHAS = st.one_of(
    st.sampled_from([Fr(0), Fr(1)]),
    st.fractions(min_value=0, max_value=5, max_denominator=1000),
)


def _unscreened_necklace_radii(fam, max_len, prec):
    exact = fam.integral
    if exact:
        (g0, k0), (g1, k1) = fam.integer_generators()
        dens, dets = (k0, k1), (g0.det(), g1.det())
    else:
        g0, g1 = fam.a0, fam.a1
    gens = {"0": g0.entries(), "1": g1.entries()}
    prev, stack = "", [(1, 0, 0, 1)]
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
                det = Fr(_per_class(dets, n, ones), den * den)
                rho = radius_from_trace_det(Fr(m[0] + m[3], den), det, prec)
            else:
                rho = spectral_radius_mpf(Mat2(*m), prec)
            yield w, ones, rho


def _unscreened_upper(fam, alpha_f, length, prec):
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
        top_f[ones] = max(top_f[ones], a2d2 + b2 + c2)
        if balanced:
            top_b[ones] = max(top_b[ones], a2d2 * s + b2 * u + c2 * v)
    up_plain = mpf(0)
    up_bal = mpf(0) if balanced else None
    for k in range(length + 1):
        den2 = _per_class(dens, length, k) ** 2
        det = _rounded(Fr(_per_class(dets, length, k), den2), prec)
        scale = alpha_f ** k
        f = _rounded(Fr(top_f[k], den2), prec)
        up_plain = max(up_plain, sigma_from_frobenius(f, det) * scale)
        if balanced:
            f = _rounded(Fr(top_b[k], den2 * s), prec)
            up_bal = max(up_bal, sigma_from_frobenius(f, det) * scale)
    return up_plain, up_bal


def _unscreened_bounds(fam, alpha, max_len, prec=256):
    """(lower, witness, upper, upper_norm) of ``jsr_bounds`` before the
    screen: every necklace's radius and root at ``prec``, every leaf's
    integer mass."""
    with mp.workprec(prec):
        alpha_f = _rounded(alpha, prec)
        best, witness = mpf(-1), "0"
        tie_slack = 1 + mpf(2) ** (-prec + 24)
        for w, ones, rho in _unscreened_necklace_radii(fam, max_len, prec):
            val = (rho * alpha_f ** ones) ** (mpf(1) / len(w))
            if val > best * tie_slack:
                best, witness = val, w
        up_plain, up_bal = _unscreened_upper(fam, alpha_f, max_len, prec)
        exponent = mpf(1) / max_len
        upper, norm = up_plain ** exponent, "sigma"
        if up_bal is not None and up_bal ** exponent < upper:
            upper, norm = up_bal ** exponent, "sigma-balanced"
        return best, witness, max(upper, best), norm


def _unscreened_condition_v(fam, alpha, pq, max_len, prec):
    """(checked, equalities, violations) of ``check_condition_v`` before the
    screen, with the target of the same ``oracle.varrho_on_interval``."""
    with mp.workprec(prec):
        alpha_f = mpf(alpha)
        varrho = oracle.varrho_on_interval(fam, pq, alpha, prec)
        tol = mpf(2) ** (-prec // 2)
        checked, equalities, violations = 0, 0, []
        for w, ones, rho in _unscreened_necklace_radii(fam, max_len, prec):
            n = len(w)
            target = varrho ** n
            rho = rho * alpha_f ** ones
            checked += 1
            if is_cyclically_balanced(w) and slope(w) == pq:
                equalities += 1
                if abs(rho - target) > tol * target:
                    violations.append(
                        f"{w}: expected equality, got {mp.nstr(rho / target, 10)}"
                    )
            elif rho >= target * (1 - tol):
                violations.append(
                    f"{w}: rho^(1/n) ratio {mp.nstr((rho / target) ** (mpf(1) / n), 10)} not strictly below"
                )
        return checked, equalities, violations


def _walk_bounds(fam, alpha_f, max_len, prec):
    """(word, ones, bound, radius) for every necklace of the walk up to
    ``max_len``: its own double bound and its radius at ``prec``."""
    screen = _Screen(fam, _setup(fam, alpha_f), max_len, prec)
    for n, level in enumerate(screen.levels[1:], 1):
        wide = screen.start(n)
        for ones, t, bits in level:
            yield (screen.word(bits), ones, screen.bound(ones, abs(t) + wide),
                   partial(screen.radius, ones, t, bits))


@given(st.sampled_from(sorted(_SCREEN_FAMILIES)), _SCREEN_ALPHAS)
@example("complex", Fr(7, 10))  # radius exactly sqrt(det): no slack but the margin
@settings(max_examples=12, deadline=None)
def test_screen_bound_is_above_every_value(name, alpha):
    # every necklace up to length 12: the double bound is at or above the
    # log of the value mpf computes, and the floor of each value is below
    # its log by the margin the skips rely on
    fam, prec = _SCREEN_FAMILIES[name], 256
    alpha_f = mpf_from_fraction(alpha, prec)
    with mp.workprec(prec):
        for w, ones, bound, radius in _walk_bounds(fam, alpha_f, 12, prec):
            assert bound < math.inf, w
            x = radius() * alpha_f ** ones
            lx = mp.log(x)
            assert mpf(bound) >= lx, (name, alpha, w, bound)
            if x > 0:
                assert _log_floor(x) <= lx - mpf(2) ** -41 * (1 + abs(lx)), (name, alpha, w)


@pytest.mark.parametrize("name", ["hmst", "kozyakin-det", "signed", "near_tie", "bousch-mairesse"])
def test_walk_levels_are_the_necklaces(name):
    # every length of every walk up to 14 letters (the last length takes
    # the leaf path): the words of words.necklaces in their order, their
    # ones-counts, and the traces of the products one letter at a time, in
    # integers for an exact family and by the same roundings for a float one
    fam = _SCREEN_FAMILIES[name]
    st_ = _setup(fam, mpf(1))
    gens = st_.ints if fam.integral else st_.units
    top = 14 if fam.integral else 10
    ref = {}
    for n in range(1, top + 1):
        ref[n] = []
        for w in necklaces(n):
            m = (1, 0, 0, 1)
            for ch in w:
                m = _mul(gens[int(ch)], m)
            ref[n].append((w, w.count("1"), m[0] + m[3]))
    for max_len in range(1, top + 1):
        levels = _necklace_levels(*gens, max_len)
        assert len(levels) == max_len + 1 and levels[0] == []
        for n in range(1, max_len + 1):
            got = [(format(bits, f"0{n}b"), ones, t) for ones, t, bits in levels[n]]
            assert got == ref[n], (name, max_len, n)


@given(st.sampled_from(sorted(_SCREEN_FAMILIES)), _SCREEN_ALPHAS, st.integers(1, 12))
@example("complex", Fr(7, 10), 12)
@example("near_tie", Fr(1), 9)
@settings(max_examples=15, deadline=None)
def test_class_cap_bound_is_above_every_value_below_it(name, alpha, max_len):
    # each class of every length up to max_len, with the limit at the log
    # value of its middle word by key (0 where every value is 0): the cap's
    # bound is below the limit,
    # and every necklace of the class whose key is at or below the cap has
    # an mpf log value at or below the cap's bound
    fam, prec = _SCREEN_FAMILIES[name], 256
    alpha_f = mpf_from_fraction(alpha, prec)
    screen = _Screen(fam, _setup(fam, alpha_f), max_len, prec)
    capped = 0
    with mp.workprec(prec):
        for n, level in enumerate(screen.levels[1:], 1):
            wide = screen.start(n)
            classes = {}
            for ones, t, bits in level:
                x = screen.radius(ones, t, bits) * alpha_f ** ones
                classes.setdefault(ones, []).append((abs(t) + wide, mp.log(x)))
            for k, words in classes.items():
                words.sort(key=lambda kw: kw[0])
                limit = float(words[len(words) // 2][1])
                if limit == -math.inf:  # alpha = 0 and k > 0: every value is 0
                    limit = 0.0
                cap = screen.cap(k, limit)
                if cap == -1:
                    continue
                bound = screen.bound(k, cap)
                assert bound < limit, (name, alpha, n, k)
                for key, lx in words:
                    if key <= cap:
                        capped += 1
                        assert lx <= mpf(bound), (name, alpha, n, k, key)
    assert capped or max_len < 8


def test_class_caps_let_few_necklaces_through(hmst, monkeypatch):
    # hmst at L = 13: the class caps skip all but a handful of the 1433
    # necklaces with one comparison; only those take their own bound
    calls = []
    bound = _Screen.bound

    def counting(self, k, key):
        calls.append((self.n, k, key))
        return bound(self, k, key)

    monkeypatch.setattr(_Screen, "bound", counting)
    jsr_bounds(hmst, Fr(1234, 1000), 13)
    assert 1 <= len(calls) <= 50


@pytest.mark.parametrize("family", ["hmst", "kozyakin", "bousch-mairesse"])
def test_spot_check_builds_its_step_once(family, capsys, monkeypatch):
    calls = []
    interval = SternBrocotNode.interval

    def counting(self, *args, **kwargs):
        calls.append(self.fraction)
        return interval(self, *args, **kwargs)

    monkeypatch.setattr(SternBrocotNode, "interval", counting)
    assert main(["check", family, "--spot-check", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["condition_v_spot"] is True
    assert calls == [Fr(1, 2)]


@given(st.sampled_from(sorted(_SCREEN_FAMILIES)), _SCREEN_ALPHAS, st.integers(1, 12))
@example("near_tie", Fr(1), 4)  # doubles order the nearly tied top leaves wrongly
@example("near_tie", Fr(7, 3), 6)
@settings(max_examples=25, deadline=None)
def test_mass_candidates_hold_the_exact_argmax(name, alpha, length):
    # the exact plain mass and balanced key of every integer product, by
    # ones-count; the candidates must reach each class maximum
    fam = _SCREEN_FAMILIES[name]
    alpha_f = mpf_from_fraction(alpha, 256)
    plain, bal, _ = _mass_candidates(_setup(fam, alpha_f), alpha_f, length)
    (g0, _), (g1, _) = fam.integer_generators()
    gens = (g0.entries(), g1.entries())
    p, q = alpha.as_integer_ratio()
    mass, stack = {}, [((1, 0, 0, 1), 0, 0)]
    while stack:
        m, depth, word = stack.pop()
        if depth < length:
            stack += [(_mul(gens[x], m), depth + 1, 2 * word + x) for x in (0, 1)]
            continue
        a, b, c, d = m
        mass[word] = (a * a + b * b + c * c + d * d, (a * a + d * d) * p * q + b * b * p * p + c * c * q * q)
    assert (bal is None) == (alpha == 0)
    for k in range(length + 1):
        cls = [w for w in mass if bin(w).count("1") == k]
        for i, kept in enumerate((plain, bal)[: 1 if bal is None else 2]):
            assert max(mass[w][i] for w in kept[k]) == max(mass[w][i] for w in cls)


@pytest.mark.parametrize(
    "name,max_len",
    [
        ("hmst", 13), ("bousch-mairesse", 11), ("kozyakin", 10), ("signed", 10), ("complex", 10),
        # scales k0 = 6, k1 = 4: den^2 has an odd part for the rounding to remove
        ("kozyakin-det", 10),
        ("hmst", 1), ("kozyakin-det", 1), ("near_tie", 5),
    ],
)
def test_screen_matches_unscreened_bounds(name, max_len):
    # seeded alphas, alpha = 0, 1.1 on every builtin's 1/2 step, where the
    # powers of 01 tie with the witness, 1, where the plain and balanced
    # norms tie, 1 + 2^-60, where the classes of a word and of its reversed
    # transpose nearly tie, and 1/1000 and 1000, where r = min(alpha, 1/alpha)
    # is extreme
    fam = _SCREEN_FAMILIES[name]
    rng = random.Random(f"screen:{name}")
    alphas = (Fr(0), Fr(11, 10), Fr(rng.randint(300, 3000), 1000), Fr(1), Fr(2 ** 60 + 1, 2 ** 60),
              Fr(1, 1000), Fr(1000))
    for alpha in alphas:
        ob = jsr_bounds(fam, alpha, max_len)
        ref = _unscreened_bounds(fam, alpha, max_len)
        assert (ob.lower, ob.lower_witness, ob.upper, ob.upper_norm) == ref, (name, alpha)


def _class_tie(e):
    """A0 = [[1, 1], [0, 1]] and A1 = 2^-e A0^T: at alpha = 2^e the classes
    of k and L - k ones tie exactly (a word and its reversed transpose)."""
    s = Fr(1, 2 ** e)
    return MatrixFamily(Mat2(1, 1, 0, 1), Mat2(s, 0, s, s))


@pytest.mark.parametrize("e", [100, 500])
@pytest.mark.parametrize("length", [11, 13])
@pytest.mark.parametrize("sign", [1, -1])
def test_class_screen_keeps_classes_closer_than_doubles_resolve(e, length, sign):
    # alpha = 2^e (1 -+ 2^-45) parts the tied middle classes by about 2^-45,
    # below what doubles resolve next to log alpha = 69 or 347: without the
    # -+ 2E slack and the 2^-40 margins, the screen drops the larger class
    # in half of these cases
    fam, prec = _class_tie(e), 256
    alpha_f = mpf_from_fraction(Fr(2 ** e) * (1 + sign * Fr(1, 2 ** 45)), prec)
    with mp.workprec(prec):
        got = oracle._upper_bounds(_setup(fam, alpha_f), alpha_f, length, prec)
        assert got == _unscreened_upper(fam, alpha_f, length, prec)


def test_screen_matches_unscreened_condition_v(monkeypatch):
    # two points on three steps of each builtin, and a target 10% below the
    # JSR on hmst's 1/2 step, which yields violations of both kinds
    prec = 256
    cases = []
    for name in ("hmst", "kozyakin", "bousch-mairesse"):
        fam = _ORACLE_FAMILIES[name]
        for pq in (Fr(1, 3), Fr(1, 2), Fr(2, 5)):
            iv = preimage_interval(fam, pq, prec)
            with mp.workprec(prec):
                for j in (1, 3):
                    cases.append((fam, iv.lo.value + (iv.hi.value - iv.lo.value) * j / 4, pq))
    hm = _ORACLE_FAMILIES["hmst"]
    wrong = (hm, mpf(1), Fr(1, 2))
    cases.append(wrong)
    true_varrho = oracle.varrho_on_interval

    def varrho(fam, pq, alpha, prec):
        v = true_varrho(fam, pq, alpha, prec)
        return v * mpf("0.9") if (fam, alpha, pq) == wrong else v

    monkeypatch.setattr(oracle, "varrho_on_interval", varrho)
    violated = 0
    for fam, alpha, pq in cases:
        rep = check_condition_v(fam, alpha, pq, 10, prec)
        ref = _unscreened_condition_v(fam, alpha, pq, 10, prec)
        assert (rep.checked, rep.equalities, rep.violations) == ref, (fam.label, pq)
        violated += bool(ref[2])
    assert violated == 1 and any("expected equality" in v for v in ref[2])
    assert any("not strictly below" in v for v in ref[2])


def test_screen_evaluates_few_radii(hmst, monkeypatch):
    # the screen cannot be switched off unnoticed: hmst at L = 13 needs
    # full precision for a handful of its 1433 necklaces
    calls = []

    def counting(*args):
        calls.append(args)
        return radius_from_trace_det(*args)

    monkeypatch.setattr(oracle, "radius_from_trace_det", counting)
    jsr_bounds(hmst, Fr(1234, 1000), 13)
    assert 1 <= len(calls) <= 50


def test_upper_bound_evaluates_one_class_per_norm(hmst, monkeypatch):
    # the class screen cannot be switched off unnoticed: of the 14 ones-count
    # classes of hmst at L = 13, one per norm reaches full precision
    calls = []

    def counting(*args):
        calls.append(args)
        return sigma_from_frobenius(*args)

    monkeypatch.setattr(oracle, "sigma_from_frobenius", counting)
    jsr_bounds(hmst, Fr(1234, 1000), 13)
    assert 1 <= len(calls) <= 4


@given(
    st.one_of(
        st.integers(1, 2 ** 4000),
        # within a factor 2 of 1, numerator and denominator past the double range
        st.builds(lambda d, t: Fr(d + (d * t >> 64), d),
                  st.integers(2 ** 1030, 2 ** 1100), st.integers(1 - 2 ** 64, 2 ** 64)),
        # 256-bit mantissas from 2^-1100 to 2^1100
        st.tuples(st.integers(2 ** 255, 2 ** 256 - 1), st.integers(-1100, 1100)),
    )
)
@example((2 ** 256 - 1, 1024))  # rounds up to 2^1024, past the largest double
@example((2 ** 255 + 1, -1022))
@example((2 ** 255, -1100))
@example(2 ** 1024 - 1)
@example(10 ** 934)  # math.log(int) past the double range errs by 1.07 times the bound
@settings(max_examples=300, deadline=None)
def test_log_float_bound(x):
    with mp.workprec(256):
        if isinstance(x, tuple):
            x = mp.ldexp(mpf(x[0]), x[1] - 256)
        lx = mp.log(mpf(x.numerator) / x.denominator if isinstance(x, Fr) else x)
        assert abs(_log_float(x) - lx) <= mpf(2) ** -52 * (1 + abs(lx)), x
