from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import exp as mexp
from mpmath import log as mlog
from mpmath import mp, mpf

from helpers import compare_reference, farey_fractions, two_ladder_upper
from sturmjsr import rational_preimage
from sturmjsr.family import MatrixFamily, builtin_bousch_mairesse, builtin_hmst, builtin_kozyakin
from sturmjsr.linalg2 import (
    Mat2,
    QuadExt,
    perron_projection,
    product_of_word,
    quad_compare,
    radius_from_trace_det,
    rank_one_spectral_radius,
    spectral_radius,
)
from sturmjsr.precision import fraction_from_mpf
from sturmjsr.rational_preimage import (
    Endpoint,
    EndpointPrecisionError,
    PreimageError,
    SternBrocotNode,
    compare,
    exact_ball,
    general_one_over_n_interval,
    preimage_interval,
    preimage_one,
    preimage_zero,
    s_value,
    varrho_on_interval,
)
from sturmjsr.staircase import build_staircase
from sturmjsr.words import standard_pair_for

Fr = Fraction
Q = QuadExt.make


def test_exact_interval_table(hmst, exact_intervals):
    for pq, (lo, hi) in exact_intervals.items():
        iv = preimage_interval(hmst, pq)
        assert iv.lo.exact == lo, pq
        assert iv.hi.exact == hi, pq


def test_interval_requires_interior_fraction(hmst):
    for bad in (Fr(0), Fr(1), Fr(3, 2)):
        with pytest.raises(PreimageError):
            preimage_interval(hmst, bad)


def test_interval_requires_sturmian_assertion(hmst):
    from sturmjsr.family import MatrixFamily

    fam = MatrixFamily(hmst.a0, hmst.a1, label="bare", asserted_sturmian=False)
    with pytest.raises(PreimageError):
        preimage_interval(fam, Fr(1, 2))


def test_boundary_steps_require_sturmian_assertion(kozyakin):
    # the boundary steps refuse a family without the assertion, as the
    # interior steps do; so does a ratio query that would land on one
    from sturmjsr.staircase import ratio_at

    bare = MatrixFamily(kozyakin.a0, kozyakin.a1, label="bare", asserted_sturmian=False)
    for query in (preimage_zero, preimage_one, lambda fam: ratio_at(fam, Fr(1, 10))):
        with pytest.raises(PreimageError, match="Sturmian"):
            query(bare)


def test_float_entry_family_needs_no_flags(bousch_mairesse):
    # exactness is read from the entries: the bare float pair gives the
    # builtin's steps
    from sturmjsr.family import MatrixFamily
    from sturmjsr.staircase import ratio_at

    bare = MatrixFamily(bousch_mairesse.a0, bousch_mairesse.a1, asserted_sturmian=True)
    assert preimage_interval(bare, Fr(1, 3)) == preimage_interval(bousch_mairesse, Fr(1, 3))
    assert preimage_zero(bare) == preimage_zero(bousch_mairesse)
    assert ratio_at(bare, 1) == ratio_at(bousch_mairesse, 1)
    assert not bare.integral


def test_float_endpoint_ignores_the_working_precision(bousch_mairesse):
    # the staircase's memo serves an end made under any working precision
    want = preimage_interval(bousch_mairesse, Fr(3, 7))
    with mp.workprec(300):
        got = preimage_interval(bousch_mairesse, Fr(3, 7))
    assert (got.lo.radius, got.hi.radius) == (want.lo.radius, want.hi.radius)
    assert got == want


def test_interior_nonempty_exact(hmst):
    for q in range(2, 31):
        for p in range(1, q):
            pq = Fr(p, q)
            if pq.denominator != q:
                continue
            iv = preimage_interval(hmst, pq)
            assert quad_compare(iv.lo.exact, iv.hi.exact) < 0, pq


def test_float_mirrors_agree_with_exact(hmst):
    with mp.workprec(256):
        for pq in (Fr(1, 2), Fr(3, 7), Fr(2, 5)):
            iv = preimage_interval(hmst, pq)
            assert abs(iv.lo.value - iv.lo.exact.to_mpf(256)) < mpf(2) ** -200
            assert abs(iv.hi.value - iv.hi.exact.to_mpf(256)) < mpf(2) ** -200


def test_boundary_intervals(hmst, kozyakin):
    z = preimage_zero(hmst)
    assert z.degenerate and z.hi.value == 0
    assert preimage_one(hmst).empty
    zk = preimage_zero(kozyakin)
    assert zk.lo_unbounded
    assert zk.hi.exact == Q(Fr(2, 5))
    ok = preimage_one(kozyakin)
    assert ok.hi_unbounded and not ok.empty
    assert ok.lo.exact == Q(Fr(5, 2))  # mirror of the zero step by symmetry


def test_zero_step_membership(kozyakin, hmst):
    assert preimage_zero(kozyakin).contains(Fr(1, 5))
    assert not preimage_zero(kozyakin).contains(Fr(1, 2))
    assert preimage_zero(hmst).contains(0)
    assert not preimage_zero(hmst).contains(Fr(1, 10))


def test_duality_flips_and_inverts(hmst):
    # step of 1 - p/q is the elementwise reciprocal of the step of p/q,
    # endpoints swapped; exact in the same quadratic field
    for q in range(2, 13):
        for p in range(1, q):
            pq = Fr(p, q)
            if pq.denominator != q:
                continue
            iv = preimage_interval(hmst, pq)
            dual = preimage_interval(hmst, 1 - pq)
            assert dual.lo.exact == iv.hi.exact.inverse()
            assert dual.hi.exact == iv.lo.exact.inverse()


def test_ordering_disjoint(hmst):
    prev_hi = None
    for pq in farey_fractions(30):
        iv = preimage_interval(hmst, pq)
        if prev_hi is not None:
            assert quad_compare(prev_hi, iv.lo.exact) < 0, pq
        prev_hi = iv.hi.exact


def test_s_values(hmst):
    with mp.workprec(256):
        sv = s_value(hmst, Fr(1, 2))
        golden_sq = QuadExt.make(Fr(3, 2), Fr(1, 2), 5)
        assert sv.exact_rho == golden_sq
        assert abs(sv.value - mlog(golden_sq.to_mpf(256)) / 2) < mpf(2) ** -200
        assert s_value(hmst, Fr(0)).value == 0
        assert s_value(hmst, Fr(1)).value == 0
        # cyclic equivalence: the 1/3 value equals the value through either word
        rho_a = spectral_radius(hmst.product("001"))
        rho_b = spectral_radius(hmst.product("010"))
        assert rho_a == rho_b


def test_s_strictly_concave_on_farey_triples(hmst):
    # mediant value strictly above the chord; equivalently the product of
    # the parent growth factors is strictly below the mediant's.
    # Margins checked at 250 bits.
    prec = 250
    checked = 0
    with mp.workprec(prec):
        stack = [(Fr(0, 1), Fr(1, 1))]
        while stack:
            left, right = stack.pop()
            med = Fr(
                left.numerator + right.numerator, left.denominator + right.denominator
            )
            if med.denominator > 25:
                continue
            checked += 1
            s_l = s_value(hmst, left, prec).value
            s_r = s_value(hmst, right, prec).value
            s_m = s_value(hmst, med, prec).value
            b, d = left.denominator, right.denominator
            chord = (b * s_l + d * s_r) / (b + d)
            assert s_m > chord, (left, med, right)
            stack.append((left, med))
            stack.append((med, right))
    assert checked > 100


def test_section5_strict_inequality(hmst):
    # rho(B1 B2)^2 > rho(B1^2 B2^2) exactly, for every standard pair q <= 20
    for pq in farey_fractions(20):
        pair = standard_pair_for(pq)
        b1 = hmst.product(pair.u)
        b2 = hmst.product(pair.v)
        lhs = spectral_radius(b1 @ b2) ** 2
        rhs = spectral_radius((b1 @ b1) @ (b2 @ b2))
        assert quad_compare(lhs, rhs) > 0, pq


def test_product_spectral_radius_supermultiplicative(hmst):
    # rho(B1 B2) > rho(B1) rho(B2) for standard pairs (optional property)
    with mp.workprec(200):
        for pq in farey_fractions(12):
            pair = standard_pair_for(pq)
            b1 = hmst.product(pair.u)
            b2 = hmst.product(pair.v)
            lhs = spectral_radius(b1 @ b2).to_mpf(200)
            rhs = spectral_radius(b1).to_mpf(200) * spectral_radius(b2).to_mpf(200)
            assert lhs > rhs


def test_diameter_decay(hmst):
    # log(diameter)/q stays below a fixed negative constant on [1/5, 4/5]
    with mp.workprec(200):
        rates = []
        big_q_rates = []
        for pq in farey_fractions(30):
            if not Fr(1, 5) <= pq <= Fr(4, 5) or pq.denominator < 5:
                continue
            iv = preimage_interval(hmst, pq, 200)
            rate = mlog(iv.hi.value - iv.lo.value) / pq.denominator
            rates.append(rate)
            if pq.denominator >= 15:
                big_q_rates.append(rate)
        assert rates and max(rates) < -0.15
        assert big_q_rates and max(big_q_rates) < -0.5


def test_varrho_on_interval(hmst):
    with mp.workprec(256):
        golden = (1 + mp.sqrt(5)) / 2
        v = varrho_on_interval(hmst, Fr(1, 2), 1)
        assert abs(v - golden) < mpf(2) ** -250
        # left endpoint evaluates, and matches the scaled closed form
        v_lo = varrho_on_interval(hmst, Fr(1, 2), Fr(4, 5))
        expect = mp.sqrt(mpf(4) / 5 * (3 + mp.sqrt(5)) / 2)
        assert abs(v_lo - expect) < mpf(2) ** -250
    with pytest.raises(PreimageError):
        varrho_on_interval(hmst, Fr(1, 2), 2)


def test_varrho_exponent_identity(hmst):
    # varrho equals exp(S(p/q)) * alpha^(p/q) on the step
    prec = 220
    with mp.workprec(prec):
        for pq in (Fr(1, 2), Fr(1, 3), Fr(2, 5)):
            iv = preimage_interval(hmst, pq, prec)
            alpha = (iv.lo.value + iv.hi.value) / 2
            v = varrho_on_interval(hmst, pq, alpha, prec)
            s = s_value(hmst, pq, prec).value
            expect = mexp(s) * alpha ** (mpf(pq.numerator) / pq.denominator)
            assert abs(v - expect) < mpf(2) ** (-prec + 30)


def test_one_over_n_closed_form(hmst):
    for n in (1, 2, 5, 9):
        iv = general_one_over_n_interval(hmst, n)
        assert iv.fraction == Fr(1, n + 1)
    assert general_one_over_n_interval(hmst, 1).lo.exact == Q(Fr(4, 5))
    assert general_one_over_n_interval(hmst, 1).hi.exact == Q(Fr(5, 4))
    # the 1/6 row matches the generic route (checked inside the call)
    general_one_over_n_interval(hmst, 5)


def test_one_over_n_approaches_e(hmst):
    # denominator times the left endpoint of the 1/N step tends to e;
    # the same trend holds with the off-by-one factor N-1, only slower
    with mp.workprec(200):
        scaled, scaled_rows = [], []
        for n in (5, 10, 20, 30):
            iv = general_one_over_n_interval(hmst, n, 200)
            scaled.append((n + 1) * iv.lo.value)
            scaled_rows.append(n * iv.lo.value)
        for series in (scaled, scaled_rows):
            errs = [abs(v - mp.e) for v in series]
            assert all(b < a for a, b in zip(errs, errs[1:]))
        assert abs(scaled[-1] - mp.e) / mp.e < mpf(1) / 10


def test_float_family_interval(bousch_mairesse):
    iv = preimage_interval(bousch_mairesse, Fr(1, 2), 200)
    assert iv.lo.exact is None and iv.lo.radius is not None
    with mp.workprec(200):
        assert iv.lo.value < iv.hi.value
        assert iv.lo.radius < mpf(2) ** -150


def test_kozyakin_interval_exact(kozyakin):
    iv = preimage_interval(kozyakin, Fr(1, 2))
    assert iv.lo.exact is not None
    assert quad_compare(iv.lo.exact, iv.hi.exact) < 0
    # zero step hi < first step lo for a modest staircase
    z = preimage_zero(kozyakin)
    assert quad_compare(z.hi.exact, preimage_interval(kozyakin, Fr(1, 6)).lo.exact) < 0


def test_bousch_mairesse_endpoints_at_working_precision(bousch_mairesse):
    # h0 = h1 makes the generators mirror images, so r^-1(11/14) is
    # 1 / r^-1(3/14); a product rounded at 53 bits breaks this near 1e-16
    lo = preimage_interval(bousch_mairesse, Fr(3, 14)).lo
    hi = preimage_interval(bousch_mairesse, Fr(11, 14)).hi
    with mp.workprec(256):
        assert abs(lo.value * hi.value - 1) < lo.radius + hi.radius


# ---------------------------------------------------------------------------
# the endpoint predicate

_STEPS: dict = {}


def _endpoint(fam, pq, use_hi, prec):
    key = (pq, prec)
    if key not in _STEPS:
        _STEPS[key] = preimage_interval(fam, pq, prec)
    return _STEPS[key].hi if use_hi else _STEPS[key].lo


_pq = st.integers(2, 24).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: Fr(p, q)))
_prec = st.sampled_from([64, 256])


@given(_pq, st.booleans(), _pq, st.booleans(), _prec)
@settings(max_examples=150, deadline=None)
def test_compare_agrees_with_quad_compare_on_endpoints(hmst, pq1, hi1, pq2, hi2, prec):
    x = _endpoint(hmst, pq1, hi1, prec)
    y = _endpoint(hmst, pq2, hi2, prec)
    want = quad_compare(x.exact, y.exact)
    assert compare(x, y) == want
    assert compare(y, x) == -want
    assert compare(x, x) == 0


@given(_pq, st.booleans(), st.integers(-3, 3), st.integers(-8, 8), _prec)
@settings(max_examples=150, deadline=None)
def test_compare_agrees_with_quad_compare_on_points(hmst, pq, use_hi, nudge, shift, prec):
    # points within a few units of 2^-prec of the endpoint: the filter
    # cannot decide these, so the exact fallback does
    e = _endpoint(hmst, pq, use_hi, prec)
    alpha = fraction_from_mpf(e.value) + Fr(nudge, 2 ** (prec + shift))
    want = quad_compare(QuadExt.make(alpha), e.exact)
    assert compare(alpha, e) == want
    assert compare(e, alpha) == -want


@pytest.mark.parametrize("name, qmax, prec", [
    ("hmst", 45, 256),
    ("kozyakin_type", 16, 256),
    ("bousch_mairesse", 12, 256),
    ("bousch_mairesse", 12, 384),
])
def test_compare_matches_reference_predicate(request, monkeypatch, name, qmax, prec):
    # the filter on raw libmp tuples decides, falls back to quad_compare and
    # raises exactly where mpmath's context arithmetic did: on every adjacent
    # pair of staircase ends, tied ends, ends moved by exactly the rounded-up
    # tolerance, and int, Fraction and mpf points at each end and 1 ulp away
    fam = request.getfixturevalue(name)
    exact = []
    monkeypatch.setattr(rational_preimage, "quad_compare",
                        lambda x, y: exact.append(1) or quad_compare(x, y))

    def outcome(fn, x, y):
        exact.clear()
        try:
            return fn(x, y), len(exact)
        except EndpointPrecisionError as e:
            return str(e), len(exact)

    def check(x, y):
        for a, b in ((x, y), (y, x)):
            assert outcome(compare, a, b) == outcome(compare_reference, a, b), (a, b)

    rows = build_staircase(fam, qmax, prec).all_rows()
    ends = [e for row in rows for e in (row.lo, row.hi) if e is not None]
    assert len(ends) > 2 * len(rows) - 4
    for x, y in zip(ends, ends[1:]):
        check(x, y)
        # exactly the tolerance apart, as mp.fadd(..., rounding="u") rounds
        # it: y's radius (none for an exact family) on another value
        tol = mp.fadd(x.error, y.radius or 0, rounding="u")
        check(x, Endpoint(mp.fadd(x.value, tol, exact=True), None, y.radius, y.prec))
    for e in ends:
        check(e, e)
        twin = exact_ball(e.exact, e.prec) if e.exact is not None else Endpoint(e.value, None, e.radius, e.prec)
        check(e, twin)
        sign, man, exp, bc = e.value._mpf_
        ulp = mp.ldexp(mpf(1), exp + bc - e.prec)
        for v in (e.value, mp.fsub(e.value, ulp, exact=True), mp.fadd(e.value, ulp, exact=True)):
            check(e, v)
            check(e, fraction_from_mpf(v))
        for n in (int(mp.floor(e.value)), int(mp.ceil(e.value))):
            check(e, n)


def test_compare_float_endpoints_use_their_radius():
    r = mpf("1e-10")
    x = Endpoint(mpf("0.5"), None, r)
    near = Endpoint(mpf("0.5") + r, None, r)
    far = Endpoint(mpf("0.6"), None, r)
    assert compare(x, far) == -1 and compare(far, x) == 1
    assert compare(Fr(1, 3), x) == -1
    with pytest.raises(EndpointPrecisionError):
        compare(x, near)
    with pytest.raises(EndpointPrecisionError):
        compare(Fr(1, 2), x)


def test_float_radius_bounded_by_generator_precision():
    # generators rounded at 256 bits cannot support a 1024-bit radius: the
    # claimed ball must hold the value computed from 2048-bit generators
    from sturmjsr.family import builtin_bousch_mairesse

    fam = builtin_bousch_mairesse(1, "0.5", "0.5")
    ref_fam = builtin_bousch_mairesse(1, "0.5", "0.5", prec=2048)
    iv = preimage_interval(fam, Fr(1, 97), 1024)
    ref = preimage_interval(ref_fam, Fr(1, 97), 2048)
    zero, ref_zero = preimage_zero(fam, 1024), preimage_zero(ref_fam, 2048)
    with mp.workprec(2048):
        for got, want in ((iv.lo, ref.lo), (iv.hi, ref.hi), (zero.hi, ref_zero.hi)):
            assert abs(got.value - want.value) <= got.radius


# ---------------------------------------------------------------------------
# trace-form endpoints against the Perron-projection route


def _perron_step(fam, pq, prec=256):
    """Reference endpoints of the p/q step, evaluated literally through the
    Perron projection P of A = B1*B2: rho(B1*P)^q / rho(A)^q1 and
    rho(A)^q2 / rho(P*B2)^q."""
    pair = standard_pair_for(pq)
    q1, q2 = len(pair.u), len(pair.v)
    b1, b2 = fam.product(pair.u), fam.product(pair.v)
    with mp.workprec(prec):
        a = b1 @ b2
        p = perron_projection(a, prec)
        rho_a = spectral_radius(a, prec)
        lo = rank_one_spectral_radius(b1 @ p, prec) ** (q1 + q2) / rho_a ** q1
        hi = rho_a ** q2 / rank_one_spectral_radius(p @ b2, prec) ** (q1 + q2)
    return lo, hi


def _perron_boundary(fam, which, prec=256):
    """rho(A0)/rho(P0*A1) for ratio 0, rho(P1*A0)/rho(A1) for ratio 1."""
    fixed, other = (fam.a0, fam.a1) if which == 0 else (fam.a1, fam.a0)
    proj = perron_projection(fixed, prec)
    with mp.workprec(prec):
        mixed = rank_one_spectral_radius(proj @ other, prec)
        rho = spectral_radius(fixed, prec)
        return rho / mixed if which == 0 else mixed / rho


_EXACT_FAMILIES = {
    "hmst": builtin_hmst(),
    "kozyakin": builtin_kozyakin(Fr(1, 2), 1, 1, Fr(1, 2)),
    "kozyakin(2/3,2,1,1/3)": builtin_kozyakin(Fr(2, 3), 2, 1, Fr(1, 3)),
    "kozyakin(2/3,1,2,1/2)": builtin_kozyakin(Fr(2, 3), 1, 2, Fr(1, 2)),
}
_pq60 = st.integers(2, 60).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: Fr(p, q))
)


def _fields(x):
    return x.a, x.b, x.d


@given(st.sampled_from(sorted(_EXACT_FAMILIES)), _pq60)
@settings(max_examples=120, deadline=None)
def test_trace_form_matches_perron_reference(name, pq):
    # same a, b and D field by field: D is the squarefree core of the
    # discriminant of B1*B2 as squarefree_split gives it (0 when it is a
    # square), also for rational endpoints, whose b is then 0; both sides
    # split the same discriminant, so they agree even where D keeps a square
    fam = _EXACT_FAMILIES[name]
    iv = preimage_interval(fam, pq)
    lo, hi = _perron_step(fam, pq)
    assert _fields(iv.lo.exact) == _fields(lo), (name, pq)
    assert _fields(iv.hi.exact) == _fields(hi), (name, pq)


def test_rational_endpoints_keep_their_radicand(hmst, kozyakin):
    # 1/2 steps are rational but lie in Q(sqrt(5)) and Q(sqrt(3)); the
    # printed D stays that radicand
    for fam, lo, hi, d in ((hmst, Fr(4, 5), Fr(5, 4), 5), (kozyakin, Fr(3, 4), Fr(4, 3), 3)):
        iv = preimage_interval(fam, Fr(1, 2))
        assert _fields(iv.lo.exact) == (lo, 0, d)
        assert _fields(iv.hi.exact) == (hi, 0, d)
        assert iv.lo.as_json()["exact"] == {"a": str(lo), "b": "0", "D": d}


@pytest.mark.parametrize("name", sorted(_EXACT_FAMILIES))
def test_trace_form_boundary_matches_perron_reference(name):
    fam = _EXACT_FAMILIES[name]
    zero, one = preimage_zero(fam), preimage_one(fam)
    if name == "hmst":  # both generators are Jordan blocks
        assert zero.degenerate and one.empty
        return
    assert _fields(zero.hi.exact) == _fields(_perron_boundary(fam, 0))
    assert _fields(one.lo.exact) == _fields(_perron_boundary(fam, 1))


def test_printed_radicands_are_squarefree():
    # the D of every exact endpoint of these staircases (all below 10^30)
    # is squarefree by a complete factorization, although squarefree_split
    # divides only by the primes below 10^4
    import sympy

    from sturmjsr.staircase import build_staircase

    radicands = set()
    for name, qmax in (("hmst", 40), *((k, 20) for k in _EXACT_FAMILIES if k != "hmst")):
        for step in build_staircase(_EXACT_FAMILIES[name], qmax).all_rows():
            for end in (step.lo, step.hi):
                if end is not None and end.exact is not None:
                    radicands.add(end.exact.d)
    assert len(radicands) > 500
    for d in radicands - {0}:
        assert max(sympy.factorint(d).values()) == 1, d


def test_trace_form_singular_generator():
    # det A1 = 0: rho(A)^-1 cannot come from mu/det, and the spectrum of
    # every product is rational
    fam = MatrixFamily(Mat2(2, 1, 1, 1), Mat2(1, 1, 1, 1), asserted_sturmian=True)
    for q in range(2, 13):
        for p in range(1, q):
            pq = Fr(p, q)
            if pq.denominator != q:
                continue
            iv = preimage_interval(fam, pq)
            lo, hi = _perron_step(fam, pq)
            assert _fields(iv.lo.exact) == _fields(lo), pq
            assert _fields(iv.hi.exact) == _fields(hi), pq
    assert _fields(preimage_one(fam).lo.exact) == _fields(_perron_boundary(fam, 1))


def test_trace_form_float_family_within_radius(bousch_mairesse):
    with mp.workprec(256):
        for pq in farey_fractions(30):
            iv = preimage_interval(bousch_mairesse, pq)
            for got, want in zip((iv.lo, iv.hi), _perron_step(bousch_mairesse, pq)):
                assert abs(got.value - want) <= got.radius, pq
        for which, ep in ((0, preimage_zero(bousch_mairesse).hi), (1, preimage_one(bousch_mairesse).lo)):
            assert abs(ep.value - _perron_boundary(bousch_mairesse, which)) <= ep.radius


# ---------------------------------------------------------------------------
# the Stern-Brocot walk against the per-fraction word route


def _counts(w):
    return w.count("0"), w.count("1")


def _word_route(fam, pq):
    """The node of p/q built per fraction: the pair from standard_pair_for
    and M(u), M(v) from product_of_word over the integer generators."""
    pair = standard_pair_for(pq)
    (g0, k0), (g1, k1) = fam.integer_generators()
    return SternBrocotNode(
        fam, (k0, k1), pair, _counts(pair.u), _counts(pair.v),
        product_of_word(g0, g1, pair.u), product_of_word(g0, g1, pair.v),
    )


_WALK_FAMILIES = {
    "hmst": builtin_hmst(),
    "kozyakin(2/3,1,2,1/2)": builtin_kozyakin(Fr(2, 3), 1, 2, Fr(1, 2)),
}
_pq400 = st.one_of(
    st.integers(2, 400).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: Fr(p, q))),
    st.integers(2, 400).map(lambda n: Fr(1, n)),
    st.integers(2, 400).map(lambda n: Fr(n - 1, n)),
)


@given(st.sampled_from(sorted(_WALK_FAMILIES)), _pq400)
@example("hmst", Fr(1, 400))
@example("kozyakin(2/3,1,2,1/2)", Fr(399, 400))
@settings(max_examples=100, deadline=None)
def test_descent_by_runs_matches_word_route(name, pq):
    fam = _WALK_FAMILIES[name]
    node = SternBrocotNode.root(fam).descend(pq)
    ref = _word_route(fam, pq)
    assert node.fraction == pq
    assert node.pair == ref.pair
    assert (node.count_u, node.count_v) == (ref.count_u, ref.count_v)
    assert (node.m_u, node.m_v) == (ref.m_u, ref.m_v)
    assert node.slopes == (Fr(ref.count_u[1], len(ref.pair.u)), Fr(ref.count_v[1], len(ref.pair.v)))


def _assert_same_endpoints(fam, pq):
    iv, want = preimage_interval(fam, pq), _word_route(fam, pq).interval()
    assert iv.pair == want.pair
    assert (iv.lo.exact, iv.hi.exact) == (want.lo.exact, want.hi.exact)


# an exact Kozyakin-type step at q near 400 takes seconds, so the endpoints
# are compared on a fixed set of deep steps and on random shallow ones
@pytest.mark.parametrize("name,pq", [
    ("hmst", Fr(1, 400)),
    ("hmst", Fr(399, 400)),
    ("hmst", Fr(137, 397)),
    ("kozyakin(2/3,1,2,1/2)", Fr(399, 400)),
    ("kozyakin(2/3,1,2,1/2)", Fr(50, 201)),
    ("kozyakin(2/3,1,2,1/2)", Fr(3, 101)),
])
def test_descent_endpoints_match_word_route(name, pq):
    _assert_same_endpoints(_WALK_FAMILIES[name], pq)


@given(st.sampled_from(sorted(_WALK_FAMILIES)), _pq60)
@settings(max_examples=40, deadline=None)
def test_descent_endpoints_match_word_route_shallow(name, pq):
    _assert_same_endpoints(_WALK_FAMILIES[name], pq)


@pytest.mark.parametrize("name", sorted(_WALK_FAMILIES))
def test_staircase_walk_matches_per_fraction_steps(name):
    from sturmjsr.staircase import build_staircase

    fam = _WALK_FAMILIES[name]
    steps = build_staircase(fam, 25).steps
    assert [step.fraction for step in steps] == farey_fractions(25)
    for step in steps:
        want = preimage_interval(fam, step.fraction)
        assert step.pair == want.pair, step.fraction
        assert (step.lo.exact, step.hi.exact) == (want.lo.exact, want.hi.exact), step.fraction


def test_float_family_descent_within_radius(bousch_mairesse):
    # products taken in tree order, runs by matrix powers, stay within the
    # claimed radius of a 2048-bit evaluation of the same generators
    ref_fam = MatrixFamily(bousch_mairesse.a0, bousch_mairesse.a1, asserted_sturmian=True, prec=2048)
    for pq in (Fr(1, 60), Fr(59, 60), Fr(21, 55), Fr(34, 89), Fr(17, 40), Fr(2, 61)):
        iv = preimage_interval(bousch_mairesse, pq)
        ref = preimage_interval(ref_fam, pq, 2048)
        assert iv.pair == ref.pair
        with mp.workprec(2048):
            for got, want in ((iv.lo, ref.lo), (iv.hi, ref.hi)):
                assert abs(got.value - want.value) <= got.radius, pq


_UV_FAMILIES = {**_WALK_FAMILIES, "bousch-mairesse": builtin_bousch_mairesse(1, "0.5", "0.5")}


@given(st.sampled_from(sorted(_UV_FAMILIES)), _pq60)
@example("kozyakin(2/3,1,2,1/2)", Fr(37, 60))
@settings(max_examples=60, deadline=None)
def test_node_m_uv_matches_word_route(name, pq):
    # M(uv) from the node, and S and varrho read from it, against uv
    # multiplied letter by letter: equal for exact families; the float
    # family multiplies in another order, so it agrees to 2^-(prec-16)
    fam, prec = _UV_FAMILIES[name], 256
    with mp.workprec(fam.prec):
        word = product_of_word(fam.a0, fam.a1, standard_pair_for(pq).uv)
    m_uv = SternBrocotNode.root(fam).descend(pq).m_uv
    iv = preimage_interval(fam, pq, prec)
    with mp.workprec(prec):
        alpha = (iv.lo.value + iv.hi.value) / 2
        rho = radius_from_trace_det(word.trace(), word.det(), prec)
        want_varrho = (alpha ** pq.numerator * rho) ** (mpf(1) / pq.denominator)
        got_varrho = varrho_on_interval(fam, pq, alpha, prec)
        got_s = s_value(fam, pq, prec)
        if fam.integral:
            assert m_uv == word
            want_rho = spectral_radius(word, prec)
            assert got_s.exact_rho == want_rho
            assert got_s.value == mlog(want_rho.to_mpf(prec)) / pq.denominator
            assert got_varrho == want_varrho
            return
        tol = mpf(2) ** (16 - prec)
        for got, want in zip(m_uv.entries(), word.entries()):
            assert abs(got - want) <= tol * abs(want), (pq, got, want)
        assert got_s.exact_rho is None
        assert abs(got_s.value - mlog(spectral_radius(word, prec)) / pq.denominator) <= tol
        assert abs(got_varrho - want_varrho) <= tol * want_varrho


# -- exact endpoints reduced by their known factors ---------------------------


def _product(factors):
    den = 1
    for power, _ in factors:
        den *= power
    return den


@given(
    st.integers(-(2 ** 300), 2 ** 300),
    st.integers(0, 40),
    st.integers(2, 10 ** 6),
    st.integers(1, 12),
    st.integers(-(10 ** 6), 10 ** 6).filter(bool),
    st.integers(0, 12),
    st.sampled_from([1, 3, 9, 2 ** 5 * 3 ** 4, 5 ** 7]),
)
@example(0, 3, 5, 2, 7, 1, 1)  # zero numerator
@example(-(3 ** 5) * 2 ** 9, 4, 45, 3, -11, 3, 9)  # shared 3, negative den
@example(7 * 2 ** 20, 5, 7, 4, -1, 1, 1)  # a shared odd base, stripped
@example(3 ** 30 * 2, 5, 3, 40, 1, 0, 1)  # a shared power of 3: the fallback
@example(2 ** 30 * 11, 12, 13, 2, -3, 5, 1)  # negative den, coprime
@settings(max_examples=200, deadline=None)
def test_reduced_is_fraction(n, twos, d, e, m, k, s):
    # endpoint-shaped denominators: 2^q, a discriminant power, a (possibly
    # negative) norm power and a scale denominator
    from sturmjsr.rational_preimage import _reduced

    factors = [(2 ** twos, 2), (d ** e, d), (m ** k, m), (s, s)]
    got, want = _reduced(n, factors), Fraction(n, _product(factors))
    assert isinstance(got, Fraction)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


_COPRIME_FAMILIES = {
    **_WALK_FAMILIES,
    "kozyakin": builtin_kozyakin(Fr(1, 2), 1, 1, Fr(1, 2)),
}


@given(
    st.sampled_from(sorted(_COPRIME_FAMILIES)),
    st.integers(2, 150).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: Fr(p, q))),
)
@example("kozyakin(2/3,1,2,1/2)", Fr(1, 150))
@example("hmst", Fr(53, 150))
@settings(max_examples=40, deadline=None)
def test_exact_endpoints_are_in_lowest_terms(name, pq):
    import math

    iv = preimage_interval(_COPRIME_FAMILIES[name], pq)
    for ep in (iv.lo, iv.hi):
        for part in (ep.exact.a, ep.exact.b):
            assert part.denominator > 0
            assert math.gcd(part.numerator, part.denominator) == 1


@given(
    st.sampled_from(sorted(_COPRIME_FAMILIES)),
    st.integers(2, 150).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: Fr(p, q))),
)
@example("kozyakin", Fr(31, 70))
@example("kozyakin(2/3,1,2,1/2)", Fr(1, 150))
@settings(max_examples=30, deadline=None)
def test_split_ladder_matches_the_plain_one(name, pq):
    # the contents split off at the bases and cancelled there give the same
    # ends as the plain ladder x^q y^k reduced by _reduced alone
    node = SternBrocotNode.root(_COPRIME_FAMILIES[name]).descend(pq)
    ends = []
    for bits in (-1, 10 ** 9):
        rational_preimage._CANCEL_BITS, saved = bits, rational_preimage._CANCEL_BITS
        try:
            iv = node.interval()
        finally:
            rational_preimage._CANCEL_BITS = saved
        ends.append([(ep.exact.a, ep.exact.b, ep.exact.d) for ep in (iv.lo, iv.hi)])
    assert ends[0] == ends[1]


# -- both ends of a step from one ladder ------------------------------------------


_ONE_LADDER_FAMILIES = {
    "hmst": builtin_hmst(),
    "kozyakin": builtin_kozyakin(Fr(1, 2), 1, 1, Fr(1, 2)),
    "kozyakin(2/3,1,2,1/2)": builtin_kozyakin(Fr(2, 3), 1, 2, Fr(1, 2)),  # unequal dets
    "kozyakin(1/3,1,1,1/2)": builtin_kozyakin(Fr(1, 3), 1, 1, Fr(1, 2)),
    # steps with a square Delta (D = 0), 1/3 and 1/10 among them
    "[[2,1],[0,2]],[[2,0],[1,2]]": MatrixFamily(Mat2(2, 1, 0, 2), Mat2(2, 0, 1, 2), asserted_sturmian=True),
}


@pytest.mark.parametrize("name", sorted(_ONE_LADDER_FAMILIES))
def test_upper_ends_are_the_two_ladder_ones(name):
    # every step with q <= 40: the upper end made from the lower end's
    # ladder is the one rho(A)^q2 / rho(P*B2)^q gives on a ladder of its own
    for node in SternBrocotNode.root(_ONE_LADDER_FAMILIES[name]).walk(40):
        assert _fields(node.interval().hi.exact) == _fields(two_ladder_upper(node)), node.fraction


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("name, pq", [
    ("hmst", Fr(137, 350)), ("hmst", Fr(213, 350)), ("hmst", Fr(91, 199)), ("kozyakin", Fr(58, 135)),
])
def test_deep_upper_ends_are_the_two_ladder_ones(monkeypatch, name, pq, split):
    if split:  # every ladder split at its contents, every known factor cancelled at the bases
        monkeypatch.setattr(rational_preimage, "_CANCEL_BITS", -1)
    node = SternBrocotNode.root(_ONE_LADDER_FAMILIES[name]).descend(pq)
    assert _fields(node.interval().hi.exact) == _fields(two_ladder_upper(node))


@pytest.mark.parametrize("name", sorted(_ONE_LADDER_FAMILIES))
def test_upper_end_is_the_lower_end_times_a_known_power(name):
    # hi = lo |4 Delta det(B2) / norm(N2)|^q, N2 = 2 sqrt(Delta) rho(P*B2),
    # over the integer matrices of the node (the factor is scale-free)
    for node in SternBrocotNode.root(_ONE_LADDER_FAMILIES[name]).walk(16):
        a, b = node.m_u @ node.m_v, node.m_v
        t, tb = a.trace(), b.trace()
        delta = t * t - 4 * a.det()
        n = (2 * (a @ b).trace() - t * tb, tb)
        iv = node.interval()
        factor = abs(Fr(4 * delta * b.det(), n[0] * n[0] - n[1] * n[1] * delta))
        assert iv.hi.exact == iv.lo.exact * factor ** node.q, node.fraction


@pytest.fixture
def ladders(monkeypatch):
    """The ring, int or Decimal, of every ``_ladder`` run while active."""
    rings, ladder = [], rational_preimage._ladder

    def counted(*args):
        rings.append(args[5].__name__ if len(args) > 5 else "int")
        return ladder(*args)

    monkeypatch.setattr(rational_preimage, "_ladder", counted)
    return rings


def test_one_ladder_per_step_and_one_decimal_ladder_per_replayed_step(hmst, ladders):
    from functools import partial

    from sturmjsr.family import resolve_family

    koz = resolve_family("kozyakin")
    cases = [(hmst, Fr(2, 5)), (hmst, Fr(33, 80)), (hmst, Fr(91, 199)), (hmst, Fr(137, 350)), (koz, Fr(58, 135))]
    steps = [preimage_interval(fam, pq) for fam, pq in cases]
    assert ladders == ["int"] * len(steps)
    recipes = [[isinstance(ep.exact._text, partial) for ep in (iv.lo, iv.hi)] for iv in steps]
    # a small step, one with its upper end alone past the gate, and three with both
    assert recipes == [[False, False], [False, True], [True, True], [True, True], [True, True]]
    ladders.clear()
    for iv in steps:
        for ep in (iv.lo, iv.hi):
            _assert_prints_str(ep)
    assert ladders == ["Decimal"] * 4


@pytest.fixture
def full_gcds(monkeypatch):
    """Counts of the rational parts reduced and of those settled by the small
    gcds; the full-gcd fallbacks are the difference."""
    counts = {"parts": 0, "screened": 0}
    reduced, coprime = rational_preimage._reduced, rational_preimage._coprime_fraction

    def counted_reduced(n, factors):
        counts["parts"] += n != 0
        return reduced(n, factors)

    def counted_coprime(n, d):
        counts["screened"] += 1
        return coprime(n, d)

    monkeypatch.setattr(rational_preimage, "_reduced", counted_reduced)
    monkeypatch.setattr(rational_preimage, "_coprime_fraction", counted_coprime)
    return counts


def test_hmst_endpoints_need_no_full_size_gcd(hmst, full_gcds):
    fractions = [Fr(137, 350), Fr(213, 350)] + [Fr(1, n + 1) for n in range(1, 301)]
    for pq in fractions:
        preimage_interval(hmst, pq)
    assert full_gcds["parts"] >= 2 * len(fractions)
    assert full_gcds["screened"] == full_gcds["parts"]


def test_kozyakin_endpoints_need_no_full_size_gcd(full_gcds):
    # a power of 3 shared by a base's content or by the split ideals of two
    # bases (3^159200 in the upper end of 1/400) is cancelled at the bases
    from sturmjsr.family import resolve_family

    koz = resolve_family("kozyakin")
    for fam, pq in ((koz, Fr(31, 70)), (koz, Fr(58, 135)), (_WALK_FAMILIES["kozyakin(2/3,1,2,1/2)"], Fr(1, 400))):
        iv = preimage_interval(fam, pq)
        assert rational_preimage.compare(iv.lo, iv.hi) < 0  # filtered, exact fallback
    assert full_gcds["parts"] == 12 and full_gcds["screened"] == 12


def test_shared_prime_powers_need_no_full_size_gcd(hmst, full_gcds, monkeypatch):
    # in this Kozyakin-type family a power of 3 (up to 3^3242) is left
    # shared after the split and the base cancellation; _reduced takes it
    # by g, g^2, g^4, ... in one round
    fam = builtin_kozyakin(Fr(2, 3), 1, 2, Fr(1, 3))
    for pq in (Fr(17, 41), Fr(33, 97), Fr(61, 150), Fr(97, 230)):
        iv = preimage_interval(fam, pq)
        assert rational_preimage.compare(iv.lo, iv.hi) < 0
    assert full_gcds["parts"] == 16 and full_gcds["screened"] == 16
    # hmst's ends take no more rounds than one division per round did
    monkeypatch.setattr(rational_preimage, "_STRIP_ROUNDS", 4)
    for pq in [Fr(137, 350), Fr(213, 350)] + [Fr(1, n + 1) for n in range(1, 301, 7)]:
        preimage_interval(hmst, pq)
    assert full_gcds["screened"] == full_gcds["parts"]


# -- large exact ends printed from a decimal replay ------------------------------


@pytest.fixture
def replays(monkeypatch):
    """(value, strings or None) of every replay that runs in this test; the
    recipes made while the fixture is active call the recorder."""
    ran = []
    replay = rational_preimage._replay

    def recorded(*args):
        out = replay(*args)
        ran.append((args[-1], out))
        return out

    monkeypatch.setattr(rational_preimage, "_replay", recorded)
    return ran


def _printed_bits(x):
    return max(n.bit_length() for f in (x.a, x.b) for n in (f.numerator, f.denominator))


def _assert_prints_str(ep):
    """Prints ``ep`` twice, by ``as_json`` and by repr: each print runs its
    recipe (when it has one) once, and keeps no strings."""
    from sturmjsr.cli import _unlimited_int_digits

    x, recipe = ep.exact, ep.exact._text
    with _unlimited_int_digits():
        a, b = str(x.a), str(x.b)
        assert ep.as_json()["exact"] == {"a": a, "b": b, "D": x.d}
        assert repr(x) == (f"({a})" if x.b == 0 else f"({a}) + ({b})*sqrt({x.d})")
    assert x._text is recipe


def test_replayed_ends_print_str(hmst, replays):
    import math
    import random

    from sturmjsr.rational_preimage import _REPLAY_BITS

    rng, large = random.Random(23), 0
    for q in (rng.randint(190, 360) for _ in range(3)):
        p = rng.choice([p for p in range(q // 5, q // 2) if math.gcd(p, q) == 1])
        iv = preimage_interval(hmst, Fr(p, q))
        for ep in (iv.lo, iv.hi):
            _assert_prints_str(ep)
            replayed = [out for value, out in replays if value is ep.exact]
            assert replayed == ([ep.exact.strs()] * 2 if _printed_bits(ep.exact) > _REPLAY_BITS else [])
            large += bool(replayed)
    assert large >= 3  # every end from q = 190 on


def test_replay_declined_for_small_ends_and_long_cancelled_factors(hmst, replays):
    # hmst's 31/75 upper end prints 7.5k bits, below the gate; in
    # builtin_kozyakin(2/3, 1, 2, 1/3) the upper end of 33/97 prints 32k
    # bits, but its reduction cancels an odd factor (a power of 3) of 5k bits
    ends = [
        preimage_interval(hmst, Fr(31, 75)).hi,
        preimage_interval(builtin_kozyakin(Fr(2, 3), 1, 2, Fr(1, 3)), Fr(33, 97)).hi,
    ]
    assert [_printed_bits(ep.exact) > rational_preimage._REPLAY_BITS for ep in ends] == [False, True]
    for ep in ends:
        assert ep.exact._text is None
        _assert_prints_str(ep)
    assert replays == []


def test_kozyakin_ends_replay_past_their_powers_of_two(replays):
    # the factor the reduction of these ends cancels is nearly all a power
    # of two (2^8026 in each part of 77/135's upper end): only its odd part
    # counts against _SPLIT_LEAF
    from sturmjsr.family import resolve_family

    for pq in (Fr(58, 135), Fr(77, 135), Fr(61, 140)):
        iv = preimage_interval(resolve_family("kozyakin"), pq)
        replays.clear()
        _assert_prints_str(iv.hi)
        assert [value is iv.hi.exact and out is not None for value, out in replays] == [True] * 2


@pytest.mark.parametrize("corrupt", ["ladder", "cancelled factor"])
def test_corrupted_recipe_trips_the_guard(hmst, replays, monkeypatch, corrupt):
    from functools import partial

    end = preimage_interval(hmst, Fr(91, 199)).hi  # 54k bits, replayed
    recipe = end.exact._text
    if corrupt == "ladder":  # the decimal ladder is off by one
        ladder = rational_preimage.pair_pow
        monkeypatch.setattr(rational_preimage, "pair_pow", lambda *a: (ladder(*a)[0] + 1, ladder(*a)[1]))
    else:
        object.__setattr__(end.exact, "_text", partial(recipe.func, *recipe.args[:-1], [3, 3]))
    _assert_prints_str(end)
    assert [out for _, out in replays] == [None] * 2


def test_replayed_end_compares_and_hashes_like_a_plain_one(hmst, replays):
    from functools import partial

    iv = preimage_interval(hmst, Fr(91, 199))
    x = iv.hi.exact
    assert x.strs() == replays[0][1]  # printed from its recipe, which its slot still holds
    assert isinstance(x._text, partial) and len(replays) == 1
    plain = QuadExt(x.a, x.b, x.d)
    assert x == plain and hash(x) == hash(plain) and quad_compare(x, plain) == 0
    assert compare(iv.hi, exact_ball(plain)) == 0 and compare(iv.lo, exact_ball(plain)) < 0
    assert general_one_over_n_interval(hmst, 300).fraction == Fr(1, 301)


@pytest.mark.parametrize("name", ["hmst", "kozyakin", "kozyakin(2/3,1,2,1/2)"])
def test_replay_prints_str_at_every_size(name, replays, monkeypatch):
    # with no size cutoff, every end takes the replay: rational boundary ends
    # (a square discriminant), b = 0 parts (the 1/2 steps) and negative parts
    _replay_every_end(_COPRIME_FAMILIES[name], replays, monkeypatch)


@pytest.mark.parametrize("name", ["hmst", "kozyakin", "kozyakin(2/3,1,2,1/2)"])
def test_replay_prints_str_from_split_ladders(name, replays, monkeypatch):
    # the same with every end's ladder split at its contents
    monkeypatch.setattr(rational_preimage, "_CANCEL_BITS", -1)
    _replay_every_end(_COPRIME_FAMILIES[name], replays, monkeypatch)


def _replay_every_end(fam, replays, monkeypatch):
    monkeypatch.setattr(rational_preimage, "_REPLAY_BITS", -1)
    root = SternBrocotNode.root(fam)
    steps = [root.boundary(0), root.boundary(1)] + [node.interval() for node in root.walk(12)]
    ends = [ep for iv in steps for ep in (iv.lo, iv.hi) if ep is not None and ep.exact is not None]
    for ep in ends:
        _assert_prints_str(ep)
    assert len(replays) == 2 * len(ends) and all(out is not None for _, out in replays)


# -- the ball of an exact endpoint ----------------------------------------------


def _old_to_mpf_error(x, prec):
    # the bound compare used before it was stored: 2^(2 - prec) S, S at 53 bits
    with mp.workprec(53):
        s = abs(mpf(x.a.numerator) / x.a.denominator)
        if x.b:
            s += abs(mpf(x.b.numerator) / x.b.denominator) * mp.sqrt(x.d)
        return s * mpf(2) ** (2 - prec)


def _full_value(x):
    # x at 2048 bits, to be called inside mp.workprec(2048)
    ref = mpf(x.a.numerator) / x.a.denominator
    if x.b:
        ref += mpf(x.b.numerator) / x.b.denominator * mp.sqrt(x.d)
    return ref


_big = st.integers(-(2 ** 400), 2 ** 400)


@given(_big, st.integers(1, 2 ** 400), _big, st.integers(1, 2 ** 400),
       st.integers(2, 10 ** 12), st.integers(53, 1024))
@example(-(10 ** 60) * 1414213562373095048801688724, 10 ** 87, 1, 1, 2, 256)  # a ~ -sqrt(2)
@example(0, 1, 0, 1, 2, 64)
@example(2 ** 200 - 1, 1, 0, 1, 5, 53)
@example(2 ** 20 - 1, 1, 1023, 1, 2 ** 20 - 1, 128)  # S just below 2^21
@settings(max_examples=200, deadline=None)
def test_endpoint_error_bounds_to_mpf(an, ad, bn, bd, d, prec):
    x = QuadExt(Fraction(an, ad), Fraction(bn, bd), d if bn else 0)
    ep = exact_ball(x, prec)
    with mp.workprec(2048):
        assert abs(ep.value - _full_value(x)) <= ep.error
    assert ep.error >= _old_to_mpf_error(x, prec)
    assert ep.error.man == 1  # a power of two


def test_exact_ball_holds_every_staircase_endpoint(hmst, kozyakin_type):
    # error = 2^(e + 2 - prec), e the bit-length bound on |a| + |b| sqrt(D)
    from sturmjsr.staircase import build_staircase

    def above(f):
        return f.numerator.bit_length() - f.denominator.bit_length() + 1

    checked = 0
    for fam, qmax in ((hmst, 45), (kozyakin_type, 16)):
        st = build_staircase(fam, qmax)
        for step in st.all_rows():
            for ep in (step.lo, step.hi):
                if ep is None or ep.exact is None:
                    continue
                x = ep.exact
                e = above(x.a)
                if x.b:
                    e = max(e, above(x.b) + (x.d.bit_length() + 1) // 2) + 1
                assert ep.error == mpf(2) ** (e + 2 - ep.prec)
                with mp.workprec(2048):
                    assert abs(ep.value - _full_value(x)) <= ep.error, step.fraction
                checked += 1
    # hmst's ratio-0 end is the bare 0; the Kozyakin-type boundary ends are exact
    assert checked == 2 * (627 + 79) + 2
    with pytest.raises(TypeError):  # the error is derived, never passed
        Endpoint(mpf(1), QuadExt.make(1), error=mpf(0))
