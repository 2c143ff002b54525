import os
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpf, nstr

import sturmjsr
from sturmjsr.contfrac import CFExpansion, cf_of_quadratic
from sturmjsr.irrational_preimage import (
    IrrationalPreimageError,
    alpha_by_traces,
    alpha_for_irrational,
    convergent_intervals,
    partial_log_alpha,
    product_log_term,
    rho_sequence,
    rigor_certificate,
    tau_recurrence_golden,
)
from sturmjsr.precision import Ball
from sturmjsr.words import s_sequence

Fr = Fraction

GOLDEN_GAMMA = (Fr(3, 2), Fr(-1, 2), 5)  # (3 - sqrt(5))/2 = [2,1,1,1,...]


@pytest.fixture(scope="module")
def golden_cf():
    return cf_of_quadratic(*GOLDEN_GAMMA)


def test_tau_recurrence_seeds_and_growth():
    taus = tau_recurrence_golden(6)
    assert taus[:7] == [1, 2, 2, 3, 4, 10, 37]
    assert taus[7] == 366 and taus[8] == 13532


def test_tau_matches_matrix_traces(hmst, golden_cf):
    taus = tau_recurrence_golden(14)
    seq = rho_sequence(hmst, golden_cf, 14)
    for n in range(-1, 15):
        assert seq.tau(n) == taus[n + 2], n


def test_rho_sequence_words_and_convergents(hmst, golden_cf):
    seq = rho_sequence(hmst, golden_cf, 10)
    # q_n are the Fibonacci-style convergent denominators
    assert [seq.q(n) for n in range(0, 8)] == [1, 2, 3, 5, 8, 13, 21, 34]
    words = s_sequence(golden_cf, 10)  # index n + 1 holds s_n
    for n in range(1, 11):
        w = words[n + 1]
        assert len(w) == seq.q(n)
        assert w.count("1") == seq.p(n)
    # seed words
    assert words[0] == "1" and words[1] == "0"
    assert words[2] == "01"


def test_rho_seeds(hmst, golden_cf):
    seq = rho_sequence(hmst, golden_cf, 4)
    # rho_0 = rho(A0) = 1, rho_-1 = rho(A1) = 1 for the unipotent pair
    assert abs(seq.rho(0) - 1) < mpf(2) ** -200
    assert abs(seq.rho(-1) - 1) < mpf(2) ** -200
    assert seq.log_rho(0) == 0


def test_rho_growth_doubling(hmst, golden_cf):
    seq = rho_sequence(hmst, golden_cf, 14)
    for n in range(3, 14):
        assert seq.rho(n + 1) >= 2 * seq.rho(n)


def test_rho_strictly_increasing(hmst, golden_cf):
    seq = rho_sequence(hmst, golden_cf, 12)
    for n in range(1, 12):
        assert seq.rho(n + 1) > seq.rho(n)


def test_rigor_certificate_golden(hmst, golden_cf):
    seq = rho_sequence(hmst, golden_cf, 12)
    cert = rigor_certificate(hmst, seq, golden_cf)
    assert cert is not None
    assert cert.n0 == 3 and cert.K == 2 and cert.L == 1
    assert cert.C0 == 16 * 3 * 4 + 1


def test_rigor_certificate_444(hmst):
    cf = cf_of_quadratic(Fr(-2), Fr(1), 5)  # [4,4,4,...]
    seq = rho_sequence(hmst, cf, 10)
    cert = rigor_certificate(hmst, seq, cf)
    assert cert is not None
    assert cert.K == 5
    # B_{n0-1} - K I nonnegative was the binding check
    m = seq.matrix(cert.n0 - 1)
    assert (m.a >= cert.K) and (m.d >= cert.K)


def test_rigor_certificate_needs_bounded_coefficients(hmst):
    # a stream with no derivable bound and none supplied gets no certificate
    # the certificate reads indices up to 5; index 7 would cost seconds
    cf = CFExpansion.from_list([2, 2, 4, 8, 16, 32, 64, 128, 256], prefix_only=True)
    seq = rho_sequence(hmst, cf, 5)
    assert rigor_certificate(hmst, seq, cf) is None
    # but an explicit coefficient bound revives it
    assert rigor_certificate(hmst, seq, cf, coeff_bound=256) is not None
    # slopes above one half never qualify for the specialised bound
    cf1 = CFExpansion.from_list([1, 2, 2, 2, 2, 2, 2, 2], prefix_only=True)
    seq1 = rho_sequence(hmst, cf1, 6)
    assert rigor_certificate(hmst, seq1, cf1, coeff_bound=2) is None


def test_alpha_star(hmst, golden_cf):
    res = alpha_for_irrational(hmst, golden_cf, digits=29)
    with mp.workprec(200):
        want = mpf("0.74932654633036755794396194809")
        assert abs(res.value - want) < mpf(10) ** -29
    assert res.rigorous
    assert res.error_radius < mpf(10) ** -29
    assert res.terms_used <= 14


def test_section8_quadratic_example(hmst):
    cf = cf_of_quadratic(Fr(-2), Fr(1), 5)
    res = alpha_for_irrational(hmst, cf, digits=10)
    with mp.workprec(120):
        assert abs(res.value - mpf("0.4596704785")) < mpf("0.5e-10")
    assert res.rigorous


def test_reduction_above_one_half(hmst):
    # gamma = (sqrt(5)-1)/2 = [1,1,1,...] maps to 1/alpha(golden mirror)
    cf = CFExpansion.from_periodic([], [1])
    res = alpha_for_irrational(hmst, cf, digits=25)
    base = alpha_for_irrational(hmst, cf_of_quadratic(*GOLDEN_GAMMA), digits=25)
    with mp.workprec(200):
        assert abs(res.value - 1 / base.value) < mpf(10) ** -24
    assert res.rigorous


def test_terms_mode_and_reproducibility(hmst, golden_cf):
    r1 = alpha_for_irrational(hmst, golden_cf, terms=9, prec=256)
    r2 = alpha_for_irrational(hmst, golden_cf, terms=9, prec=256)
    assert mp.nstr(r1.value, 70) == mp.nstr(r2.value, 70)
    assert r1.value == r2.value
    assert r1.terms_used == 9


def test_alpha_rejects_both_modes(hmst, golden_cf):
    with pytest.raises(IrrationalPreimageError):
        alpha_for_irrational(hmst, golden_cf, digits=10, terms=5)


def test_alpha_needs_sturmian_assertion(hmst, golden_cf):
    from sturmjsr.family import MatrixFamily

    bare = MatrixFamily(hmst.a0, hmst.a1, label="bare", asserted_sturmian=False)
    with pytest.raises(IrrationalPreimageError):
        alpha_for_irrational(bare, golden_cf, digits=10)


def test_insufficient_stream_fails_cleanly(hmst):
    from sturmjsr.irrational_preimage import PrecisionError

    cf = CFExpansion.from_list([2, 1, 1], prefix_only=True)
    with pytest.raises(PrecisionError):
        alpha_for_irrational(hmst, cf, digits=40)


def _count_passes(monkeypatch) -> list[int]:
    """The working precision of every fixed-precision pass, in order."""
    from sturmjsr import irrational_preimage

    precs = []
    one_pass = irrational_preimage._alpha_fixed_prec

    def counted(fam, cf, target_bits, terms, work, *rest):
        precs.append(work)
        return one_pass(fam, cf, target_bits, terms, work, *rest)

    monkeypatch.setattr(irrational_preimage, "_alpha_fixed_prec", counted)
    return precs


@pytest.mark.parametrize("family", ["hmst", "kozyakin", "bousch-mairesse"])
@pytest.mark.parametrize("spec", ["2,1,1,1,1,1", "1,1,2,1,1"])
def test_dry_stream_fails_after_one_pass(capsys, monkeypatch, family, spec):
    # the stream runs dry at N = 4 (N = 2 mirrored), whose truncation term
    # is far above 2^-101 at any precision
    from sturmjsr.cli import main

    passes = _count_passes(monkeypatch)
    assert main(["alpha", "--cf", spec, "--digits", "30", "--family", family]) == 3
    assert passes == [256]
    assert "truncation" in capsys.readouterr().err


def test_rounding_miss_needs_one_rerun(hmst, monkeypatch):
    # at 64 bits only the rounding term misses 2^-101: one rerun at the
    # precision it asks for meets the target
    passes = _count_passes(monkeypatch)
    cf = CFExpansion.from_periodic([2], [1])
    res = alpha_for_irrational(hmst, cf, digits=30, prec=64)
    assert len(passes) == 2 and passes[0] == 64 and res.prec == passes[1]
    assert res.rigorous and res.error_radius <= mpf(2) ** -101
    ref = alpha_for_irrational(hmst, cf, digits=30)
    assert nstr(res.value, 30) == nstr(ref.value, 30)
    with mp.workprec(256):
        assert abs(res.value - ref.value) <= res.error_radius + ref.error_radius


def test_low_prec_heuristic_stop_returns():
    # at 64 bits the Kozyakin steps sink below the pass's rounding term long
    # before 2^-134: the pass stops there and one rerun meets the target,
    # instead of growing the exact sequence toward its 400-index cap
    src = os.path.dirname(os.path.dirname(os.path.abspath(sturmjsr.__file__)))
    code = (
        "from mpmath import mpf, nstr\n"
        "from sturmjsr.contfrac import CFExpansion\n"
        "from sturmjsr.family import resolve_family\n"
        "from sturmjsr.irrational_preimage import alpha_for_irrational\n"
        "fam, cf = resolve_family('kozyakin'), CFExpansion.parse('2,3;period=1')\n"
        "low = alpha_for_irrational(fam, cf, digits=40, prec=64)\n"
        "ref = alpha_for_irrational(fam, cf, digits=40)\n"
        "assert nstr(low.value, 40) == nstr(ref.value, 40), (low, ref)\n"
        "assert low.prec > 64 and low.error_radius < mpf(10) ** -40, low\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_heuristic_stop_takes_each_step_once(capsys, monkeypatch):
    # the test at index n reads indices up to n + 2, fixed once built: after
    # each extend the scan resumes where it stopped, so every index's step is
    # taken once (the next one included) and the truncation term once more
    import json

    from sturmjsr import irrational_preimage
    from sturmjsr.cli import main

    taken, term = [], irrational_preimage.product_log_term

    def counted(seq, n, prec):
        taken.append(n)
        return term(seq, n, prec)

    monkeypatch.setattr(irrational_preimage, "product_log_term", counted)
    argv = ["alpha", "--family", "kozyakin", "--cf", "2,3;period=1", "--digits", "300", "--format", "json"]
    assert main(argv) == 0
    n = json.loads(capsys.readouterr().out)["N"]
    assert sorted(taken) == sorted([*range(2, n + 2), n])  # 7 calls; 17 when each extend rescanned


def test_finite_expansion_is_refused(hmst):
    # gamma = [0; 2, 1, 1] = 2/5 is rational: its preimage is a step, not a point
    with pytest.raises(IrrationalPreimageError, match=r"interval 2/5"):
        alpha_for_irrational(hmst, CFExpansion.from_list([2, 1, 1]), digits=5)


def test_trace_product_matches_rho_product(hmst, golden_cf):
    res = alpha_for_irrational(hmst, golden_cf, terms=10, prec=350)
    traced = alpha_by_traces(hmst, golden_cf, 10, prec=350)
    assert abs(traced - res.value) < mpf(10) ** -25


def test_trace_product_reproduces_companion_form(hmst, golden_cf):
    # (1 - tau_{n-2}/(tau_{n-1} tau_n))^((-1)^(n+1) q_n) with the 1/tr(A1)
    # prefactor equals the telescoped trace partial
    taus = tau_recurrence_golden(12)
    seq = rho_sequence(hmst, golden_cf, 12)
    with mp.workprec(300):
        # for these seeds tau_0^(a1 - 1) = trace(A1), so the leading power
        # of the telescoped product exactly absorbs the 1/trace(A1)
        # prefactor and the companion form needs none
        acc = mpf(1)
        for n in range(0, 11):
            t = 1 - mpf(taus[n]) / (mpf(taus[n + 1]) * mpf(taus[n + 2]))
            e = seq.q(n) if n % 2 else -seq.q(n)
            acc *= t ** e
        direct = alpha_by_traces(hmst, golden_cf, 10, prec=300)
        assert abs(acc - direct) < mpf(10) ** -40


def test_first_partial_inside_convergent_sandwich(hmst, golden_cf):
    # the crude N=1 partial of the spectral-radius product already lands
    # between the neighbouring rational steps (trace partials do not)
    from sturmjsr.rational_preimage import preimage_interval

    seq = rho_sequence(hmst, golden_cf, 2, prec=220)
    with mp.workprec(220):
        alpha_1 = mp.exp(partial_log_alpha(seq, 1, 220))
        lo_gap = preimage_interval(hmst, Fr(1, 3), 220).hi.value
        hi_gap = preimage_interval(hmst, Fr(1, 2), 220).lo.value
        assert lo_gap < alpha_1 < hi_gap


def test_trace_product_requires_certificate(hmst):
    cf = CFExpansion.from_list([2, 1, 1, 1, 1, 1, 1, 1], prefix_only=True)
    with pytest.raises(IrrationalPreimageError):
        alpha_by_traces(hmst, cf, 5)


def test_sandwich_against_rational_steps(hmst, golden_cf):
    res = alpha_for_irrational(hmst, golden_cf, digits=25)
    with mp.workprec(300):
        gamma = (3 - mp.sqrt(5)) / 2
        for pq, iv in convergent_intervals(hmst, golden_cf, 9):
            if mpf(pq.numerator) / pq.denominator < gamma:
                assert iv.hi.value < res.value
            else:
                assert res.value < iv.lo.value


def test_partial_values_contract(hmst, golden_cf):
    # depth 12 needs well over 300 bits: the telescoped partials carry
    # magnitudes near q_n log rho_{n+1}, so their differences cancel
    prec = 700
    seq = rho_sequence(hmst, golden_cf, 14, prec=prec)
    with mp.workprec(prec):
        # n = 12 would need another ~300 bits: the true step is ~1e-240
        steps = [
            abs(partial_log_alpha(seq, n + 1, prec) - partial_log_alpha(seq, n, prec))
            for n in range(2, 12)
        ]
        for a, b in zip(steps[2:], steps[3:]):
            assert b < a
        # each step is exactly the dropped product term
        for n in range(3, 11):
            assert abs(product_log_term(seq, n + 1, prec)) >= abs(
                partial_log_alpha(seq, n + 1, prec) - partial_log_alpha(seq, n, prec)
            ) * (1 - mpf(2) ** -40)


def test_term_bound_shape(hmst, golden_cf):
    # |1 - rho_{n+1}/(rho_n^{a_{n+1}} rho_{n-1})| <= C0 / rho_{n-1}^2
    seq = rho_sequence(hmst, golden_cf, 13, prec=300)
    c0 = 193
    with mp.workprec(300):
        for n in range(1, 12):
            lhs = abs(
                1
                - seq.rho(n + 1) / (seq.rho(n) ** seq.coeffs[n] * seq.rho(n - 1))
            )
            assert lhs <= c0 / seq.rho(n - 1) ** 2 + mpf(2) ** -250


def test_kozyakin_alpha_sandwiched(kozyakin):
    cf = cf_of_quadratic(*GOLDEN_GAMMA)
    res = alpha_for_irrational(kozyakin, cf, terms=8, prec=220)
    assert not res.rigorous  # the certificate is specific to the unipotent pair
    with mp.workprec(220):
        gamma = (3 - mp.sqrt(5)) / 2
        for pq, iv in convergent_intervals(kozyakin, cf, 7, prec=220):
            if mpf(pq.numerator) / pq.denominator < gamma:
                assert iv.hi.value < res.value
            else:
                assert res.value < iv.lo.value


def test_kozyakin_reduction_above_one_half(kozyakin):
    # a1 == 1 goes through the swapped family and an inversion; validate
    # against this family's own steps around gamma = (sqrt(5)-1)/2
    cf = CFExpansion.from_periodic([], [1])
    res = alpha_for_irrational(kozyakin, cf, terms=8, prec=220)
    assert not res.rigorous
    with mp.workprec(220):
        gamma = (mp.sqrt(5) - 1) / 2
        for pq in (Fr(1, 2), Fr(2, 3), Fr(3, 5), Fr(5, 8), Fr(8, 13)):
            from sturmjsr.rational_preimage import preimage_interval

            iv = preimage_interval(kozyakin, pq, 220)
            if mpf(pq.numerator) / pq.denominator < gamma:
                assert iv.hi.value < res.value
            else:
                assert res.value < iv.lo.value


def test_float_family_heuristic(bousch_mairesse):
    cf = cf_of_quadratic(*GOLDEN_GAMMA)
    res = alpha_for_irrational(bousch_mairesse, cf, terms=8, prec=220)
    assert not res.rigorous
    assert res.certificate is None
    assert res.value > 0
    # sandwiched by that family's own rational steps
    with mp.workprec(220):
        gamma = (3 - mp.sqrt(5)) / 2
        for pq, iv in convergent_intervals(bousch_mairesse, cf, 7, prec=220):
            if mpf(pq.numerator) / pq.denominator < gamma:
                assert iv.hi.value < res.value
            else:
                assert res.value < iv.lo.value


def test_terms_must_be_nonnegative(hmst, golden_cf):
    with pytest.raises(IrrationalPreimageError):
        alpha_for_irrational(hmst, golden_cf, terms=-1)


def test_sequence_grows_only_to_the_index_used(hmst, monkeypatch):
    # a certified truncation at N reads the sequence up to index N + 1;
    # for [5, 5, ...] that is N = 4, where q_9 would be 2.6e6
    from sturmjsr.irrational_preimage import RhoTauSequence

    tops = []
    extend = RhoTauSequence.extend

    def spy(seq):
        extend(seq)
        tops.append(seq.top)

    monkeypatch.setattr(RhoTauSequence, "extend", spy)
    res = alpha_for_irrational(hmst, CFExpansion.from_periodic([], [5]), digits=30)
    assert res.rigorous and res.terms_used == 4
    assert max(tops) == res.terms_used + 1


def test_stream_running_dry_truncates_at_last_usable_index(hmst):
    # eight uncertified terms reach index 7: a target that no earlier index
    # meets truncates at N = 6, a looser one stops at the first usable N
    cf = CFExpansion.from_list([2, 1, 1, 1, 1, 1, 1, 1], prefix_only=True)
    res = alpha_for_irrational(hmst, cf, digits=10)
    assert res.terms_used == 6 and not res.rigorous
    assert alpha_for_irrational(hmst, cf, digits=2).terms_used == 4


# -- the grown sequence against the batch build it replaced -----------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sturmjsr.family import (  # noqa: E402
    builtin_bousch_mairesse,
    builtin_hmst,
    builtin_kozyakin,
)
from sturmjsr.irrational_preimage import _log_rho_from_trace_det  # noqa: E402

_FAMILIES = {
    "hmst": builtin_hmst(),
    "kozyakin": builtin_kozyakin(Fr(1, 2), 1, 1, Fr(1, 2)),
    "bousch-mairesse": builtin_bousch_mairesse(1, "0.5", "0.5"),
}


def _batch_sequence(fam, cf, n_top, prec):
    """ps, qs, taus, matrices and log_rhos for indices -1 .. n_top, built
    in one batch from the prefix a_1 .. a_{n_top+1}."""
    coeffs = cf.prefix(n_top + 1)
    a0, a1 = fam.a0, fam.a1
    with mp.workprec(prec + 24):
        mats = [a1, a0, (a0 ** (coeffs[0] - 1)) @ a1]
        for k in range(1, n_top):
            mats.append((mats[-1] ** coeffs[k]) @ mats[-2])
    ps, qs = [1, 0], [0, 1]
    for a in coeffs:
        ps.append(a * ps[-1] + ps[-2])
        qs.append(a * qs[-1] + qs[-2])
    taus, log_rhos = [], []
    for i, m in enumerate(mats):
        n = i - 1
        with mp.workprec(prec + 24):
            tau = m.trace()
            if fam.integral:
                ones = ps[i] if n >= 1 else (0 if n == 0 else 1)
                zeros = (qs[i] - ps[i]) if n >= 1 else (1 if n == 0 else 0)
                det = a0.det() ** zeros * a1.det() ** ones
            else:
                det = m.det()
        taus.append(tau)
        log_rhos.append(_log_rho_from_trace_det(tau, det, prec))
    return coeffs, ps[: len(mats)], qs[: len(mats)], taus, mats, log_rhos


@given(
    st.sampled_from(sorted(_FAMILIES)),
    st.lists(st.integers(1, 3), max_size=2),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.integers(1, 7),
    st.sampled_from([128, 256]),
)
@settings(max_examples=60, deadline=None)
def test_grown_sequence_matches_batch_build(name, pre, per, n_top, prec):
    fam = _FAMILIES[name]
    cf = CFExpansion.from_periodic(pre, per)
    seq = rho_sequence(fam, cf, n_top, prec=prec)
    coeffs, ps, qs, taus, mats, log_rhos = _batch_sequence(fam, cf, n_top, prec)
    assert seq.top == n_top
    assert seq.coeffs == coeffs
    assert seq.ps == ps
    assert seq.qs == qs
    assert seq.taus == taus
    assert seq.matrices == mats
    assert seq.log_rhos == log_rhos


# -- CLI payloads pinned before the sequence grew one index at a time ---------


def test_irrational_golden_payloads(capsys):
    import json
    from pathlib import Path

    from sturmjsr.cli import main

    cases = json.loads((Path(__file__).parent / "irrational_golden.json").read_text())
    assert len(cases) == 8
    for case in cases:
        assert main(case["argv"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("gamma")  # the echo of the expansion is not pinned
        assert payload == case["payload"], case["argv"]


# -- radii only where they are read ------------------------------------------


def test_alpha_star_takes_logs_only_where_it_reads(monkeypatch):
    # a certified truncation takes logs at n0, N and N + 1 (3, 18 and 19
    # here) and at any index whose trace does not settle the stop; the
    # heuristic stop, which runs until the certificate exists, reads none
    from sturmjsr import irrational_preimage
    from sturmjsr.cli import main

    calls = []
    log_rho = irrational_preimage._log_rho_from_trace_det

    def counted(tau, det, prec):
        calls.append(prec)
        return log_rho(tau, det, prec)

    monkeypatch.setattr(irrational_preimage, "_log_rho_from_trace_det", counted)
    assert main(["alpha-star", "--digits", "1000", "--format", "json"]) == 0
    assert len(calls) <= 3


@given(
    st.sampled_from(["hmst", "kozyakin"]),
    st.lists(st.integers(1, 3), max_size=2),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.integers(0, 7),
    st.integers(-3, 3),
    st.integers(1, 3),
    st.sampled_from([193, 321, 481]),
    st.sampled_from([128, 256]),
)
@settings(max_examples=60, deadline=None)
def test_trace_screen_is_sound(name, pre, per, pick, shift, ell, c0, prec):
    # the certificate stop at target_bits tb fires when rho_n > 4 L C0 2^tb;
    # tb is drawn so that the screen (half that) falls near |tau_pick|
    from sturmjsr.irrational_preimage import _rho_below_by_trace

    seq = rho_sequence(_FAMILIES[name], CFExpansion.from_periodic(pre, per), 7, prec=prec)
    size = int(abs(seq.tau(pick))).bit_length()
    tb = max(0, size - (2 * ell * c0).bit_length() + shift)
    stop = 4 * ell * c0 << tb
    for n in range(-1, seq.top + 1):
        tau = seq.tau(n)
        if not _rho_below_by_trace(tau, seq.det(n), stop // 2):
            continue
        with mp.workprec(prec):
            slack = 1 + mpf(2) ** (8 - prec)  # rounding of the mpf radius
            assert seq.rho(n) <= abs(mpf(tau.numerator) / tau.denominator) * slack
            assert seq.rho(n) < stop
            tol = mpf(2) ** (-tb)
            assert not 2 * ell * c0 / seq.rho(n) < tol / 2  # the stop agrees


def test_irrational_payloads_outside_the_golden_file(capsys):
    # a heuristic stop from a decimal, Kozyakin and its dual, float traces,
    # an explicit truncation and a deep alpha-star, gamma echo included
    import json
    from pathlib import Path

    from sturmjsr.cli import main

    cases = json.loads((Path(__file__).parent / "irrational_payloads.json").read_text())
    assert len(cases) == 6
    for case in cases:
        assert main(case["argv"]) == 0
        assert json.loads(capsys.readouterr().out) == case["payload"], case["argv"]


@pytest.mark.parametrize("name", ["hmst", "kozyakin"])
def test_chained_convergent_intervals_match_per_fraction_steps(name, request):
    # one descent through the convergents gives the steps that
    # preimage_interval builds from the root for each of them
    import random

    from sturmjsr.contfrac import convergents
    from sturmjsr.rational_preimage import preimage_interval

    fam, rng = request.getfixturevalue(name), random.Random(14)
    for _ in range(8):
        prefix = [rng.randint(1, 4) for _ in range(rng.randint(0, 2))]
        cf = CFExpansion.from_periodic(prefix, [rng.randint(1, 3) for _ in range(rng.randint(1, 3))])
        pairs = convergents(cf, 8)
        count = max(k for k in range(1, 9) if pairs[k + 1][1] <= 120)
        want = [
            (Fr(p, q), preimage_interval(fam, Fr(p, q)))
            for p, q in pairs[2:count + 2] if 0 < p < q
        ]
        assert convergent_intervals(fam, cf, count) == want, (prefix, cf)


def test_alpha_star_takes_logs_only_at_the_truncation(monkeypatch):
    # the certificate's L is floor(q_{n0+1} / rho_{n0}) + 1 in integers, so
    # only rho_N and rho_{N+1} (18 and 19 here) need a log
    from sturmjsr import irrational_preimage
    from sturmjsr.cli import main

    calls = []
    log_rho = irrational_preimage._log_rho_from_trace_det

    def counted(tau, det, prec):
        calls.append(prec)
        return log_rho(tau, det, prec)

    monkeypatch.setattr(irrational_preimage, "_log_rho_from_trace_det", counted)
    assert main(["alpha-star", "--digits", "1000", "--format", "json"]) == 0
    assert len(calls) <= 2


from hypothesis import assume, example  # noqa: E402


@given(st.integers(0, 10 ** 40), st.integers(-(10 ** 20), 10 ** 20), st.integers(-(10 ** 20), 10 ** 20))
@example(8, 3, 1)  # rho = (3 + sqrt 5) / 2
@example(6, 5, 4)  # rho = 4, x / rho not an integer
@example(8, 5, 4)  # x / rho = 2 exactly
@example(10 ** 40, 1, -(10 ** 20))
@settings(max_examples=200, deadline=None)
def test_floor_over_rho_is_exact(x, tau, det):
    from sturmjsr.irrational_preimage import _floor_over_rho

    assume(tau * tau - 4 * det >= 0 and (tau != 0 or det < 0))
    m = _floor_over_rho(x, tau, det)
    with mp.workprec(4096):
        rho = (abs(tau) + mp.sqrt(tau * tau - 4 * det)) / 2
        assert m * rho <= x < (m + 1) * rho
