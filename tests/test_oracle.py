import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, sqrt as msqrt

from sturmjsr.cli import main
from sturmjsr.family import (
    builtin_bousch_mairesse,
    builtin_hmst,
    builtin_kozyakin,
)
from sturmjsr.linalg2 import Mat2, QuadExt, sigma_norm, spectral_radius
from sturmjsr.oracle import (
    OracleError,
    check_condition_v,
    extremal_slope_estimate,
    jsr_bounds,
)
from sturmjsr.precision import mpf_from_fraction
from sturmjsr.rational_preimage import preimage_interval, varrho_on_interval
from sturmjsr.words import necklaces

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
            v = varrho_on_interval(fam, pq, alpha, prec, interval=iv)
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


def _reference_bounds(fam, alpha, max_len, prec):
    with mp.workprec(prec):
        alpha_f = mpf_from_fraction(alpha, prec)
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
