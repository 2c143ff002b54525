import random
from fractions import Fraction

import pytest
from mpmath import cbrt, mp, mpf, sqrt
from mpmath import e as euler_e

from sturmjsr.contfrac import (
    CertificationError,
    CFError,
    CFExpansion,
    CoefficientsExhausted,
    cf_complement,
    cf_of_quadratic,
    cf_of_rational,
    cf_of_real,
    convergents,
)
from sturmjsr.precision import Ball


def test_cf_rational_examples():
    assert cf_of_rational(Fraction(3, 7)).prefix() == [2, 3]
    assert cf_of_rational(Fraction(1, 2)).prefix() == [2]
    assert cf_of_rational(Fraction(2, 5)).prefix() == [2, 2]
    # check by direct evaluation
    assert Fraction(1, 2 + Fraction(1, 3)) == Fraction(3, 7)
    assert Fraction(1, 2 + Fraction(1, 2)) == Fraction(2, 5)


def test_cf_rational_rejects_out_of_range():
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(CFError):
            cf_of_rational(bad)


def test_cf_roundtrip_all_small_denominators():
    for q in range(2, 501):
        for p in range(1, q):
            x = Fraction(p, q)
            if x.denominator != q:
                continue
            cf = cf_of_rational(x)
            assert cf.value() == x
            assert cf.prefix()[-1] > 1 or cf.prefix() == [1]


def test_convergent_seeds_and_example():
    conv = convergents(CFExpansion.from_list([2, 3]), 2)
    assert conv[0] == (1, 0)  # k = -1
    assert conv[1] == (0, 1)  # k = 0
    assert conv[3] == (3, 7)


def test_convergents_golden_are_fibonacci():
    cf = CFExpansion.from_periodic([2], [1])
    conv = convergents(cf, 10)
    qs = [q for _, q in conv[1:]]
    assert qs[:7] == [1, 2, 3, 5, 8, 13, 21]
    for a, b, c in zip(qs, qs[1:], qs[2:]):
        assert c == a + b


def test_convergent_determinant_identity():
    rng = random.Random(4)
    for _ in range(30):
        coeffs = [rng.randint(1, 9) for _ in range(30)]
        conv = convergents(CFExpansion.from_list(coeffs), 30)
        for k in range(0, 30):
            p_k, q_k = conv[k + 1]
            p_k1, q_k1 = conv[k]
            assert p_k * q_k1 - p_k1 * q_k == (-1) ** (k + 1)


def test_convergents_exhaustion():
    with pytest.raises(CoefficientsExhausted):
        convergents(CFExpansion.from_list([1, 2, 3]), 5)


# ---------------------------------------------------------------------------
# quadratic streams


def test_quadratic_examples():
    assert cf_of_quadratic(Fraction(3, 2), Fraction(-1, 2), 5).prefix(6) == [2, 1, 1, 1, 1, 1]
    assert cf_of_quadratic(Fraction(-2), Fraction(1), 5).prefix(6) == [4] * 6
    assert cf_of_quadratic(Fraction(-1), Fraction(1), 2).prefix(6) == [2] * 6


def test_quadratic_rejects_rational():
    with pytest.raises(CFError):
        cf_of_quadratic(Fraction(1, 2), Fraction(0), 5)
    with pytest.raises(CFError):
        cf_of_quadratic(Fraction(0), Fraction(1, 3), 9)  # square radicand


def test_quadratic_rejects_out_of_range():
    with pytest.raises(CFError):
        cf_of_quadratic(Fraction(0), Fraction(1), 5)  # sqrt(5) > 1


def test_quadratic_periodicity_detected():
    cf = cf_of_quadratic(Fraction(3, 2), Fraction(-1, 2), 5)
    assert cf.period == 1
    assert cf.tail_bound(1) == 2
    assert cf.tail_bound(2) == 1


def test_quadratic_matches_high_precision_float():
    cases = [
        (Fraction(3, 2), Fraction(-1, 2), 5, lambda: (3 - sqrt(mpf(5))) / 2),
        (Fraction(-2), Fraction(1), 5, lambda: sqrt(mpf(5)) - 2),
        (Fraction(-1), Fraction(1), 2, lambda: sqrt(mpf(2)) - 1),
    ]
    for a, b, d, make in cases:
        with mp.workprec(1024):
            ball = Ball(make(), mpf(2) ** -1000)
        want = cf_of_real(ball, 40).prefix(40)
        assert cf_of_quadratic(a, b, d).prefix(40) == want


def test_convergents_alternate_around_quadratic_target():
    cf = cf_of_quadratic(Fraction(3, 2), Fraction(-1, 2), 5)
    conv = convergents(cf, 12)
    with mp.workprec(200):
        gamma = (3 - sqrt(mpf(5))) / 2
        for k in range(1, 11):
            p, q = conv[k + 1]
            if k % 2 == 0:
                assert mpf(p) / q < gamma
            else:
                assert mpf(p) / q > gamma


# ---------------------------------------------------------------------------
# certified real expansion


def test_real_examples():
    with mp.workprec(700):
        ball = Ball(cbrt(mpf(2)) - 1, mpf(2) ** -680)
    assert cf_of_real(ball, 10).prefix(10) == [3, 1, 5, 1, 1, 4, 1, 1, 8, 1]
    with mp.workprec(700):
        ball = Ball((euler_e - 2) / (euler_e - 1), mpf(2) ** -680)
    assert cf_of_real(ball, 11).prefix(11) == [2, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8]


def test_real_rational_boundary_fails_certification():
    with mp.workprec(100):
        ball = Ball(mpf(1) / 2, mpf(2) ** -90)
    with pytest.raises(CertificationError) as exc:
        cf_of_real(ball, 5)
    assert exc.value.index <= 2


def test_real_insufficient_radius_reports_index():
    with mp.workprec(60):
        ball = Ball((3 - sqrt(mpf(5))) / 2, mpf(2) ** -40)
    with pytest.raises(CertificationError) as exc:
        cf_of_real(ball, 60)
    assert 1 < exc.value.index <= 60


# ---------------------------------------------------------------------------
# complement and parsing


def test_complement_finite():
    assert cf_complement(cf_of_rational(Fraction(3, 7))).value() == Fraction(4, 7)
    assert cf_complement(cf_of_rational(Fraction(1, 2))).value() == Fraction(1, 2)
    for q in range(2, 60):
        for p in range(1, q):
            x = Fraction(p, q)
            if x.denominator != q:
                continue
            assert cf_complement(cf_of_rational(x)).value() == 1 - x


def test_complement_periodic_golden():
    golden_conj = CFExpansion.from_periodic([], [1])  # (sqrt(5)-1)/2
    comp = cf_complement(golden_conj)  # (3-sqrt(5))/2
    assert comp.prefix(6) == [2, 1, 1, 1, 1, 1]
    target = cf_of_quadratic(Fraction(3, 2), Fraction(-1, 2), 5)
    assert comp.prefix(25) == target.prefix(25)


def test_parse_and_format_roundtrip():
    for text in ("2,3", "2,1;period=1", "4;period=1", "1,2,3,4"):
        cf = CFExpansion.parse(text)
        again = CFExpansion.parse(cf.format())
        n = 8 if cf.period is not None else len(cf.prefix())
        assert again.prefix(n) == cf.prefix(n)


def test_format_shows_period_suffix():
    assert cf_of_quadratic(Fraction(-2), Fraction(1), 5).format() == "4;period=1"


# ---------------------------------------------------------------------------
# property tests


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@given(st.fractions(min_value="1/1000", max_value="999/1000", max_denominator=10 ** 6))
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(x):
    cf = cf_of_rational(x)
    assert cf.value() == x
    coeffs = cf.prefix()
    assert all(a >= 1 for a in coeffs)
    assert coeffs[-1] > 1 or coeffs == [1]


@given(st.lists(st.integers(1, 50), min_size=2, max_size=20))
@settings(max_examples=150, deadline=None)
def test_complement_involution_property(coeffs):
    if coeffs[-1] == 1:
        coeffs = coeffs[:-1] + [2]
    cf = CFExpansion.from_list(coeffs)
    comp = cf_complement(cf)
    assert comp.value() == 1 - cf.value()
    assert cf_complement(comp).value() == cf.value()


def test_complement_of_a_bare_one_prefix_runs_dry():
    # a1 = 1 complements to [a2 + 1, a3, ...]: a prefix [1] holds no a2
    with pytest.raises(CoefficientsExhausted):
        cf_complement(CFExpansion.from_list([1], prefix_only=True))
    assert cf_complement(CFExpansion.from_list([1, 3], prefix_only=True)).prefix(1) == [4]
