import random
from fractions import Fraction
from math import isqrt

import pytest
import sympy  # the reference the trial-division split is checked against
from mpmath import mp, mpf
from mpmath import sqrt as msqrt

from sturmjsr import linalg2
from sturmjsr.linalg2 import (
    LinalgError,
    Mat2,
    QuadExt,
    RepeatedEigenvalueError,
    eigenvalues_exact,
    frobenius_norm,
    operator_norm_rowsum,
    pair_mul,
    pair_pow,
    perron_projection,
    product_of_word,
    quad_compare,
    rank_one_spectral_radius,
    sigma_norm,
    spectral_radius,
    squarefree_split,
)

HM_A0 = Mat2(1, 1, 0, 1)
HM_A1 = Mat2(1, 0, 1, 1)


def rand_quad(rng, d):
    return QuadExt.make(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        d,
    )


# ---------------------------------------------------------------------------
# QuadExt scalars


def test_squarefree_split():
    assert squarefree_split(12) == (3, 2)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(49) == (1, 7)
    assert squarefree_split(0) == (0, 1)


# ---------------------------------------------------------------------------
# squarefree split by trial division, against sympy (a test-only dependency)


def _split_by_sympy(n):
    d = s = 1
    for p, e in sympy.factorint(n).items():
        d *= p ** (e % 2)
        s *= p ** (e // 2)
    return d, s


def _trial_form(factors):
    """A full factorization folded the way trial division below 10^4 leaves
    it: the small primes, then the cofactor whole, or its root when it is a
    square."""
    small = {p: e for p, e in factors.items() if p < 10 ** 4}
    c = 1
    for p, e in factors.items():
        if p >= 10 ** 4:
            c *= p ** e
    if c > 1:
        r = isqrt(c)
        small.update({r: 2} if r * r == c else {c: 1})
    return small


_SMALL_PRIMES = list(sympy.primerange(10 ** 4))


def _assert_split_contract(n):
    d, s = squarefree_split(n)
    assert s * s * d == n
    assert all(d % (p * p) for p in _SMALL_PRIMES)
    assert d == 1 or isqrt(d) ** 2 != d
    if n < 10 ** 12:  # the cofactor then has at most two prime factors
        assert (d, s) == _split_by_sympy(n)


STRONG_BASE2_PSEUDOPRIMES = [2047, 3215031751, 3825123056546413051, 318665857834031151167461]
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877]
HARD_CASES = (
    STRONG_BASE2_PSEUDOPRIMES
    + STRONG_LUCAS_PSEUDOPRIMES
    + [561, 41041]  # Carmichael numbers
    + [
        10007 ** 2,  # the square of a prime above the trial bound
        1000003 ** 2 * 998244353,  # p^2 r with p > 10^4: the square is kept
        999999999999989 * 999999999999947,  # balanced 30-digit semiprime
        10 ** 30 - 1,
    ]
)


@pytest.mark.parametrize("n", HARD_CASES)
def test_factorint_hard_cases_agree_with_sympy(n):
    assert linalg2.factorint(n) == _trial_form(sympy.factorint(n))
    _assert_split_contract(n)


def test_squarefree_split_keeps_a_square_past_the_trial_primes():
    n = 1000003 ** 2 * 998244353
    assert squarefree_split(n) == (n, 1)
    assert _split_by_sympy(n) == (998244353, 1000003)


def test_squarefree_split_above_the_full_factoring_limit(monkeypatch):
    # 10^30 + 1 = 61 * 101 * 3541 * 9901 * 27961 * 4188901 * 39526741 has no
    # square factor and is left whole; the call fills the trial-prime table
    # (the bench's warm-up relies on that)
    squarefree_split.cache_clear()
    monkeypatch.setattr(linalg2, "_TRIAL_PRIMES", [])
    assert squarefree_split(10 ** 30 + 1) == (10 ** 30 + 1, 1)
    assert linalg2._TRIAL_PRIMES == _SMALL_PRIMES
    # the squares of trial primes are stripped at any size
    assert squarefree_split(3 * 7 ** 2 * 10 ** 30) == (3, 7 * 10 ** 15)


def test_factorint_rejects_nonpositive():
    assert linalg2.factorint(1) == {}
    with pytest.raises(LinalgError):
        linalg2.factorint(0)


def test_quadext_normalizes():
    x = QuadExt.make(1, Fraction(1, 2), 12)  # 1 + sqrt(12)/2 = 1 + sqrt(3)
    assert (x.a, x.b, x.d) == (Fraction(1), Fraction(1), 3)
    y = QuadExt.make(2, 3, 4)  # 2 + 3*2 rational
    assert y.is_rational and y.a == 8
    assert QuadExt.make(5) == 5


def test_quadext_arithmetic_matches_mpf():
    rng = random.Random(1)
    with mp.workprec(120):
        for d in (2, 3, 5, 42):
            root = msqrt(mpf(d))

            def val(x):
                return (
                    mpf(x.a.numerator) / x.a.denominator
                    + (mpf(x.b.numerator) / x.b.denominator) * root
                )

            for _ in range(60):
                x, y = rand_quad(rng, d), rand_quad(rng, d)
                assert abs(val(x + y) - (val(x) + val(y))) < mpf(2) ** -90
                assert abs(val(x * y) - val(x) * val(y)) < mpf(2) ** -80
                assert abs(val(x - y) - (val(x) - val(y))) < mpf(2) ** -90
                if y.sign() != 0:
                    assert abs(val(x / y) - val(x) / val(y)) < mpf(2) ** -80


def test_quadext_power_and_inverse():
    x = QuadExt.make(1, 1, 2)
    assert x ** 0 == 1
    assert x ** 3 == x * x * x
    assert (x ** -2) * (x ** 2) == 1


def test_quadext_sign_and_order():
    # 1 - sqrt(2) < 0 < sqrt(2) - 1
    assert QuadExt.make(1, -1, 2).sign() == -1
    assert QuadExt.make(-1, 1, 2).sign() == 1
    assert QuadExt.make(3, -2, 2) > 0  # 3 - 2.828 > 0
    assert QuadExt.make(2, -3, 2) < 0
    assert abs(QuadExt.make(1, -1, 2)) == QuadExt.make(-1, 1, 2)


def test_quad_compare_cross_field_matches_mpf():
    rng = random.Random(8)
    with mp.workprec(160):
        for _ in range(400):
            d1, d2 = rng.choice([(2, 3), (5, 42), (3, 5), (6, 21), (5, 5)])
            x, y = rand_quad(rng, d1), rand_quad(rng, d2)
            got = quad_compare(x, y)
            vx = mpf(x.a.numerator) / x.a.denominator + (
                mpf(x.b.numerator) / x.b.denominator
            ) * msqrt(mpf(x.d or 1)) * (0 if x.d == 0 else 1)
            vy = mpf(y.a.numerator) / y.a.denominator + (
                mpf(y.b.numerator) / y.b.denominator
            ) * msqrt(mpf(y.d or 1)) * (0 if y.d == 0 else 1)
            diff = vx - vy
            if abs(diff) > mpf(2) ** -100:
                assert got == (1 if diff > 0 else -1), (x, y)
            else:
                assert got == 0, (x, y)


def test_quadext_mixed_radicand_rejected():
    with pytest.raises(LinalgError):
        QuadExt.make(0, 1, 2) + QuadExt.make(0, 1, 3)


# ---------------------------------------------------------------------------
# matrices


def test_product_of_word_reversed_order():
    # last letter is the leftmost factor
    m = product_of_word(HM_A0, HM_A1, "01")
    assert m == HM_A1 @ HM_A0
    assert m == Mat2(1, 1, 1, 2)
    assert product_of_word(HM_A0, HM_A1, "0") == HM_A0


def test_product_concatenation_law():
    rng = random.Random(6)
    for _ in range(40):
        w1 = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
        w2 = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
        lhs = product_of_word(HM_A0, HM_A1, w1 + w2)
        rhs = product_of_word(HM_A0, HM_A1, w2) @ product_of_word(HM_A0, HM_A1, w1)
        assert lhs == rhs


def test_power_matches_repeated_multiplication():
    assert HM_A0 ** 0 == Mat2.identity()
    assert HM_A0 ** 1 == HM_A0
    rng = random.Random(12)
    for _ in range(20):
        m = Mat2(*(rng.randint(-4, 4) for _ in range(4)))
        acc = Mat2.identity()
        for k in range(6):
            assert m ** k == acc
            acc = acc @ m
    for n in (5, 20):
        assert HM_A0 ** n == Mat2(1, n, 0, 1)


def test_spectral_radius_examples():
    r = spectral_radius(Mat2(1, 1, 1, 2))
    assert r == QuadExt.make(Fraction(3, 2), Fraction(1, 2), 5)
    assert spectral_radius(Mat2.identity()) == 1
    assert spectral_radius(Mat2(2, 1, 1, 1)) == QuadExt.make(Fraction(3, 2), Fraction(1, 2), 5)


def test_spectral_radius_complex_pair_falls_back_to_det():
    rot = Mat2(0, -1, 1, 0)
    assert spectral_radius(rot) == 1
    assert spectral_radius(Mat2(0, -2, 2, 0)) == 2


def test_spectral_radius_cyclic_and_transpose_invariance():
    rng = random.Random(3)
    for _ in range(50):
        m = Mat2(*(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)))
        n = Mat2(*(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)))
        assert spectral_radius(m) == spectral_radius(m.transpose())
        assert spectral_radius(m @ n) == spectral_radius(n @ m)


def test_perron_projection_golden_example():
    p = perron_projection(Mat2(2, 1, 1, 1))
    fifth = Fraction(1, 5)
    assert p.a == QuadExt.make(Fraction(1, 2), Fraction(1, 10), 5)
    assert p.b == QuadExt.make(0, fifth, 5)
    assert p.c == QuadExt.make(0, fifth, 5)
    assert p.d == QuadExt.make(Fraction(1, 2), Fraction(-1, 10), 5)


def test_perron_projection_diagonal_and_jordan():
    assert perron_projection(Mat2(3, 0, 0, 1)) == Mat2(
        QuadExt.make(1), QuadExt.make(0), QuadExt.make(0), QuadExt.make(0)
    )
    with pytest.raises(RepeatedEigenvalueError):
        perron_projection(HM_A0)


def test_perron_projection_properties_random():
    rng = random.Random(7)
    count = 0
    while count < 50:
        m = Mat2(*(rng.randint(1, 9) for _ in range(4)))
        lam1, lam2 = eigenvalues_exact(m)
        if lam1 == lam2:
            continue
        count += 1
        p = perron_projection(m)
        zero, one = QuadExt.make(0), QuadExt.make(1)
        # P^2 = P
        assert p @ p == p
        # M P = P M = lam1 P
        mp_ = m @ p
        assert mp_ == p @ m
        assert mp_ == p.map(lambda x: x * lam1)
        # det P = 0, trace P = 1
        assert p.det() == zero
        assert p.trace() == one
        assert p.is_nonnegative()


def test_rank_one_spectral_radius():
    m = Mat2(0, 2, 0, 1) @ Mat2(1, 0, 1, Fraction(1, 2))
    assert m == Mat2(2, 1, 1, Fraction(1, 2))
    assert rank_one_spectral_radius(m) == QuadExt.make(Fraction(5, 2))
    assert rank_one_spectral_radius(Mat2(0, 0, 0, 0)) == 0
    with pytest.raises(LinalgError):
        rank_one_spectral_radius(Mat2(1, 0, 0, 1))


def test_unimodularity_of_word_products():
    rng = random.Random(10)
    for _ in range(40):
        w = "".join(rng.choice("01") for _ in range(rng.randint(1, 12)))
        m = product_of_word(HM_A0, HM_A1, w)
        assert m.det() == 1
        # trace = rho + 1/rho exactly for unimodular products
        rho = spectral_radius(m)
        tr = QuadExt.make(Fraction(m.trace()))
        if not rho.is_rational:
            assert rho + rho.inverse() == tr


# ---------------------------------------------------------------------------
# norms


def test_rowsum_norm_examples():
    assert operator_norm_rowsum(Mat2.identity()) == 1
    assert operator_norm_rowsum(Mat2(1, 1, 0, 1)) == 2


def test_norms_submultiplicative():
    rng = random.Random(15)
    with mp.workprec(80):
        for _ in range(60):
            m = Mat2(*(mpf(rng.randint(-9, 9)) / rng.randint(1, 3) for _ in range(4)))
            n = Mat2(*(mpf(rng.randint(-9, 9)) / rng.randint(1, 3) for _ in range(4)))
            slack = 1 + mpf(2) ** -60
            assert operator_norm_rowsum(m @ n) <= operator_norm_rowsum(m) * operator_norm_rowsum(n) * slack
            assert frobenius_norm(m @ n, 80) <= frobenius_norm(m, 80) * frobenius_norm(n, 80) * slack
            assert sigma_norm(m @ n, 80) <= sigma_norm(m, 80) * sigma_norm(n, 80) * slack


def test_norm_dominates_growth_rate():
    # rho(M(w))^(1/|w|) <= ||M(w)||^(1/|w|) for every word at unit scale
    from sturmjsr.linalg2 import spectral_radius_mpf

    with mp.workprec(100):
        for n in range(1, 11):
            for bits in range(2 ** n):
                w = format(bits, f"0{n}b")
                m = product_of_word(HM_A0, HM_A1, w)
                rho = spectral_radius_mpf(m, 100)
                norm = sigma_norm(m, 100)
                assert rho <= norm * (1 + mpf(2) ** -80)


# ---------------------------------------------------------------------------
# property tests

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_frac = st.fractions(min_value=-10, max_value=10, max_denominator=30)


@given(_frac, _frac, st.sampled_from([2, 3, 5, 6, 7, 10, 42]), _frac, _frac)
@settings(max_examples=200, deadline=None)
def test_quadext_field_axioms(a1, b1, d, a2, b2):
    x = QuadExt.make(a1, b1, d)
    y = QuadExt.make(a2, b2, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * x == x * x + y * x
    if y.sign() != 0:
        assert (x / y) * y == x
    # conjugation is multiplicative and fixes the rational part twice over
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x


@given(st.lists(st.sampled_from("01"), min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_spectral_radius_of_rotated_words_equal(letters):
    w = "".join(letters)
    m0 = product_of_word(HM_A0, HM_A1, w)
    for k in range(1, len(w)):
        rot = w[k:] + w[:k]
        assert spectral_radius(product_of_word(HM_A0, HM_A1, rot)) == spectral_radius(m0)


def _pow_by_quadext_mul(x: QuadExt, k: int) -> QuadExt:
    """Square-and-multiply over QuadExt.__mul__ (the Fraction reference)."""
    if k < 0:
        return _pow_by_quadext_mul(x.inverse(), -k)
    result = QuadExt(Fraction(1), Fraction(0), 0)
    while k:
        if k & 1:
            result = result * x
        x = x * x
        k >>= 1
    return result


@given(
    _frac,
    _frac,
    st.sampled_from([0, 2, 3, 5, 6, 7, 10, 42]),
    st.integers(min_value=-7, max_value=13),
)
@settings(max_examples=300, deadline=None)
def test_quadext_integer_power_matches_multiplication(a, b, d, k):
    for x in (QuadExt.make(a, b, d), QuadExt.make(0, b, d), QuadExt.make(a)):
        if k < 0 and x.sign() == 0:
            with pytest.raises(ZeroDivisionError):
                x ** k
            continue
        got = x ** k
        ref = _pow_by_quadext_mul(x, k)
        assert (got.a, got.b, got.d) == (ref.a, ref.b, ref.d), (x, k)
        naive = QuadExt.make(1)
        for _ in range(abs(k)):
            naive = naive * (x if k > 0 else x.inverse())
        assert got == naive


_pair = st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))


@given(_pair, st.integers(0, 40), _pair, st.integers(0, 40), st.sampled_from([0, 1, 2, 5, 12, 45]))
@settings(max_examples=200, deadline=None)
@example((3, 1), 0, (2, -1), 0, 5)
@example((3, 1), 0, (2, -1), 7, 5)
@example((3, 1), 9, (2, -1), 0, 5)
@example((0, 1), 6, (1, 1), 5, 12)
def test_pair_pow_matches_repeated_mul(x, k, y, j, d):
    ref = (1, 0)
    for _ in range(k):
        ref = pair_mul(ref, x, d)
    for _ in range(j):
        ref = pair_mul(ref, y, d)
    assert pair_pow(x, k, d, y, j) == ref
    if j == 0:
        assert pair_pow(x, k, d) == ref


@given(
    st.one_of(
        st.integers(min_value=1, max_value=10 ** 40),
        st.integers(min_value=1, max_value=10 ** 12),
        # hypothesis favours small and smooth integers: these are uniform on
        # 1-40 digits
        st.builds(
            lambda digits, seed: random.Random(seed).randrange(10 ** (digits - 1), 10 ** digits),
            st.integers(1, 40),
            st.integers(0, 2 ** 32),
        ),
        # a square factor beyond the trial primes
        st.builds(lambda a, b: a * b * b, st.integers(1, 10 ** 20), st.integers(10 ** 4, 10 ** 10)),
        # two primes beyond the trial primes, times a smooth part
        st.builds(
            lambda a, b, c: sympy.nextprime(a) * sympy.nextprime(b) * c,
            st.integers(10 ** 4, 10 ** 11),
            st.integers(10 ** 4, 10 ** 11),
            st.integers(1, 10 ** 6),
        ),
    )
)
@settings(max_examples=200, deadline=None)
def test_factorint_and_squarefree_split_agree_with_sympy(n):
    # n = s^2 d, no trial prime squared divides d, d is not a square above
    # 1, and below 10^12 the split is sympy's; factorint is sympy's
    # factorization in trial-division form wherever sympy factors quickly
    _assert_split_contract(n)
    if n < 10 ** 18:
        assert linalg2.factorint(n) == _trial_form(sympy.factorint(n))
