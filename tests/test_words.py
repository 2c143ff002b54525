import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import necklaces_reference
from sturmjsr.contfrac import CFExpansion, cf_of_rational, convergents
from sturmjsr.precision import Ball
from sturmjsr.words import (
    StandardPair,
    WordError,
    delta_step,
    gamma_step,
    is_balanced,
    is_cyclically_balanced,
    mechanical_prefix,
    min_rotation,
    necklaces,
    ones_count,
    s_sequence,
    slope,
    standard_pair_for,
)

# ---------------------------------------------------------------------------
# independent oracles


def balanced_oracle(w: str) -> bool:
    """All-subword-pairs check, no sliding windows."""
    subs = [w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)]
    for x in subs:
        for y in subs:
            if len(x) == len(y) and abs(x.count("1") - y.count("1")) > 1:
                return False
    return True


def cyclically_balanced_oracle(w: str) -> bool:
    return all(is_balanced(w[i:] + w[:i]) for i in range(len(w)))


# ---------------------------------------------------------------------------


def test_ones_count_examples():
    assert ones_count("") == 0
    assert ones_count("00101") == 2
    assert ones_count("01" * 5) == 5


def test_slope_examples():
    assert slope("00101") == Fraction(2, 5)
    assert slope("0") == Fraction(0, 1)
    assert slope("00101" + "01") == Fraction(3, 7)
    with pytest.raises(WordError):
        slope("")


def test_balance_examples():
    # u^2 v^2 for the 3/7 pair contains 0010100 and 1010101
    assert not is_balanced("00101001010101")
    assert "0010100" in "00101001010101" and "1010101" in "00101001010101"
    assert not is_balanced("0011")
    assert is_balanced("01001010")


def test_balance_matches_oracle_exhaustive():
    for n in range(0, 11):
        for bits in range(2 ** n):
            w = format(bits, f"0{n}b") if n else ""
            assert is_balanced(w) == balanced_oracle(w), w


def test_balance_matches_oracle_sampled_long():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(11, 14)
        w = "".join(rng.choice("01") for _ in range(n))
        assert is_balanced(w) == balanced_oracle(w), w


def test_cyclic_balance_examples():
    assert is_cyclically_balanced("01")
    # u^2 v^2 for (00101, 01) is not cyclically balanced
    assert not is_cyclically_balanced("00101" * 2 + "01" * 2)
    # (uv)^n u for (0, 1), n = 3
    assert is_cyclically_balanced("01" * 3 + "0")
    with pytest.raises(WordError):
        is_cyclically_balanced("")


def test_cyclic_balance_matches_rotation_oracle():
    for n in range(1, 13):
        for bits in range(2 ** n):
            w = format(bits, f"0{n}b")
            assert is_cyclically_balanced(w) == cyclically_balanced_oracle(w), w


# ---------------------------------------------------------------------------
# standard pairs


def test_step_definitions():
    base = StandardPair("0", "1")
    assert gamma_step(base) == StandardPair("0", "01")
    assert delta_step(base) == StandardPair("10", "1")


def test_steps_preserve_determinant():
    pair = StandardPair("0", "1")
    rng = random.Random(3)
    for _ in range(40):
        assert pair.determinant() == 1
        pair = gamma_step(pair) if rng.random() < 0.5 else delta_step(pair)
    assert pair.determinant() == 1


def test_standard_pair_examples():
    assert standard_pair_for(Fraction(3, 7)) == StandardPair("00101", "01")
    assert standard_pair_for(Fraction(1, 2)) == StandardPair("0", "1")
    # the (0, 0^(n-1) 1) rows: slope of uv must be 1/(n+1)
    assert standard_pair_for(Fraction(1, 5)) == StandardPair("0", "0001")
    assert standard_pair_for(Fraction(1, 6)) == StandardPair("0", "00001")


def test_standard_pair_digest_q150():
    # pins the pair of every reduced p/q with q <= 150, in ascending order
    lines = []
    for pq in sorted({Fraction(p, q) for q in range(2, 151) for p in range(1, q)}):
        pair = standard_pair_for(pq)
        lines.append(f"{pq.numerator}/{pq.denominator}|{pair.u}|{pair.v}")
    assert len(lines) == 6857
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0af2ce76911a34b4a7472cdd7aa76e266a7548d6e5bacf78f823619c338a4d40"


def test_standard_pair_table_rows():
    rows = {
        Fraction(3, 7): ("00101", "01"),
        Fraction(2, 5): ("001", "01"),
        Fraction(1, 3): ("0", "01"),
        Fraction(2, 7): ("0001", "001"),
        Fraction(1, 4): ("0", "001"),
    }
    for pq, (u, v) in rows.items():
        assert standard_pair_for(pq) == StandardPair(u, v)


def test_standard_pair_roundtrip_and_farey_parents():
    for q in range(2, 101):
        for p in range(1, q):
            if Fraction(p, q).denominator != q:
                continue
            pq = Fraction(p, q)
            pair = standard_pair_for(pq)
            assert slope(pair.uv) == pq
            assert ones_count(pair.uv) == p and len(pair.uv) == q
            pair.validate()
            # halves are the Farey parents
            assert slope(pair.u) < pq < slope(pair.v)
            assert len(pair.u) + len(pair.v) == q


def test_standard_pair_words_cyclically_balanced():
    for q in range(2, 30):
        for p in range(1, q):
            pq = Fraction(p, q)
            if pq.denominator != q:
                continue
            pair = standard_pair_for(pq)
            uv, vu = pair.u + pair.v, pair.v + pair.u
            for n in (0, 1, 2):
                assert is_cyclically_balanced(uv * n + pair.u)
                assert is_cyclically_balanced(vu * n + pair.v)
            assert not is_cyclically_balanced(pair.u * 2 + pair.v * 2)


def test_step_tree_halves_balanced_and_powers():
    # full tree to depth 7: both halves balanced, powers up to 4 balanced
    frontier = [StandardPair("0", "1")]
    for _ in range(7):
        frontier = [step(p) for p in frontier for step in (gamma_step, delta_step)]
        for pair in frontier:
            assert pair.determinant() == 1
    for pair in frontier:
        for half in (pair.u, pair.v):
            for k in range(1, 5):
                assert is_balanced(half * k)


def test_step_tree_depth12_sampled():
    rng = random.Random(11)
    for _ in range(60):
        pair = StandardPair("0", "1")
        for _ in range(12):
            pair = gamma_step(pair) if rng.random() < 0.5 else delta_step(pair)
        assert pair.determinant() == 1
        assert is_balanced(pair.u) and is_balanced(pair.v)


def test_validate_rejects_junk():
    with pytest.raises(WordError):
        StandardPair("01", "0110").validate()


def test_validate_accepts_both_step_conventions():
    rng = random.Random(17)
    for _ in range(60):
        pair = StandardPair("0", "1")
        for _ in range(rng.randint(1, 10)):
            pair = gamma_step(pair) if rng.random() < 0.5 else delta_step(pair)
        pair.validate()


# ---------------------------------------------------------------------------
# mechanical words


def test_mechanical_examples():
    assert mechanical_prefix(Fraction(1, 3), 6) == "010010"
    assert mechanical_prefix(Fraction(0), 4) == "0000"
    assert mechanical_prefix(Fraction(1), 4) == "1111"
    assert mechanical_prefix(Fraction(1), 4, delta=Fraction(1, 3)) == "1111"


def test_mechanical_prefix_balanced_with_slope():
    for q in range(2, 13):
        for p in range(1, q):
            pq = Fraction(p, q)
            if pq.denominator != q:
                continue
            for k in (1, 2, 3, 4):
                w = mechanical_prefix(pq, k * q)
                assert slope(w) == pq
                assert is_cyclically_balanced(w)


def test_mechanical_ball_certification():
    from mpmath import mp, mpf

    with mp.workprec(80):
        good = Ball(mpf(1) / 3, mpf(2) ** -70)
    # floors hit integers at multiples of 3: an interval around 1/3 cannot
    # certify them
    with pytest.raises(WordError):
        mechanical_prefix(good, 12)
    # an irrational slope certifies fine
    with mp.workprec(120):
        from mpmath import sqrt

        gamma = Ball(sqrt(mpf(5)) - 2, mpf(2) ** -100)
    w = mechanical_prefix(gamma, 30)
    assert is_balanced(w)


@given(st.fractions(min_value=0, max_value=1, max_denominator=40), st.integers(1, 40))
@settings(max_examples=120, deadline=None)
def test_mechanical_prefix_is_balanced(gamma, n):
    assert is_balanced(mechanical_prefix(gamma, n))


# ---------------------------------------------------------------------------
# the word recursion


def test_s_sequence_examples():
    cf = CFExpansion.from_list([2, 1, 1, 1])
    assert s_sequence(cf, 4) == ["1", "0", "01", "010", "01001", "01001010"]
    assert s_sequence(CFExpansion.from_list([2]), 1) == ["1", "0", "01"]
    seq = s_sequence(CFExpansion.from_list([3, 2]), 2)
    assert seq[-1] == "0010010"
    assert slope(seq[-1]) == Fraction(2, 7)


def test_s_sequence_matches_convergents():
    rng = random.Random(5)
    for _ in range(20):
        coeffs = [rng.randint(1, 5) for _ in range(10)]
        cf = CFExpansion.from_list(coeffs)
        seq = s_sequence(cf, 10)
        conv = convergents(cf, 10)
        for k in range(1, 11):
            word = seq[k + 1]
            p, q = conv[k + 1]
            assert len(word) == q
            assert ones_count(word) == p


def test_s_sequence_cyclically_balanced_small():
    rng = random.Random(9)
    for _ in range(12):
        coeffs = [rng.randint(1, 3) for _ in range(7)]
        seq = s_sequence(CFExpansion.from_list(coeffs), 7)
        for word in seq[2:]:
            if len(word) <= 2500:
                assert is_cyclically_balanced(word)


# ---------------------------------------------------------------------------
# necklaces


def _mobius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _necklace_count(n: int) -> int:
    """Binary necklaces of length n: the sum over d | n of the Lyndon
    words of length d, (1/d) sum over e | d of mu(e) 2^(d/e)."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return sum(
        sum(_mobius(e) * 2 ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
        for d in divisors
    )


def test_necklace_enumeration_counts():
    # binary necklace counts, OEIS A000031
    expected = {1: 2, 2: 3, 3: 4, 4: 6, 5: 8, 6: 14, 7: 20, 8: 36, 9: 60, 10: 108}
    assert {n: _necklace_count(n) for n in expected} == expected
    for n in range(21):
        got = list(necklaces(n))
        assert len(got) == _necklace_count(n), n
        assert got == sorted(got)
        if n <= 14:
            assert got == list(necklaces_reference(n)), n
            for w in got:
                assert w == min_rotation(w)


def test_necklaces_cover_all_rotation_classes():
    for n in range(1, 9):
        classes = {min_rotation(format(b, f"0{n}b")) for b in range(2 ** n)}
        assert classes == set(necklaces(n))
