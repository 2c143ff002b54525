import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from sturmjsr.cli import _unlimited_int_digits
from sturmjsr.precision import (
    _STR_BITS,
    fraction_strs,
    int_str,
    json_text,
    mpf_from_fraction,
    mpf_from_ratio,
)


def _unlimited_str(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def _int_of(kind: str, bits: int, seed: int, negative: bool) -> int:
    digits = bits * 3 // 10  # about `bits` bits
    n = {
        "random": random.Random(seed).getrandbits(bits),
        "power of ten": 10 ** digits,
        "power of ten - 1": 10 ** digits - 1,
        "top bit": 1 << bits,
    }[kind]
    return -n if negative else n


# bit lengths log-uniform up to about 2^600000, so most examples are cheap
# for the quadratic reference str()
_bits = st.floats(0, 19.2).map(lambda e: int(2 ** e))
_kind = st.sampled_from(["random", "power of ten", "power of ten - 1", "top bit"])


@given(_kind, _bits, st.integers(0, 2 ** 32), st.booleans())
@settings(max_examples=40, deadline=None)
@example("random", 600_000, 1, False)
@example("power of ten", 200_000, 0, True)
@example("power of ten - 1", 100_000, 0, False)
@example("random", _STR_BITS, 2, False)
@example("random", _STR_BITS + 1, 3, True)
@example("top bit", _STR_BITS - 1, 0, False)
@example("top bit", _STR_BITS, 0, False)
@example("random", 0, 0, False)
def test_int_str_is_str(kind, bits, seed, negative):
    n = _int_of(kind, bits, seed, negative)
    want = _unlimited_str(n)
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (0, 4300):  # lifted, and CPython's default
            sys.set_int_max_str_digits(digits)
            assert int_str(n) == want
    finally:
        sys.set_int_max_str_digits(limit)


@given(
    _kind, st.integers(0, 100_000), st.integers(0, 2 ** 32), st.booleans(),
    st.integers(0, 40_000), st.integers(0, 2 ** 32),
)
@settings(max_examples=30, deadline=None)
@example("random", 40_000, 1, True, 40_000, 1)  # a shared denominator
def test_fraction_strs_is_str(kind, bits, seed, negative, den_bits, den_seed):
    n = _int_of(kind, bits, seed, negative)
    den = random.Random(den_seed).getrandbits(den_bits) + 1
    xs = [Fraction(n, den), Fraction(den - n, den), Fraction(n), Fraction(0)]
    assert fraction_strs(*xs) == [
        _unlimited_str(x.numerator) + ("" if x.denominator == 1 else "/" + _unlimited_str(x.denominator))
        for x in xs
    ]


# numerators: zero, small, and up to 4000 bits, either sign; denominators a
# power of two, odd or both, with a shared factor for the gcd to remove
_numerator = st.one_of(
    st.just(0),
    st.integers(-10 ** 6, 10 ** 6),
    st.builds(
        lambda bits, seed, neg: (-1) ** neg * random.Random(seed).getrandbits(bits),
        st.integers(1, 4000), st.integers(0, 2 ** 32), st.booleans(),
    ),
)


@given(
    _numerator,
    st.sampled_from(["power of two", "odd", "mixed"]),
    st.integers(0, 300),
    st.integers(0, 10 ** 40).map(lambda n: 2 * n + 1),
    st.sampled_from([1, 2, 3, 6, 15, 2 ** 70 * 3 ** 20]),
    st.integers(53, 512),
)
@settings(max_examples=200, deadline=None)
@example(0, "odd", 0, 9, 3, 53)
@example(-(2 ** 3999 + 1), "mixed", 256, 3 ** 161, 15, 256)
@example(2 ** 4000 - 1, "power of two", 300, 1, 1, 512)
def test_mpf_from_ratio_matches_mpf_from_fraction(n, kind, e, odd, factor, prec):
    den = {"power of two": 1 << e, "odd": odd, "mixed": odd << e}[kind]
    n, den = n * factor, den * factor
    got = mpf_from_ratio(n, den, prec)._mpf_
    assert got == mpf_from_fraction(Fraction(n, den), prec)._mpf_
    # the rounding mpf_from_fraction has always had: the reduced numerator
    # at prec bits, then the quotient
    x = Fraction(n, den)
    with mp.workprec(prec):
        assert got == (mpf(x.numerator) / x.denominator)._mpf_


# strings with non-ASCII characters, control characters and lone surrogates
_json_strings = st.text(st.characters() | st.characters(categories=("Cc", "Cs")))
_json_leaves = (
    _json_strings
    | st.integers()
    | st.builds(lambda k, n: n * 10 ** k, st.integers(4300, 4400), st.integers(-9, 9))
    | st.booleans()
    | st.none()
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_strings, inner, max_size=4),
    max_leaves=30,
)


@given(_json_values)
@settings(max_examples=300, deadline=None)
@example([])
@example({})
@example({"steps": [{}, [], {"a": [[]]}], "": None, "\ud800\x00\u00e9": -(10 ** 4301)})
def test_json_text_matches_json_dumps(value):
    with _unlimited_int_digits():  # ints of more than 4300 digits print
        assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, {1: "a"}, {"a": mpf(1)}, [Fraction(1, 2)]])
def test_json_text_refuses_what_the_commands_never_print(value):
    # floats and non-str keys would need json's conversions: refused, not guessed
    with pytest.raises(TypeError):
        json_text(value)
