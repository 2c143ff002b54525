"""Finite binary word combinatorics: balance, slopes, standard pairs.

Words are plain Python strings over the alphabet {'0', '1'}.  Strings give
O(1) symbol access, cheap slicing and concatenation, and serialize directly,
which is all the downstream matrix machinery needs even for words of length
around 10^5.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Iterator

from .precision import Ball

Word = str


class WordError(ValueError):
    pass


def ones_count(w: Word) -> int:
    """Number of '1' symbols in the word."""
    return w.count("1")


def slope(w: Word) -> Fraction:
    """Fraction of ones, |w|_1 / |w|, in lowest terms."""
    if not w:
        raise WordError("slope of the empty word is undefined")
    return Fraction(ones_count(w), len(w))


def _window_counts(w: Word, length: int) -> tuple[int, int]:
    """Min and max ones-count over all subwords of the given length."""
    ones = 0
    for ch in w[:length]:
        ones += ch == "1"
    lo = hi = ones
    for i in range(length, len(w)):
        ones += (w[i] == "1") - (w[i - length] == "1")
        if ones < lo:
            lo = ones
        elif ones > hi:
            hi = ones
    return lo, hi


def is_balanced(w: Word) -> bool:
    """True iff equal-length subwords never differ by more than one '1'.

    Sliding-window min/max scan per window length, O(n^2) total.  The
    exhaustive all-pairs oracle used to validate this lives in the tests.
    """
    n = len(w)
    for length in range(1, n):
        lo, hi = _window_counts(w, length)
        if hi - lo > 1:
            return False
    return True


def is_cyclically_balanced(w: Word) -> bool:
    """True iff every cyclic rotation of the word is balanced.

    Checked on windows of w+w restricted to lengths <= |w|, which covers
    exactly the subwords of all rotations without materializing them.
    """
    if not w:
        raise WordError("cyclic balance of the empty word is undefined")
    n = len(w)
    ww = w + w
    for length in range(1, n + 1):
        # windows of ww starting at 0..n-1 are the length-`length` subwords
        # of the rotations of w
        lo, hi = _window_counts(ww[: n + length - 1], length)
        if hi - lo > 1:
            return False
    return True


def rotations(w: Word) -> Iterator[Word]:
    for i in range(len(w)):
        yield w[i:] + w[:i]


def min_rotation(w: Word) -> Word:
    """Lexicographically least rotation (canonical necklace representative)."""
    return min(rotations(w))


def necklaces(n: int) -> Iterator[Word]:
    """All binary necklaces of length n, i.e. lexicographically minimal
    rotations, in lexicographic order (Fredricksen-Kessler-Maiorana).

    Iterative: the next prenecklace after w turns its last 0, at position
    i (counted from 1), into a 1 and repeats those first i letters to
    length n.  It is a necklace when i divides n.
    """
    if n <= 0:
        return
    w = "0" * n
    yield w
    while True:
        i = w.rfind("0") + 1
        if not i:
            return
        w = ((w[: i - 1] + "1") * (n // i + 1))[:n]
        if n % i == 0:
            yield w


# ---------------------------------------------------------------------------
# standard pairs


@dataclass(frozen=True)
class StandardPair:
    """Pair of words built from ('0','1') by u -> (u, uv) and v -> (uv, v).

    Both halves are cyclically balanced, uv has coprime ones-count and
    length, and the halves' slopes are the Farey parents of slope(uv).
    """

    u: Word
    v: Word

    @property
    def uv(self) -> Word:
        return self.u + self.v

    def determinant(self) -> int:
        return len(self.u) * ones_count(self.v) - ones_count(self.u) * len(self.v)

    def validate(self) -> None:
        """Check reachability from ('0','1') by reversing the pair maps.

        Accepts the closure under all three conventions in circulation,
        (u,v) -> (u,uv) / (uv,v) / (vu,v); the forward maps grow exactly
        one half, so each reverse step strips the other half from one of
        its two possible sides, with backtracking for the rare ambiguous
        case.
        """
        if self.determinant() != 1:
            raise WordError(f"not a standard pair (determinant != 1): {self}")

        def reach(u: Word, v: Word) -> bool:
            while (u, v) != ("0", "1"):
                nexts = []
                if len(v) > len(u) and v.startswith(u):
                    nexts.append((u, v[len(u):]))
                if len(u) > len(v):
                    if u.endswith(v):
                        nexts.append((u[: -len(v)], v))
                    if u.startswith(v) and (u[len(v):], v) not in nexts:
                        nexts.append((u[len(v):], v))
                if not nexts:
                    return False
                if len(nexts) == 1:
                    u, v = nexts[0]
                    continue
                return any(reach(*c) for c in nexts)
            return True

        if not reach(self.u, self.v):
            raise WordError(f"not reachable from ('0','1'): {self}")


def gamma_step(pair: StandardPair) -> StandardPair:
    """(u, v) -> (u, uv)."""
    return StandardPair(pair.u, pair.u + pair.v)


def delta_step(pair: StandardPair) -> StandardPair:
    """(u, v) -> (vu, v)."""
    return StandardPair(pair.v + pair.u, pair.v)


def standard_pair_for(pq: Fraction) -> StandardPair:
    """The standard pair (u, v) with slope(uv) == p/q.

    Stern-Brocot descent from ('0', '1'): slope(uv) is the mediant of the
    slopes of u and v, and p/q below it takes (u, uv), above it (uv, v).
    The construction is deterministic and pinned so results are
    reproducible; slope(u) < p/q < slope(v) are the Farey parents of p/q.
    """
    pq = Fraction(pq)
    if not 0 < pq < 1:
        raise WordError(f"need 0 < p/q < 1, got {pq}")
    p, q = pq.numerator, pq.denominator
    u, v = "0", "1"
    ones_u, len_u, ones_v, len_v = 0, 1, 1, 1
    while True:
        ones, length = ones_u + ones_v, len_u + len_v
        side = p * length - ones * q  # sign of p/q - slope(uv), in integers
        if side == 0:
            return StandardPair(u, v)
        if side < 0:
            v, ones_v, len_v = u + v, ones, length
        else:
            u, ones_u, len_u = u + v, ones, length


# ---------------------------------------------------------------------------
# mechanical words


def _floor_certified(lo: Fraction, hi: Fraction) -> int:
    a, b = floor(lo), floor(hi)
    if a != b:
        raise WordError(
            f"floor straddles an integer on [{lo}, {hi}]; "
            "increase precision or shrink the radius"
        )
    return a


def mechanical_prefix(gamma, n: int, delta=Fraction(0)) -> Word:
    """First n symbols of the lower mechanical word with slope gamma.

    Symbol i is floor(gamma*(i+1) + delta) - floor(gamma*i + delta).  Exact
    rationals evaluate exactly; a Ball input is evaluated with outward
    interval bounds and raises rather than guess when a floor cannot be
    certified, since a single misrounded symbol corrupts every product
    built from the word.  The result is balanced, with ones density gamma.
    Only the lower (floor) word is provided; nothing downstream consumes
    the ceiling variant.
    """
    if n < 0:
        raise WordError("length must be nonnegative")
    if isinstance(gamma, Ball):
        glo, ghi = gamma.bounds()
    else:
        glo = ghi = Fraction(gamma)
    if isinstance(delta, Ball):
        dlo, dhi = delta.bounds()
    else:
        dlo = dhi = Fraction(delta)
    if not (0 <= glo and ghi <= 1):
        raise WordError("slope must lie in [0, 1]")
    out = []
    prev = _floor_certified(glo * 1 + dlo, ghi * 1 + dhi)  # i = 1 term of floor(gamma*i+delta)
    for i in range(1, n + 1):
        cur = _floor_certified(glo * (i + 1) + dlo, ghi * (i + 1) + dhi)
        out.append("01"[cur - prev])
        prev = cur
    return "".join(out)


def s_sequence(cf, n: int) -> list[Word]:
    """Words s_-1 .. s_n from the coefficient stream: s_-1='1', s_0='0',
    s_1 = s_0^(a1-1) s_-1, and s_{k+1} = s_k^(a_{k+1}) s_{k-1}.

    s_k has length q_k and ones-count p_k (the convergents of the stream)
    and is cyclically balanced.  Returned list index k+1 holds s_k.
    """
    if n < 1:
        raise WordError("need n >= 1")
    coeffs = cf.prefix(n) if hasattr(cf, "prefix") else list(cf[:n])
    if len(coeffs) < n:
        raise WordError(f"coefficient stream exhausted: have {len(coeffs)}, need {n}")
    if any(a < 1 for a in coeffs):
        raise WordError("coefficients must be positive")
    seq = ["1", "0", "0" * (coeffs[0] - 1) + "1"]
    for k in range(1, n):
        seq.append(seq[-1] * coeffs[k] + seq[-2])
    return seq
