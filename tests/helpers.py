"""Reference helpers shared by the test modules."""

from fractions import Fraction
from typing import Iterator


def farey_fractions(qmax: int) -> list[Fraction]:
    """All reduced fractions in (0, 1) with denominator <= qmax, ascending
    (the order of ``SternBrocotNode.walk``)."""
    return sorted(
        Fraction(p, q)
        for q in range(2, qmax + 1)
        for p in range(1, q)
        if Fraction(p, q).denominator == q
    )


def necklaces_reference(n: int) -> Iterator[str]:
    """The recursive Fredricksen-Kessler-Maiorana enumeration of the binary
    necklaces of length n, in lexicographic order: the reference for
    ``words.necklaces``."""
    if n <= 0:
        return
    word = [0] * (n + 1)

    def gen(t: int, p: int) -> Iterator[str]:
        if t > n:
            if n % p == 0:
                yield "".join("01"[b] for b in word[1 : n + 1])
            return
        word[t] = word[t - p]
        yield from gen(t + 1, p)
        for b in range(word[t - p] + 1, 2):
            word[t] = b
            yield from gen(t + 1, t)

    yield from gen(1, 1)
