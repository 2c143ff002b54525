"""Reference helpers shared by the test modules."""

from fractions import Fraction


def farey_fractions(qmax: int) -> list[Fraction]:
    """All reduced fractions in (0, 1) with denominator <= qmax, ascending
    (the order of ``SternBrocotNode.walk``)."""
    return sorted(
        Fraction(p, q)
        for q in range(2, qmax + 1)
        for p in range(1, q)
        if Fraction(p, q).denominator == q
    )
