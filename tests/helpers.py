"""Reference helpers shared by the test modules."""

from fractions import Fraction
from typing import Iterator

from mpmath import mp, mpf

from sturmjsr import rational_preimage
from sturmjsr.linalg2 import QuadExt, pair_pow, squarefree_split
from sturmjsr.precision import DEFAULT_PREC, fraction_from_mpf
from sturmjsr.rational_preimage import Endpoint, EndpointPrecisionError, exact_ball


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


def _operand(x, prec: int) -> tuple:
    """(mpf value, error bound, exact QuadExt or None) of an endpoint or a
    point; points (int, Fraction, mpf) are exact."""
    if isinstance(x, (int, Fraction)):
        x = exact_ball(QuadExt.make(x), prec)
    if isinstance(x, Endpoint):
        if x.exact is None and x.radius is None:
            return x.value, x.error, QuadExt.make(fraction_from_mpf(x.value))
        return x.value, x.error, x.exact
    x = x if isinstance(x, mpf) else mpf(x)
    return x, mpf(0), QuadExt.make(fraction_from_mpf(x))


def compare_reference(x, y) -> int:
    """The certified sign of x - y as ``rational_preimage.compare`` decided
    it with mpmath's context arithmetic: the reference for its filter on
    raw libmp tuples.  The exact fallback goes through
    ``rational_preimage.quad_compare``, so that a test can count it."""
    prec = max(
        (e.prec for e in (x, y) if isinstance(e, Endpoint)), default=DEFAULT_PREC
    )
    xv, xe, xq = _operand(x, prec)
    yv, ye, yq = _operand(y, prec)
    diff = mp.fsub(xv, yv, exact=True)
    tol = mp.fadd(xe, ye, rounding="u")
    if diff > tol or diff < -tol:
        return 1 if diff > 0 else -1
    if xq is None or yq is None:
        raise EndpointPrecisionError(
            f"cannot order {mp.nstr(xv, 20)} and {mp.nstr(yv, 20)} "
            f"within their radii at {prec} bits"
        )
    return rational_preimage.quad_compare(xq, yq)


def two_ladder_upper(node) -> QuadExt:
    """The upper end rho(A)^q2 / rho(P*B2)^q of ``node``'s step on a ladder
    of its own, as exact families evaluated it before both ends came from
    one ladder: lam^q2 (2 sqrt(d))^q / (2^q2 N2^q) over the integer
    matrices, 1/N2 taken over its norm (over N2 itself when disc A is a
    square), with no split and no cancellation at the bases."""
    (k0, k1), (zu, ou), (zv, ov) = node.scales, node.count_u, node.count_v
    s_u, s_v = k0 ** zu * k1 ** ou, k0 ** zv * k1 ** ov
    a, b, q, k = node.m_u @ node.m_v, node.m_v, node.q, zv + ov
    t = a.trace()
    d = t * t - 4 * a.det()
    red = Fraction(d, (s_u * s_v) ** 2)
    core, s = squarefree_split(red.numerator * red.denominator)
    r = Fraction(s_u * s_v * s, red.denominator)
    tb = b.a + b.d
    n = (2 * (a.a * b.a + a.b * b.c + a.c * b.b + a.d * b.d) - t * tb, tb)
    if QuadExt.make(n[0], n[1], d).sign() < 0:
        n = (-n[0], -n[1])
    if core == 1:
        x, other = (1, 0), n[0] + n[1] * int(r)
    else:
        x, other = (n[0], -n[1]), n[0] * n[0] - n[1] * n[1] * d
    za, zb = pair_pow(x, q, d, (abs(t), 1), k)
    if q % 2:
        za, zb = zb * d, za
    f = Fraction(2 ** q * d ** (q // 2), 2 ** k * other ** q) * Fraction(s_v ** (zu + ou), s_u ** (zv + ov))
    if core == 1:
        return QuadExt(f * (za + zb * int(r)), Fraction(0), 0)
    return QuadExt(f * za, f * zb * r, core)
