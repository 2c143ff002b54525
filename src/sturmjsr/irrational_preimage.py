"""The unique parameter with a given irrational extremal 1-ratio.

For irrational gamma = [a1, a2, ...] the ratio function takes the value
gamma at exactly one parameter alpha_gamma, obtained as the limit of

    alpha_N = ( rho_N^{q_{N+1}} / rho_{N+1}^{q_N} )^{(-1)^N}

where rho_n is the spectral radius of the matrix B_n built by the word
recursion B_{-1} = A1, B_0 = A0, B_1 = A0^{a1 - 1} A1 and
B_{n+1} = B_n^{a_{n+1}} B_{n-1}.  Equivalently alpha_gamma is the infinite
product (1/rho(A1)) * prod_n (rho_n^{a_{n+1}} rho_{n-1} / rho_{n+1})
^{(-1)^n q_n}; the partial products coincide with alpha_N.  alpha_N is
evaluated as that ratio of integer powers of the radii, each radius in
closed form from its exact trace and determinant (``radius_from_trace_det``),
at enough guard bits to absorb the exponents (``_partial_alpha``); no
logarithm or exponential is taken at the working precision.  The heuristic
stop and its radius read the product's terms in log space
(``product_log_term``), because rho_n grows doubly exponentially.

For the unipotent integer family with a1 >= 2 a checkable certificate
(L, K, n0, C0) turns the truncation error into the rigorous bound
|log alpha_gamma - log alpha_N| <= 2*L*C0 / rho_N for N >= n0, with
C0 = 16 (a1+1) (a1+2) + 1.  Slopes above one half reduce to the mirrored
expansion of 1 - gamma through the transpose symmetry of that family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Iterator, Optional

from mpmath import mp, mpf, log as mlog, exp as mexp

from .contfrac import CFExpansion, CoefficientsExhausted, cf_complement, convergents
from .family import MatrixFamily, dual_family
from .linalg2 import Mat2, radius_from_trace_det
from .precision import DEFAULT_PREC
from .rational_preimage import SternBrocotNode


class IrrationalPreimageError(ValueError):
    pass


class PrecisionError(IrrationalPreimageError):
    """Requested accuracy cannot be reached with the available stream."""


@dataclass
class RhoTauSequence:
    """Per-index data of the matrix recursion, indices -1 .. top.

    Starts at the seeds -1 and 0 and grows one index at a time by
    ``extend``; the values at an index never depend on how far the
    sequence has grown.  Accessors p / q / tau / matrix / log_rho / rho
    take the sequence index n directly.  Matrices are kept for the
    nonnegativity checks of the rigor certificate; traces, determinants
    and matrices are exact for integral families.  An index stores its
    trace and determinant; its radius (``radius_from_trace_det``, one
    square root) and its log radius are each computed on first read and
    kept.  Only the heuristic stop reads log radii; a certified truncation
    takes radii at the few indices it reads (``_stop_scan`` screens the
    certificate stop by the exact trace first).
    """

    fam: MatrixFamily
    cf: CFExpansion
    prec: int
    coeffs: list[int] = field(default_factory=list)  # a_1 .. a_{top+1}
    ps: list[int] = field(default_factory=list)
    qs: list[int] = field(default_factory=list)
    taus: list = field(default_factory=list)
    dets: list = field(default_factory=list)
    matrices: list[Mat2] = field(default_factory=list)
    _log_rhos: list[Optional[mpf]] = field(default_factory=list, init=False, repr=False)
    _rhos: list[Optional[mpf]] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):  # the seeds B_-1 = A1 and B_0 = A0
        self._push(self.fam.a1, 1, 0)
        self._push(self.fam.a0, 0, 1)

    def extend(self) -> None:
        """Append index n = top + 1, B_n = B_{n-1}^{a_n - [n = 1]} B_{n-2},
        reading a_1 .. a_{n+1}; a shorter stream raises
        CoefficientsExhausted and leaves the sequence as it was."""
        n = self.top + 1
        coeffs = self.cf.prefix(n + 1)
        a = coeffs[n - 1]
        with mp.workprec(self.prec + 24):  # exact scalars ignore it
            m = (self.matrices[-1] ** (a - (n == 1))) @ self.matrices[-2]
        self.coeffs = coeffs
        self._push(m, a * self.ps[-1] + self.ps[-2], a * self.qs[-1] + self.qs[-2])

    def _push(self, m: Mat2, p: int, q: int) -> None:
        fam = self.fam
        with mp.workprec(self.prec + 24):
            tau = m.trace()
            if fam.integral:
                # the word of B_n has p ones and q - p zeros (B_-1 = A1: none),
                # which give the determinant without the huge matrix
                det = fam.a0.det() ** max(q - p, 0) * fam.a1.det() ** p
            else:
                det = m.det()
        self.ps.append(p)
        self.qs.append(q)
        self.taus.append(tau)
        self.dets.append(det)
        self.matrices.append(m)
        self._log_rhos.append(None)
        self._rhos.append(None)

    def _i(self, n: int) -> int:
        if n < -1 or n >= len(self.taus) - 1:
            raise IndexError(f"index {n} outside [-1, {len(self.taus) - 2}]")
        return n + 1

    def p(self, n: int) -> int:
        return self.ps[self._i(n)]

    def q(self, n: int) -> int:
        return self.qs[self._i(n)]

    def tau(self, n: int):
        return self.taus[self._i(n)]

    def det(self, n: int):
        return self.dets[self._i(n)]

    def matrix(self, n: int) -> Mat2:
        return self.matrices[self._i(n)]

    def log_rho(self, n: int) -> mpf:
        i = self._i(n)
        if self._log_rhos[i] is None:
            rho = radius_from_trace_det(self.taus[i], self.dets[i], self.prec + 24)
            with mp.workprec(self.prec + 24):
                self._log_rhos[i] = mlog(rho)
        return self._log_rhos[i]

    def rho(self, n: int) -> mpf:
        i = self._i(n)
        if self._rhos[i] is None:
            self._rhos[i] = radius_from_trace_det(self.taus[i], self.dets[i], self.prec)
        return self._rhos[i]

    @property
    def top(self) -> int:
        return len(self.taus) - 2


def _rho_below_by_trace(tau, det, bound: int) -> bool:
    """True when an exact trace and determinant prove rho < bound: with
    det > 0 and tau^2 >= 4 det the eigenvalues are real and of one sign,
    so rho <= |tau|.  False decides nothing."""
    return (
        isinstance(tau, (int, Fraction)) and isinstance(det, (int, Fraction))
        and abs(tau) < bound and det > 0 and tau * tau >= 4 * det
    )


def rho_sequence(
    fam: MatrixFamily, cf: CFExpansion, n_top: int, prec: int = DEFAULT_PREC,
) -> RhoTauSequence:
    """Matrices, traces and log spectral radii for indices -1 .. n_top."""
    if n_top < 1:
        raise IrrationalPreimageError("need n_top >= 1")
    seq = RhoTauSequence(fam, cf, prec)
    while seq.top < n_top:
        seq.extend()
    return seq


def tau_recurrence_golden(n_top: int) -> list[int]:
    """Integer traces tau_-2 .. tau_N for the golden expansion [2,1,1,...]
    on the unipotent family: seeds 1, 2, 2 and tau_{n+1} = tau_n tau_{n-1}
    - tau_{n-2}.  Returned list index k holds tau_{k-2}."""
    if n_top < 0:
        raise IrrationalPreimageError("need n_top >= 0")
    taus = [1, 2, 2]
    while len(taus) < n_top + 3:
        taus.append(taus[-1] * taus[-2] - taus[-3])
    return taus


@dataclass(frozen=True)
class RigorCertificate:
    """Witnesses for the rigorous truncation bound 2*L*C0/rho_N."""

    L: int
    K: int
    n0: int
    C0: int

    def as_json(self) -> dict:
        return {"L": self.L, "K": self.K, "n0": self.n0, "C0": self.C0}


def rigor_certificate(
    fam: MatrixFamily,
    seq: RhoTauSequence,
    cf: CFExpansion,
    coeff_bound: Optional[int] = None,
) -> Optional[RigorCertificate]:
    """Smallest n0 >= 3 with witnesses (L, K) for the truncation bound.

    Requirements: the unipotent integer family with a1 >= 2; K - 1 an
    upper bound for every coefficient beyond index n0 + 1 (derivable for
    periodic streams, else supplied by the caller); the matrix
    B_{n0 - 1} - K*I nonnegative; L any integer with q_{n0+1} <= L *
    rho_{n0}.  Returns None when no bound on the coefficients is known.
    """
    if not fam.is_hmst():
        return None
    a1 = seq.coeffs[0]
    if a1 < 2:
        return None
    c0 = 16 * (a1 + 1) * (a1 + 2) + 1
    for n0 in range(3, seq.top):
        bound = coeff_bound if coeff_bound is not None else cf.tail_bound(n0 + 2)
        if bound is None:
            return None
        k = max(2, bound + 1)
        m = seq.matrix(n0 - 1)
        if not (m - Mat2.identity().scale(k)).is_nonnegative():
            continue
        # hmst's traces and determinants are integers
        ell = _floor_over_rho(seq.q(n0 + 1), int(seq.tau(n0)), int(seq.det(n0))) + 1
        return RigorCertificate(L=ell, K=k, n0=n0, C0=c0)
    return None


def _floor_over_rho(x: int, tau: int, det: int) -> int:
    """floor(x / rho) for x >= 0 and rho = (|tau| + sqrt(tau^2 - 4 det)) / 2
    > 0, in integers.  With disc = tau^2 - 4 det and s = isqrt(disc),
    (|tau| + s) / 2 <= rho < (|tau| + s + 1) / 2 brackets the answer, and a
    bisection decides m rho <= x exactly: it holds iff y = 2x - m |tau| >= 0
    and m^2 disc <= y^2."""
    t, disc = abs(tau), tau * tau - 4 * det
    s = isqrt(disc)
    lo, hi = 2 * x // (t + s + 1), 2 * x // (t + s)
    while lo < hi:
        m = (lo + hi + 1) // 2
        y = 2 * x - m * t
        if y >= 0 and m * m * disc <= y * y:
            lo = m
        else:
            hi = m - 1
    return lo


@dataclass(frozen=True)
class AlphaResult:
    """Approximation of the unique parameter with the given irrational ratio.

    ``value`` is alpha_N, the ratio of powers of the radii at index N =
    ``terms_used``, rounded to ``prec`` bits.  ``error_radius`` bounds
    |alpha - value|: alpha (e^(t + r) - 1), taken at 64 bits, for a
    truncation term t and the rounding term r of ``_rounding_term``, both
    in log alpha.  ``rigorous`` is True only when a certificate was
    verified, and t is then 2 L C0 / rho_N; otherwise the radius is the
    labelled heuristic, t being four times the last log-space step.
    """

    value: mpf
    error_radius: mpf
    rigorous: bool
    terms_used: int
    certificate: Optional[RigorCertificate]
    prec: int
    gamma_label: str = ""

    def as_json(self) -> dict:
        return {
            "alpha": mp.nstr(self.value, max(20, int(self.prec / 3.3))),
            "radius": mp.nstr(self.error_radius, 6),
            "N": self.terms_used,
            "rigorous": self.rigorous,
            "certificate": self.certificate.as_json() if self.certificate else None,
            "gamma": self.gamma_label,
        }


def _partial_alpha(seq: RhoTauSequence, n: int, work: int) -> mpf:
    """alpha_n = (rho_n^{q_{n+1}} / rho_{n+1}^{q_n})^{(-1)^n}, rounded to
    ``work`` bits; two square roots, two integer powers and a quotient.

    Error bound, for an exact trace and determinant.  The radii are taken at
    P = work + 24 + b bits, b = (q_n + q_{n+1}).bit_length() >= 2, each
    within a relative (1 + 2^-6) 2^-P (``radius_from_trace_det``).  mpf's
    integer power carries 4 bitlen(q) + 4 guard bits, so rho^q is within
    q (1 + 2^-6) 2^-P + 2^-P, and the quotient adds 2^-P: to first order
    the ratio is within ((1 + 2^-6)(q_n + q_{n+1}) + 3) 2^-P < 2^(b+1) 2^-P
    = 2^-(work+23), whatever the partial quotients (2 <= q_n + q_{n+1} <
    2^b).  Rounding to ``work`` bits
    adds 2^-work.  ``_rounding_term`` is at least (n + 4) 2^(8 - work) >=
    2^(10 - work) in log alpha, i.e. in relative error, so it covers both
    with room.  An mpf trace (a float family) carries the error of the
    matrix products it came from, and q_n times it reaches the log form and
    this one alike; that is what the q_n log rho_{n+1} factor of the model
    is for.
    """
    qn, qn1 = seq.q(n), seq.q(n + 1)
    guard = work + 24 + (qn + qn1).bit_length()
    rho_n = radius_from_trace_det(seq.tau(n), seq.det(n), guard)
    rho_n1 = radius_from_trace_det(seq.tau(n + 1), seq.det(n + 1), guard)
    with mp.workprec(guard):
        num, den = rho_n ** qn1, rho_n1 ** qn
    with mp.workprec(work):
        return den / num if n % 2 else num / den


def product_log_term(seq: RhoTauSequence, n: int, prec: int) -> mpf:
    """Signed log of the n-th factor of the infinite product."""
    with mp.workprec(prec):
        t = (
            seq.coeffs[n] * seq.log_rho(n)
            + seq.log_rho(n - 1)
            - seq.log_rho(n + 1)
        )
        t *= seq.q(n)
        return -t if n % 2 else t


def alpha_for_irrational(
    fam: MatrixFamily,
    cf: CFExpansion,
    digits: Optional[int] = None,
    terms: Optional[int] = None,
    prec: Optional[int] = None,
) -> AlphaResult:
    """Parameter whose extremal 1-ratio has the given expansion.

    Exactly one of ``digits`` (decimal accuracy target, needs a rigor
    certificate or enough stream to satisfy the heuristic stop rule) and
    ``terms`` (explicit truncation index) may be given; default is
    digits=30.  The radius is a truncation term plus a rounding term, and
    only the rounding term shrinks with more bits: when the truncation term
    alone misses the target and the rounding term is at most half of it,
    PrecisionError is raised at once; otherwise the pass is rerun at the
    precision that the measured rounding term needs.  Expansions with
    a1 == 1 (ratio above one half) run on the complemented expansion and
    invert the result: on the transpose-symmetric unipotent family the
    reduction is exact and keeps rigor; other families are swapped and the
    result is flagged heuristic.  A complete finite expansion is refused:
    its ratio is rational, and the preimage of a rational ratio is a step,
    not a point.
    """
    if not fam.asserted_sturmian:
        raise IrrationalPreimageError(
            f"family {fam.label!r} does not assert Sturmian extremality"
        )
    if digits is not None and terms is not None:
        raise IrrationalPreimageError("give digits or terms, not both")
    if digits is None and terms is None:
        digits = 30
    if terms is not None and terms < 0:
        raise IrrationalPreimageError("need terms >= 0")
    if cf.is_finite:
        g = cf.value()
        raise IrrationalPreimageError(
            f"gamma = {g} is rational: its preimage is a step, see `interval {g}`"
        )

    mirrored = cf.coefficient(1) == 1
    base, run_cf = fam, cf
    if mirrored:  # r(alpha) = 1 - r_swapped(1/alpha); hmst is its own swap up to transposition
        run_cf = cf_complement(cf)
        if not fam.is_hmst():
            base = dual_family(fam)
    target_bits = None if digits is None else int(digits * 3.3219281) + 2
    tol = mp.inf if digits is None else mpf(2) ** -target_bits
    work = prec or max(256, (target_bits or 0) + 64)
    while True:
        value, trunc, arith, rigorous, n_used, cert = _alpha_fixed_prec(
            base, run_cf, target_bits, terms, work
        )
        with mp.workprec(work):
            if trunc + arith <= tol:
                break
            if trunc >= tol and arith <= tol / 2:
                raise PrecisionError(
                    f"truncation error {mp.nstr(trunc, 3)} at N = {n_used} misses "
                    f"the target 2^-{target_bits}: coefficient stream too short"
                )
            # the rounding term scales as 2^-work; one more bit covers the
            # rounding of the term itself.  A rounding term above half the
            # target can hide the truncation term (the pass stops at a step
            # below its rounding term), so it is brought below that first.
            goal = tol - trunc if trunc < tol else tol / 2
        with mp.workprec(64):  # a count of bits; the + 1 covers its rounding too
            work += int(mp.ceil(mp.log(arith / goal, 2))) + 1
    if mirrored:
        with mp.workprec(work):
            value = 1 / value  # the log-space radius is invariant under inversion
    with mp.workprec(64):  # a radius prints 6 digits; expm1 keeps those of a tiny t + r
        radius = value * mp.expm1(trunc + arith)
    return AlphaResult(
        value=value, error_radius=radius, rigorous=rigorous and base is fam,
        terms_used=n_used, certificate=cert, prec=work,
        gamma_label=cf.format(),
    )


def _alpha_fixed_prec(fam, cf, target_bits, terms, work):
    """One pass at fixed precision.  The sequence grows one index at a time
    until the explicit index ``terms``, or the smallest index that meets
    the target, is usable; a stream that runs dry first truncates at the
    last usable index.  Returns the value, the log-space truncation and
    rounding terms of its radius, the rigor flag, N and the certificate."""
    if terms is not None:
        cf.prefix(terms + 2)  # the stream must reach index terms + 1
    seq = RhoTauSequence(fam, cf, work)
    stops = _stop_scan(fam, seq, cf, target_bits, work)
    while True:
        try:
            seq.extend()
        except CoefficientsExhausted:
            if seq.top < 3:
                raise PrecisionError("fewer than four coefficients available") from None
            n_used = seq.top - 1
            break
        if terms is not None:
            n_used = terms if seq.top > terms else None
        else:
            n_used, cert = next(stops)
        if n_used is not None:
            break
        if seq.top > 400:
            raise PrecisionError("term growth exhausted without meeting target")
    if terms is not None:
        cert = rigor_certificate(fam, seq, cf)
    rigorous = cert is not None and n_used >= cert.n0

    with mp.workprec(work):
        value = _partial_alpha(seq, n_used, work)
        arith = _rounding_term(seq, n_used, work)
        if rigorous:
            trunc = 2 * cert.L * cert.C0 / seq.rho(n_used)
        else:
            trunc = 4 * abs(product_log_term(seq, n_used, work))
    return value, trunc, arith, rigorous, n_used, cert


def _stop_scan(fam, seq, cf, target_bits, work) -> Iterator[tuple]:
    """The stop of one pass: asked after each ``extend``, it yields (N, the
    certificate), N None while the indices built decide none.  Until
    ``rigor_certificate`` finds a certificate (then kept: its n0 never
    changes as the sequence grows) the stop is heuristic, two successive
    tiny steps, the second reading index n + 2; a step below the rounding
    term stops the pass, whose caller reruns at more bits.  After, it is the
    certified test from n0 on, wherever the heuristic had got to.  A test
    reads only indices fixed once built, so each scan resumes at its first
    untested index and keeps each step it took."""
    n, steps = 2, {}
    with mp.workprec(work):
        tol = mpf(2) ** (-(target_bits or 106))
        tiny = tol / 8

    def step(i: int) -> mpf:
        if i not in steps:
            steps[i] = abs(product_log_term(seq, i, work))
        return steps[i]

    while (cert := rigor_certificate(fam, seq, cf)) is None:
        while n < seq.top - 1:
            # each yield is outside workprec, which a suspended scan would leak
            with mp.workprec(work):
                stop = step(n) < tiny and step(n + 1) < tiny or step(n) < _rounding_term(seq, n, work)
            if stop:
                yield n, None
            n += 1
        yield None, None
    # rho_n <= |tau_n| below half the threshold fails the certified test
    # with a factor-2 margin over rounding, and takes no radius
    screen = 2 * cert.L * cert.C0 << (target_bits or 106)
    n = cert.n0
    while True:
        while n < seq.top:
            if not _rho_below_by_trace(seq.tau(n), seq.det(n), screen):
                with mp.workprec(work):
                    stop = 2 * cert.L * cert.C0 / seq.rho(n) < tol / 2
                if stop:
                    yield n, cert
            n += 1
        yield None, cert


def _rounding_term(seq, n: int, work: int) -> mpf:
    """First-order rounding slop of log alpha_n at ``work`` bits:
    (|q_n log rho_{n+1}| + 1)(n + 4) 2^(8 - work).  It is the model of a
    log-space evaluation, whose logs of rho_n and rho_{n+1} each carry an
    error near |log rho| 2^-work that q_n and q_{n+1} multiply.
    ``_partial_alpha`` evaluates alpha_n as a ratio of powers to within
    2^-work + 2^-(work+23) relative, below the term's floor of
    2^(10 - work), so the model still bounds the rounding with room to
    spare.  Only the magnitude of log rho_{n+1} matters here: it is read
    from the trace and determinant at 64 bits."""
    rho = radius_from_trace_det(seq.tau(n + 1), seq.det(n + 1), 64)
    with mp.workprec(64):
        magnitude = abs(seq.q(n) * mlog(rho)) + 1
    with mp.workprec(work):
        return magnitude * (n + 4) * mpf(2) ** (-work + 8)


def alpha_by_traces(
    fam: MatrixFamily, cf: CFExpansion, terms: int, prec: int = DEFAULT_PREC,
) -> mpf:
    """Trace-based partial value (tau_N^{q_{N+1}} / tau_{N+1}^{q_N})^{(-1)^N}
    for the unipotent integer family.

    Valid under the same certificate as the rigorous bound (traces and
    spectral radii are interchangeable in the limit exactly when q_n =
    O(rho_{n-1})).  Note the equivalent product form needs the prefactor
    1/trace(A1); the telescoped form used here has it built in.
    """
    if not fam.is_hmst():
        raise IrrationalPreimageError("trace product is specific to the unipotent family")
    seq = rho_sequence(fam, cf, terms + 1, prec=prec)
    cert = rigor_certificate(fam, seq, cf)
    if cert is None:
        raise IrrationalPreimageError(
            "no rigor certificate: trace and spectral-radius products may diverge"
        )
    with mp.workprec(prec):
        lt_n = mlog(mpf(seq.tau(terms)))
        lt_n1 = mlog(mpf(seq.tau(terms + 1)))
        s = seq.q(terms + 1) * lt_n - seq.q(terms) * lt_n1
        return mexp(-s if terms % 2 else s)


def convergent_intervals(fam: MatrixFamily, cf: CFExpansion, count: int, prec: int = DEFAULT_PREC):
    """Rational-preimage intervals of the first ``count`` convergents, for
    the monotone sandwich cross-check of alpha values; each convergent lies
    on the Stern-Brocot path of the next, so their nodes are one descent."""
    pairs = convergents(cf, count)
    out, node = [], SternBrocotNode.root(fam)
    for k in range(1, count + 1):
        p, q = pairs[k + 1]
        if 0 < p < q:
            node = node.descend(Fraction(p, q))
            out.append((node.fraction, node.interval(prec)))
    return out
