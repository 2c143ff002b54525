"""The unique parameter with a given irrational extremal 1-ratio.

For irrational gamma = [a1, a2, ...] the ratio function takes the value
gamma at exactly one parameter alpha_gamma, obtained as the limit of

    alpha_N = ( rho_N^{q_{N+1}} / rho_{N+1}^{q_N} )^{(-1)^N}

where rho_n is the spectral radius of the matrix B_n built by the word
recursion B_{-1} = A1, B_0 = A0, B_1 = A0^{a1 - 1} A1 and
B_{n+1} = B_n^{a_{n+1}} B_{n-1}.  Equivalently alpha_gamma is the infinite
product (1/rho(A1)) * prod_n (rho_n^{a_{n+1}} rho_{n-1} / rho_{n+1})
^{(-1)^n q_n}; the partial products coincide with alpha_N, and everything
here is accumulated in log space because rho_n grows doubly exponentially.

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

from mpmath import mp, mpf, log as mlog, exp as mexp, sqrt as msqrt

from .contfrac import CFExpansion, CoefficientsExhausted, cf_complement, convergents
from .family import MatrixFamily, dual_family
from .linalg2 import Mat2
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
    trace and determinant; its log radius and radius are computed on
    first read and kept, so a truncation at N takes logs at only the few
    indices it reads (``_pick_terms`` screens the certificate stop by the
    exact trace first).
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
            self._log_rhos[i] = _log_rho_from_trace_det(self.taus[i], self.dets[i], self.prec)
        return self._log_rhos[i]

    def rho(self, n: int) -> mpf:
        i = self._i(n)
        if self._rhos[i] is None:
            logr = self.log_rho(n)
            with mp.workprec(self.prec):
                self._rhos[i] = mexp(logr)
        return self._rhos[i]

    @property
    def log_rhos(self) -> list[mpf]:
        """log rho at every index -1 .. top, computing those not yet read."""
        return [self.log_rho(n) for n in range(-1, self.top + 1)]

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


def _log_rho_from_trace_det(tau, det, prec: int) -> mpf:
    """log of (|tau| + sqrt(tau^2 - 4 det)) / 2 without materializing huge
    powers; tau may be an arbitrary-precision integer or Fraction."""
    with mp.workprec(prec + 24):
        if isinstance(tau, (int, Fraction)):
            tau = Fraction(tau)
            t = mpf(tau.numerator) / tau.denominator
        else:
            t = mpf(tau)
        if isinstance(det, (int, Fraction)):
            det = Fraction(det)
            d = mpf(det.numerator) / det.denominator
        else:
            d = mpf(det)
        disc = t * t - 4 * d
        if disc < 0:
            return mlog(d) / 2
        return mlog((abs(t) + msqrt(disc)) / 2)


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

    ``error_radius`` bounds |alpha - value| outwards.  ``rigorous`` is
    True only when a certificate was verified; otherwise the radius is the
    labelled heuristic (four times the last log-space step).
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


def partial_log_alpha(seq: RhoTauSequence, n: int, prec: int) -> mpf:
    """log alpha_n in telescoped form, (-1)^n (q_{n+1} log rho_n - q_n
    log rho_{n+1}); identical to the partial product accumulated term by
    term, with less cancellation."""
    with mp.workprec(prec):
        s = seq.q(n + 1) * seq.log_rho(n) - seq.q(n) * seq.log_rho(n + 1)
        return -s if n % 2 else s


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
            work += int(mp.ceil(mp.log(arith / goal, 2))) + 1
    with mp.workprec(work):
        if mirrored:
            value = 1 / value  # the log-space radius is invariant under inversion
        radius = value * (mexp(trunc + arith) - 1)
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
    heuristic = _heuristic_stop(seq, target_bits, work)
    while True:
        try:
            seq.extend()
        except CoefficientsExhausted:
            if seq.top < 3:
                raise PrecisionError("fewer than four coefficients available") from None
            n_used = seq.top - 1
            break
        cert = rigor_certificate(fam, seq, cf)
        if terms is not None:
            n_used = terms if seq.top > terms else None
        else:
            n_used = _pick_terms(seq, cert, target_bits, work, heuristic)
        if n_used is not None:
            break
        if seq.top > 400:
            raise PrecisionError("term growth exhausted without meeting target")
    rigorous = cert is not None and n_used >= cert.n0

    with mp.workprec(work):
        value = mexp(partial_log_alpha(seq, n_used, work))
        arith = _rounding_term(seq, n_used, work)
        if rigorous:
            trunc = 2 * cert.L * cert.C0 / seq.rho(n_used)
        else:
            trunc = 4 * abs(product_log_term(seq, n_used, work))
    return value, trunc, arith, rigorous, n_used, cert


def _pick_terms(seq, cert, target_bits, work, heuristic: Iterator) -> Optional[int]:
    """Smallest usable truncation index, or None when the sequence is too
    short for the target; without a certificate, the next answer of the
    pass's ``heuristic`` scan (``_heuristic_stop``)."""
    if cert is None:
        return next(heuristic)
    with mp.workprec(work):
        tol = mpf(2) ** (-(target_bits or 106))
        # rho_n <= |tau_n| below half the threshold fails the test with a
        # factor-2 margin over rounding, and takes no log
        screen = 2 * cert.L * cert.C0 << (target_bits or 106)
        for n in range(cert.n0, seq.top):
            if _rho_below_by_trace(seq.tau(n), seq.det(n), screen):
                continue
            if 2 * cert.L * cert.C0 / seq.rho(n) < tol / 2:
                return n
        return None


def _heuristic_stop(seq, target_bits, work) -> Iterator[Optional[int]]:
    """The heuristic stop of one pass: two successive tiny steps, the second
    reading index n + 2.  A step below the rounding term is unresolved at
    this precision: the pass stops there, and its rounding term makes the
    caller rerun at more bits instead of growing the sequence.

    Asked after each ``extend``, it yields the stop index, or None while the
    indices built decide none.  The test at n reads only indices up to
    n + 2, which never change once built, so the scan resumes at the first
    untested index and keeps each step it took, the next one included."""
    n, steps = 2, {}
    with mp.workprec(work):
        tol = mpf(2) ** (-(target_bits or 106)) / 8

    def step(i: int) -> mpf:
        if i not in steps:
            steps[i] = abs(product_log_term(seq, i, work))
        return steps[i]

    while True:
        while n >= seq.top - 1:
            yield None
        with mp.workprec(work):
            stop = step(n) < tol and step(n + 1) < tol or step(n) < _rounding_term(seq, n, work)
        if stop:
            yield n
        n += 1


def _rounding_term(seq, n: int, work: int) -> mpf:
    """First-order rounding slop of log alpha_n accumulated in log space at
    ``work`` bits."""
    with mp.workprec(work):
        magnitude = abs(seq.q(n) * seq.log_rho(n + 1)) + 1
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
