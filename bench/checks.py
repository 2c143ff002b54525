"""Output checks, run after the timed phase.

Each check holds for any seed.  Orderings are decided exactly on the
printed quadratic-field endpoints (a + b*sqrt(D), compared by sign rules
written here, not by the program's own comparator), and radius-aware on
decimal endpoints, where a difference inside the printed precision counts
as unresolved rather than wrong.  Reference values that need the library
(Farey-parent steps, serial builds of config families, the JSR on a step)
are computed once per run and cached.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from mpmath import mp, mpf

from workloads import ALPHA_STAR_PREFIX, BUILTINS, DIGEST_QMAX, HMST_Q40_DIGEST

CHECK_PREC = 400  # bits; set per check, never globally (the program shares mp)
DEC_REL = mpf("1e-27")  # printed decimals carry at least 30 digits
PARENT_CHECK_QMAX = 100  # larger q: parents would cost as much as the request


# ---------------------------------------------------------------------------
# exact arithmetic on a + b*sqrt(d)


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _sign2(a, b, d) -> int:
    """Sign of a + b*sqrt(d), d >= 0."""
    if b == 0 or d == 0:
        return _sgn(a)
    r = isqrt(d)
    if r * r == d:
        return _sgn(a + b * r)
    sa, sb = _sgn(a), _sgn(b)
    if sa == 0 or sa == sb:
        return sb if sa == 0 else sa
    return sa * _sgn(a * a - b * b * d)


def _sign3(r, b, d, c, e) -> int:
    """Sign of r + b*sqrt(d) + c*sqrt(e)."""
    if b == 0 or d == 0:
        return _sign2(r, c, e)
    if c == 0 or e == 0:
        return _sign2(r, b, d)
    if d == e:
        return _sign2(r, b + c, d)
    sb, sc = _sgn(b), _sgn(c)
    t = sb if sb == sc else sb * _sgn(b * b * d - c * c * e)
    sr = _sgn(r)
    if sr == 0:
        return t
    if t == 0 or t == sr:
        return sr
    return sr * _sign2(r * r - b * b * d - c * c * e, -2 * b * c, d * e)


def exact_cmp(x: tuple, y: tuple) -> int:
    (a1, b1, d1), (a2, b2, d2) = x, y
    return _sign3(a1 - a2, b1, d1, -b2, d2)


def exact_inv(x: tuple) -> tuple:
    a, b, d = x
    norm = a * a - b * b * d
    return (a / norm, -b / norm, d if b else 0)


# ---------------------------------------------------------------------------
# endpoints


@dataclass
class Ep:
    value: mpf
    exact: Optional[tuple] = None
    radius: mpf = mpf(0)


def ep_from_json(d: dict) -> Ep:
    ex = d.get("exact")
    exact = None
    if ex is not None:
        exact = (Fraction(ex["a"]), Fraction(ex["b"]), int(ex["D"]))
    return Ep(mpf(d["dec"]), exact, mpf(d.get("radius", 0)))


def ep_from_lib(e) -> Optional[Ep]:
    if e is None:
        return None
    exact = None if e.exact is None else (e.exact.a, e.exact.b, e.exact.d)
    return Ep(mpf(e.value), exact, mpf(e.radius) if e.radius is not None else mpf(0))


def ep_cmp(x: Ep, y: Ep) -> Optional[int]:
    """-1/0/+1, or None when decimals cannot resolve the order."""
    if x.exact is not None and y.exact is not None:
        return exact_cmp(x.exact, y.exact)
    diff = x.value - y.value
    tol = x.radius + y.radius + DEC_REL * max(abs(x.value), abs(y.value), 1)
    return None if abs(diff) <= tol else _sgn(diff)


@dataclass
class Step:
    lo: Optional[Ep]  # None: unbounded below (ratio 0) or empty
    hi: Optional[Ep]  # None: unbounded above (ratio 1) or empty
    empty: bool = False


def step_from_json(d: dict) -> Step:
    if d.get("empty"):
        return Step(None, None, True)
    lo = None if d["p"] == 0 else ep_from_json(d["lo"])  # ratio 0: from zero
    hi = None if d["hi"].get("dec") == "+inf" else ep_from_json(d["hi"])
    return Step(lo, hi)


def step_from_lib(iv) -> Step:
    if iv.empty:
        return Step(None, None, True)
    return Step(ep_from_lib(iv.lo), ep_from_lib(iv.hi))


def farey_parents(pq: Fraction) -> tuple[Fraction, Fraction]:
    p, q = pq.numerator, pq.denominator
    b = pow(p, -1, q) if q > 1 else 1
    a = (p * b - 1) // q
    return Fraction(a, b), Fraction(p - a, q - b)


def between_parents(x: Step, left: Step, right: Step) -> Optional[str]:
    """None when step x lies strictly between its parents' steps."""
    if x.lo is not None and x.hi is not None and ep_cmp(x.lo, x.hi) == 1:
        return "lo > hi"
    if not left.empty and left.hi is not None and x.lo is not None:
        if ep_cmp(left.hi, x.lo) in (0, 1):
            return "touches or overlaps its left Farey parent"
    if not right.empty and right.lo is not None and x.hi is not None:
        if ep_cmp(x.hi, right.lo) in (0, 1):
            return "touches or overlaps its right Farey parent"
    return None


def mirror_ok(x: Step, m: Step, rel=DEC_REL) -> Optional[str]:
    """r^-1(1 - x) = [1/hi(x), 1/lo(x)] for transpose-symmetric families."""
    for a, b in ((m.lo, x.hi), (m.hi, x.lo)):
        if a is None or b is None:
            if (a is None) != (b is None):
                return "mirror step has a different shape"
            continue
        if a.exact is not None and b.exact is not None:
            if exact_cmp(a.exact, exact_inv(b.exact)) != 0:
                return "mirror identity fails exactly"
        elif abs(a.value * b.value - 1) > rel + a.radius / a.value + b.radius / b.value:
            return "mirror identity fails numerically"
    return None


def hmst_digest(steps: list[dict], qmax: int = DIGEST_QMAX) -> str:
    lines = []
    for s in steps:
        if s["q"] <= qmax and 0 < s["p"] < s["q"]:
            lo, hi = s["lo"]["exact"], s["hi"]["exact"]
            lines.append(f'{s["p"]}/{s["q"]}|{lo["a"]}|{lo["b"]}|{lo["D"]}|{hi["a"]}|{hi["b"]}|{hi["D"]}')
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def one_over_closed_form(n: int) -> tuple[tuple, tuple]:
    """Exact endpoints of the hmst ratio-1/(n+1) step from the closed form
    (1 + 1/sqrt(m))^(n+1) / (1 + n/2 + sqrt(m)/2) and
    (1 + n/2 + sqrt(m)/2)^n / ((n+1)/2 + (n^2+3n-2)/(2m) sqrt(m))^(n+1),
    m = n^2 + 4n, normalised to a squarefree radicand."""
    m = n * n + 4 * n

    def mul(x, y):
        return (x[0] * y[0] + x[1] * y[1] * m, x[0] * y[1] + x[1] * y[0])

    def power(x, k):
        out = (Fraction(1), Fraction(0))
        for _ in range(k):
            out = mul(out, x)
        return out

    def div(x, y):
        norm = y[0] * y[0] - y[1] * y[1] * m
        return mul(x, (y[0] / norm, -y[1] / norm))

    rho_a = (1 + Fraction(n, 2), Fraction(1, 2))
    lo = div(power((Fraction(1), Fraction(1, m)), n + 1), rho_a)
    hi = div(power(rho_a, n), power((Fraction(n + 1, 2), Fraction(n * n + 3 * n - 2, 2 * m)), n + 1))
    core, s, k = m, 1, 2
    while k * k <= core:
        while core % (k * k) == 0:
            core //= k * k
            s *= k
        k += 1

    def norm(x):
        if x[1] == 0:
            return (x[0], Fraction(0), 0)
        return (x[0] + x[1] * s, Fraction(0), 0) if core == 1 else (x[0], x[1] * s, core)

    return norm(lo), norm(hi)


# ---------------------------------------------------------------------------


class Checker:
    """Checks one run's outputs; references are computed with tracing off."""

    def __init__(self):
        from sturmjsr import family, rational_preimage, staircase

        self.lib_family = family
        self.lib_rp = rational_preimage
        self.lib_st = staircase
        self._fams: dict = {}
        self._steps: dict = {}
        self._builds: dict = {}
        self._jsr: dict = {}

    # -- references -------------------------------------------------------

    def fam(self, sel: str):
        if sel not in self._fams:
            self._fams[sel] = self.lib_family.resolve_family(sel)
        return self._fams[sel]

    def lib_interval(self, sel: str, pq: Fraction):
        key = (sel, pq)
        if key not in self._steps:
            fam = self.fam(sel)
            if pq == 0:
                self._steps[key] = self.lib_rp.preimage_zero(fam)
            elif pq == 1:
                self._steps[key] = self.lib_rp.preimage_one(fam)
            else:
                self._steps[key] = self.lib_rp.preimage_interval(fam, pq)
        return self._steps[key]

    def lib_step(self, sel: str, pq: Fraction) -> Step:
        return step_from_lib(self.lib_interval(sel, pq))

    def serial_build(self, sel: str, qmax: int) -> dict:
        key = (sel, qmax)
        if key not in self._builds:
            st = self.lib_st.build_staircase(self.fam(sel), qmax, workers=1)
            self._builds[key] = {
                iv.fraction: (iv.lo.exact, iv.hi.exact) for iv in st.steps
            }
        return self._builds[key]

    # -- per kind ---------------------------------------------------------

    def check(self, req: dict, rc, out: str, outputs: dict) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        spec = req["check"]
        try:
            with mp.workprec(CHECK_PREC):
                return getattr(self, "_" + spec["kind"])(spec, out, outputs)
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as e:
            return f"unparseable or inconsistent output: {type(e).__name__}: {e}"

    def _build(self, spec, out, outputs):
        lines = out.splitlines()
        gap_lines = [ln for ln in lines if ln.startswith("# uncovered")]
        payload = json.loads("\n".join(ln for ln in lines if not ln.startswith("# ")))
        sel, qmax = spec["family"], spec["qmax"]
        rows = payload["steps"]
        steps = {Fraction(s["p"], s["q"]): step_from_json(s) for s in rows}
        expect = {Fraction(p, q) for q in range(2, qmax + 1) for p in range(1, q) if Fraction(p, q).denominator == q}
        interior = [Fraction(s["p"], s["q"]) for s in rows if 0 < s["p"] < s["q"]]
        if interior != sorted(expect):
            return "steps are not exactly the reduced p/q with q <= qmax in ascending order"
        empty = Step(None, None, True)
        for pq in interior:
            left, right = farey_parents(pq)
            msg = between_parents(steps[pq], steps.get(left, empty), steps.get(right, empty))
            if msg:
                return f"step {pq}: {msg}"
            if sel in BUILTINS:
                msg = mirror_ok(steps[pq], steps[1 - pq])
                if msg:
                    return f"step {pq}: {msg}"
        if sel == "hmst" and hmst_digest(rows) != HMST_Q40_DIGEST:
            return "hmst exact endpoints for q <= 40 differ from the committed digest"
        if sel not in BUILTINS:
            ref = self.serial_build(sel, qmax)
            for s in rows:
                pq = Fraction(s["p"], s["q"])
                if pq in ref:
                    lo, hi = ref[pq]
                    got_lo, got_hi = steps[pq].lo.exact, steps[pq].hi.exact
                    if got_lo != (lo.a, lo.b, lo.d) or got_hi != (hi.a, hi.b, hi.d):
                        return f"step {pq} differs from the serial library build of the same config"
        if spec.get("gaps"):
            lo, hi = (mpf(x) for x in spec["gaps"].split(","))
            vals = [mpf(ln.rsplit(":", 1)[1]) for ln in gap_lines]
            if not vals:
                return "no gap report"
            if any(v < 0 or v > hi - lo for v in vals) or any(b > a for a, b in zip(vals, vals[1:])):
                return "uncovered mass is not within [0, width] and non-increasing"
        return None

    def _ratio(self, spec, out, outputs):
        payload = json.loads(out)
        sel, alpha = spec["family"], Fraction(spec["alpha"])
        if "ratio" in payload:
            pq = Fraction(payload["ratio"])
            if not self.lib_interval(sel, pq).contains(alpha):
                return f"alpha {alpha} is not in the step of the returned ratio {pq}"
            return None
        lo, hi = (Fraction(x) for x in payload["bracket"])
        a = Ep(mpf(alpha.numerator) / alpha.denominator, (alpha, Fraction(0), 0))
        if lo > 0 and ep_cmp(self.lib_step(sel, lo).hi, a) != -1:
            return "alpha is not right of the bracket's low step"
        if hi < 1 and ep_cmp(a, self.lib_step(sel, hi).lo) != -1:
            return "alpha is not left of the bracket's high step"
        return None

    def _parents(self, sel, pq, x: Step) -> Optional[str]:
        left, right = farey_parents(pq)
        return between_parents(x, self.lib_step(sel, left), self.lib_step(sel, right))

    def _interval(self, spec, out, outputs):
        sel, pq = spec["family"], Fraction(spec["pq"])
        x = step_from_json(json.loads(out))
        msg = self._parents(sel, pq, x)
        if msg is None and sel in BUILTINS:
            msg = mirror_ok(x, self.lib_step(sel, 1 - pq))
        return msg

    def _deep(self, spec, out, outputs):
        sel, pq = spec["family"], Fraction(spec["pq"])
        x = step_from_json(json.loads(out))
        if pq.denominator <= PARENT_CHECK_QMAX:
            msg = self._parents(sel, pq, x)
            if msg:
                return msg
        partner = outputs.get((sel, spec["mirror"]))
        if partner is None:
            return None
        rc, pout = partner
        if rc != 0:
            return None  # the partner request reports its own failure
        return mirror_ok(x, step_from_json(json.loads(pout)))

    def _one_over(self, spec, out, outputs):
        x = step_from_json(json.loads(out))
        lo, hi = one_over_closed_form(spec["n"])
        if x.lo.exact != lo or x.hi.exact != hi:
            return f"1/{spec['n'] + 1} step differs from the closed form"
        return None

    def _oracle(self, spec, out, outputs):
        payload = json.loads(out)
        lower, upper = mpf(payload["lower"]), mpf(payload["upper"])
        slack = 1 + DEC_REL
        if lower > upper * slack:
            return "lower bound above upper bound"
        sel, alpha = spec["family"], Fraction(spec["alpha"])
        key = (sel, alpha)
        if key not in self._jsr:
            r = self.lib_st.ratio_at(self.fam(sel), alpha)
            v = None
            if isinstance(r, Fraction) and 0 < r < 1:
                v = self.lib_rp.varrho_on_interval(self.fam(sel), r, alpha)
            self._jsr[key] = v
        v = self._jsr[key]
        if v is not None and not (lower <= v * slack and v <= upper * slack):
            return f"JSR {mp.nstr(v, 20)} on the known step is outside [lower, upper]"
        return None

    def _hypotheses(self, spec, out, outputs):
        return None if json.loads(out)["overall"] == "pass" else "hypothesis check did not pass"

    def _alpha(self, spec, out, outputs):
        payload = json.loads(out)
        value, radius = mpf(payload["alpha"]), mpf(payload["radius"])
        if spec.get("star") and not payload["alpha"].startswith(ALPHA_STAR_PREFIX):
            return "alpha-star differs from 0.74932654633036755794396194809"
        terms = spec["terms"]
        conv = []
        p0, q0, p1, q1 = 1, 0, 0, 1
        for a in terms:
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
            if q1 > 60:
                break
            conv.append(Fraction(p1, q1))
        below = max((c for c in conv[1::2] if 0 < c < 1), default=None)
        above = min((c for c in conv[0::2] if 0 < c < 1), default=None)
        # The steps of the convergents reach within ~1e-100 of alpha, so the
        # enclosure [value - radius, value + radius] need only meet the gap.
        slack = radius + mpf("1e-70")
        if below is not None and not value + slack > self.lib_step("hmst", below).hi.value:
            return f"alpha lies below the step of convergent {below}"
        if above is not None and not value - slack < self.lib_step("hmst", above).lo.value:
            return f"alpha lies above the step of convergent {above}"
        return None


def run_checks(requests: list[dict], outputs: list[tuple]) -> dict[int, str]:
    """Failure message per request index; ``outputs[i] = (rc, stdout)``."""
    checker = Checker()
    by_key = {}
    for req, (rc, out) in zip(requests, outputs):
        spec = req["check"]
        if spec["kind"] == "deep":
            by_key[(spec["family"], spec["pq"])] = (rc, out)
    failures = {}
    for i, (req, (rc, out)) in enumerate(zip(requests, outputs)):
        msg = checker.check(req, rc, out, by_key)
        if msg:
            failures[i] = msg
    return failures
