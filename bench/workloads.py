"""Seeded request lists for the four workloads.

A request is a dict with the CLI ``argv`` and the ``check`` spec that
checks.py applies to its output.  Every list
is a pure function of (workload, seed): the generators below use only their
own ``random.Random`` and exact integer arithmetic, never the program.  See
README.md in this directory for why each workload and each fixed
(pathological) request is there.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import gcd, isqrt

WORKLOADS = ("staircase", "deep-steps", "oracle", "irrational")
BUILTINS = ("hmst", "kozyakin", "bousch-mairesse")

# sha256 of the exact endpoints of every hmst step with q <= 40, one line
# "p/q|lo.a|lo.b|lo.D|hi.a|hi.b|hi.D" per step in ascending order, as
# printed by `staircase --format json` at the commit that added this
# benchmark.  Any change to one of these answers fails the check.
HMST_Q40_DIGEST = "4aae86095377fc1f6a96d4c57ce624c13a192e87c974c8229363b8fc590e1d1c"
DIGEST_QMAX = 40

ALPHA_STAR_PREFIX = "0.74932654633036755794396194809"

# bousch-mairesse endpoints carry a claimed radius near 1e-73 but are off
# by about 1e-16: part of the product is rounded at mpmath's ambient
# 53-bit precision.  The mirror identity r^-1(11/14) = 1/r^-1(3/14) shows it.
BM_PRECISION_PROBE = {
    "name": "bousch-mairesse endpoints are off by ~1e-16 against a claimed radius ~1e-73",
    "argv": ["interval", "3/14", "--family", "bousch-mairesse", "--format", "json"],
    "check": {"kind": "interval", "family": "bousch-mairesse", "pq": "3/14"},
}


def make_plan(workload: str, seed: int, work_rel: str) -> dict:
    """Requests, family-config files and known-defect probes of one run."""
    rng = random.Random(f"{workload}:{seed}")
    gen = {
        "staircase": _staircase,
        "deep-steps": _deep_steps,
        "oracle": _oracle,
        "irrational": _irrational,
    }[workload]
    plan = {"workload": workload, "seed": seed, "requests": [], "files": {}, "probes": []}
    gen(rng, work_rel, plan)
    return plan


def _req(plan, argv, **check):
    plan["requests"].append({"argv": [str(a) for a in argv], "check": check})


def _coprime(rng, q, lo_frac=0.0, hi_frac=1.0):
    """Random p with gcd(p, q) = 1 and lo_frac < p/q < hi_frac."""
    lo, hi = max(1, math.floor(q * lo_frac) + 1), min(q - 1, math.ceil(q * hi_frac) - 1)
    while True:
        p = rng.randint(lo, hi)
        if gcd(p, q) == 1:
            return p


def _band(rng, lo, hi, k, n) -> int:
    """Random integer in the k-th of n equal bands of [lo, hi]."""
    width = hi - lo + 1
    return rng.randint(lo + width * k // n, lo + width * (k + 1) // n - 1)


def _alpha(rng, lo, hi) -> str:
    """Log-uniform rational parameter in [lo, hi], three decimals."""
    x = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return str(Fraction(round(x * 1000), 1000))


# ---------------------------------------------------------------------------
# staircase: builds sharing one Stern-Brocot tree, each followed by a burst


def _kozyakin_config(rng, label):
    """A0 = [[2/3, b], [0, 1]], A1 = [[1, 0], [c, d]] with b*c = 2.  Of the
    26 configs with a, d in {1/2, 1/3, 2/3} and b*c <= 2, these six have
    bursts of like cost (p50 4.1-4.5 ms, p90 7.0-8.0 ms; the others range
    3.4-6.8 and 5.4-17 ms), so that the config the seed picks does not set
    the workload's latency."""
    a, d = "2/3", rng.choice(["1/2", "1/3", "2/3"])
    b, c = rng.choice([("1", "2"), ("2", "1")])
    return {
        "label": label,
        "A0": [[a, b], ["0", "1"]],
        "A1": [["1", "0"], [c, d]],
        "asserted_sturmian": True,
    }


def _burst(rng, plan, family, qmax, alpha_range, n_ratio=40, n_interval=12):
    """Stratified, so that a burst costs about the same for every seed: one
    alpha in each of n_ratio equal log-bands of alpha_range, one q in each
    of n_interval equal bands of [2, qmax]."""
    lo, hi = (math.log(x) for x in alpha_range)
    for k in range(n_ratio):
        band = (math.exp(lo + (hi - lo) * k / n_ratio), math.exp(lo + (hi - lo) * (k + 1) / n_ratio))
        a = _alpha(rng, *band)
        _req(plan, ["ratio", a, "--family", family, "--format", "json"],
             kind="ratio", family=family, alpha=a)
    for k in range(n_interval):
        q = _band(rng, 2, qmax, k, n_interval)
        p = _coprime(rng, q)
        _req(plan, ["interval", f"{p}/{q}", "--family", family, "--format", "json"],
             kind="interval", family=family, pq=f"{p}/{q}")


def _staircase(rng, work_rel, plan):
    koz = _kozyakin_config(rng, "kozyakin-type")
    koz_path = f"{work_rel}/kozyakin-type.json"
    plan["files"][koz_path] = koz
    for rnd in range(2):
        qmax = 45
        argv = ["staircase", "--family", "hmst", "--qmax", qmax, "--format", "json"]
        gaps = None
        if rnd % 2:
            lo = rng.choice(["0.3", "0.5", "0.7"])
            gaps = f"{lo},{float(lo) + rng.choice([0.2, 0.3, 0.4]):.1f}"
            argv += ["--gaps", gaps]
        _req(plan, argv, kind="build", family="hmst", qmax=qmax, gaps=gaps)
        _burst(rng, plan, "hmst", qmax, (0.2, 5.0))
        _req(plan, ["staircase", "--family", koz_path, "--qmax", 16, "--format", "json"],
             kind="build", family=koz_path, qmax=16, gaps=None)
        _burst(rng, plan, koz_path, 16, (0.2, 5.0))
        # bousch-mairesse endpoints are a known defect (BM_PRECISION_PROBE),
        # so this float family takes only ratio queries here.
        _burst(rng, plan, "bousch-mairesse", 2, (0.2, 5.0), n_ratio=40, n_interval=0)
    # Known defects, run untimed after the timed phase (see README.md).
    bad = dict(koz, label="kozyakin")
    bad_path = f"{work_rel}/kozyakin-labelled.json"
    plan["files"][bad_path] = bad
    plan["probes"] = [
        BM_PRECISION_PROBE,
        {"name": "bousch-mairesse staircase at qmax 20 exits 2 (steps touch near 3/14)",
         "argv": ["staircase", "--family", "bousch-mairesse", "--qmax", "20", "--format", "json"],
         "check": {"kind": "build", "family": "bousch-mairesse", "qmax": 20, "gaps": None}},
        {"name": "pooled staircase of a config labelled 'kozyakin' returns the builtin's steps",
         "argv": ["staircase", "--family", bad_path, "--qmax", "20", "--format", "json"],
         "check": {"kind": "build", "family": bad_path, "qmax": 20, "gaps": None}},
    ]


# ---------------------------------------------------------------------------
# deep-steps: independent exact intervals at large q, in mirror pairs


def _pair(rng, plan, family, q, lo_frac=0.2, hi_frac=0.5):
    p = _coprime(rng, q, lo_frac, hi_frac)
    for num in (p, q - p):
        _req(plan, ["interval", f"{num}/{q}", "--family", family, "--exact", "--format", "json"],
             kind="deep", family=family, pq=f"{num}/{q}", mirror=f"{q - num}/{q}")


def _deep_steps(rng, work_rel, plan):
    # q is stratified (one per equal band), so that p50, which falls among
    # the hmst and Kozyakin pairs, does not move with the seed.
    for k in range(15):
        _pair(rng, plan, "hmst", _band(rng, 60, 100, k, 15))
    for k in range(12):
        _pair(rng, plan, "kozyakin", _band(rng, 40, 80, k, 12))
    for k in range(7):  # a band of like-cost requests that holds p90
        _pair(rng, plan, "hmst", _band(rng, 120, 130, k, 7), 0.3, 0.5)
    for k in range(26):
        n = _band(rng, 10, 300, k, 26)
        _req(plan, ["interval", f"1/{n + 1}", "--exact", "--format", "json"],
             kind="one_over", n=n)
    # Narrow q and p/q bands keep the heavy requests' cost seed-independent.
    _pair(rng, plan, "hmst", rng.randint(195, 205), 0.3, 0.5)
    _pair(rng, plan, "kozyakin", rng.randint(135, 145), 0.3, 0.5)
    for num in (137, 213):  # fixed pathological pair at q = 350
        _req(plan, ["interval", f"{num}/350", "--exact", "--format", "json"], kind="deep",
             family="hmst", pq=f"{num}/350", mirror=f"{350 - num}/350")
    plan["probes"] = [
        BM_PRECISION_PROBE,
        {"name": "exact endpoints over 4300 digits: `interval 53/150 --exact` exits 2",
         "argv": ["interval", "53/150", "--exact", "--format", "json"],
         "check": {"kind": "deep", "family": "hmst", "pq": "53/150", "mirror": "97/150"}},
    ]


# ---------------------------------------------------------------------------
# oracle: exhaustive JSR bounds, 2^L words per call


def _oracle(rng, work_rel, plan):
    # maxlen sets the cost (2^maxlen products).  Per pass: 3 heavy slots,
    # then 6 at maxlen 9 where p90 falls, 18 at maxlen 8 where p50 falls,
    # and 13 cheap `check` requests.
    slots = [(13, "hmst", 1), (11, "bousch-mairesse", 1), (10, "kozyakin", 1)]
    slots += [(9, f, 2) for f in BUILTINS] + [(8, f, 6) for f in BUILTINS]
    for maxlen, family, count in slots:
        for _ in range(count):
            a = _alpha(rng, 0.3, 3.0)
            _req(plan, ["oracle", a, "--maxlen", maxlen, "--family", family, "--format", "json"],
                 kind="oracle", family=family, alpha=a)
    for i in range(13):
        family = BUILTINS[i % 3]
        _req(plan, ["check", family, "--spot-check", "--format", "json"], kind="hypotheses")
    rng.shuffle(plan["requests"])


# ---------------------------------------------------------------------------
# irrational: certified parameters of irrational ratios


def _effective(coeffs):
    """The expansion the library computes with: [1, a2, ...] becomes the
    complemented [a2 + 1, a3, ...]."""
    return [coeffs[1] + 1] + coeffs[2:] if coeffs[0] == 1 else coeffs


def _q(coeffs, n):
    q0, q1 = 0, 1
    for a in coeffs[:n]:
        q0, q1 = q1, a * q1 + q0
    return q1


def _periodic_terms(pre, per, n=40):
    out = list(pre)
    while len(out) < n:
        out += per
    return out[:n]


def _cf_of_fraction(x: Fraction, n: int) -> list[int]:
    out = []
    for _ in range(n):
        x = 1 / x
        a = x.numerator // x.denominator
        out.append(a)
        x -= a
    return out


def _quadratic_value(a: Fraction, b: Fraction, d: int) -> Fraction:
    """a + b*sqrt(d) to 200 digits, far beyond the 40 terms used."""
    scale = 10 ** 200
    return a + b * Fraction(isqrt(d * scale * scale), scale)


def _quadratic_terms(a, b, d) -> list[int]:
    return _cf_of_fraction(_quadratic_value(a, b, d), 40)


def _quadratic(rng, max_pq=5):
    """Seeded x = s*sqrt(D)/m - k in (0, 1) with partial quotients <= max_pq;
    returns (a, b, D, first 40 partial quotients, exact 100-digit decimal)."""
    while True:
        d = rng.randint(2, 60)
        if isqrt(d) ** 2 == d:
            continue
        b = Fraction(rng.choice([1, -1]), rng.choice([1, 2, 3]))
        val = _quadratic_value(Fraction(0), b, d)
        a = Fraction(-(val.numerator // val.denominator))
        x = a + val
        terms = _cf_of_fraction(x, 40)
        if max(terms) <= max_pq:
            digits = str(x.numerator * 10 ** 100 // x.denominator).zfill(100)
            return a, b, d, terms, "0." + digits


# Fixed requests carry most of the time; ten alpha-star requests at 950 to
# 1200 digits form a band of like cost that holds p90.  The other seeded
# requests are light: 30-60 digits, where the first rho_sequence build (9
# terms) usually suffices and its cost follows q_9, which the bins control,
# and quadratic irrationals with partial quotients <= 3.
FIXED_IRRATIONAL = [
    ["alpha", "--cf", "5;period=1", "--digits", "30"],  # pathological: q_9 = 2.6e6
    ["alpha", "--cf", "1;period=1", "--digits", "1000"],  # golden ratio, 1000 digits
    ["alpha", "--cf", "2,2;period=1", "--digits", "548"],
    ["alpha", "--cf", "2,1,4;period=3", "--digits", "192"],
    ["alpha", "--cf", "4,4,4;period=3", "--digits", "126"],
    ["alpha", "--cf", "4;period=1", "--digits", "80"],
    ["alpha", "--quadratic=3,-1/3,45"],
]
CF_BINS = [(0.0, 3.0, 14), (3.0, 4.0, 12), (4.0, 5.0, 8)]  # log10(q_9) bins, count


def _irrational(rng, work_rel, plan):
    for argv in FIXED_IRRATIONAL:
        spec = argv[2] if argv[1] == "--cf" else None
        if spec is not None:
            body, period = spec.split(";period=")
            coeffs = [int(x) for x in body.split(",")]
            cut = len(coeffs) - int(period)
            terms = _periodic_terms(coeffs[:cut], coeffs[cut:])
        else:
            terms = _quadratic_terms(Fraction(3), Fraction(-1, 3), 45)
        _req(plan, argv + ["--format", "json"], kind="alpha", terms=terms)
    for k in range(12):  # a band of like-cost requests that holds p90
        digits = _band(rng, 950, 1200, k, 12)
        _req(plan, ["alpha-star", "--digits", digits, "--format", "json"],
             kind="alpha", terms=[2] + [1] * 39, star=True)
    for lo, hi, count in CF_BINS:
        made = 0
        while made < count:
            pre = [rng.randint(1, 5) for _ in range(rng.randint(0, 2))]
            per = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
            terms = _periodic_terms(pre, per)
            if not lo <= math.log10(_q(_effective(terms), 9)) < hi:
                continue
            spec = ",".join(map(str, pre + per)) + f";period={len(per)}"
            digits = _band(rng, 30, 60, made, count)
            _req(plan, ["alpha", "--cf", spec, "--digits", digits, "--format", "json"],
                 kind="alpha", terms=terms)
            made += 1
    for _ in range(8):
        a, b, d, terms, _ = _quadratic(rng, max_pq=3)
        _req(plan, ["alpha", f"--quadratic={a},{b},{d}", "--format", "json"],
             kind="alpha", terms=terms)
    for _ in range(8):
        _, _, _, terms, dec = _quadratic(rng, max_pq=3)
        _req(plan, ["alpha", "--decimal", dec[:82], "--format", "json"],
             kind="alpha", terms=terms)
    rng.shuffle(plan["requests"])
