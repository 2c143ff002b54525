"""Command-line interface.

Subcommands: interval, alpha, alpha-star, staircase, ratio, oracle,
check.  Exit codes: 0 success, 2 domain error, 3 precision or
certification failure, 4 hypothesis failure.  Output is deterministic for
identical invocations, and every printed decimal carries its precision or
rigor annotation.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from contextlib import contextmanager
from fractions import Fraction

from mpmath import mp, mpf

from . import __version__
from .contfrac import (
    CertificationError,
    CFExpansion,
    CoefficientsExhausted,
    cf_of_quadratic,
    cf_of_rational,
    cf_of_real,
)
from .family import check_technical_hypotheses, resolve_family
from .irrational_preimage import PrecisionError, alpha_for_irrational
from .oracle import jsr_bounds, spot_check_condition_v
from .precision import (
    DEFAULT_PREC,
    MAX_PREC,
    MIN_PREC,
    Ball,
    decimal_str,
    json_text,
    mpf_from_fraction,
)
from .rational_preimage import EndpointPrecisionError, preimage_one, preimage_zero
from .staircase import RatioBracket, build_staircase, gap_residuals, ratio_at, render, step_of

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_PRECISION = 3
EXIT_HYPOTHESIS = 4


class CliError(Exception):
    def __init__(self, code: int, msg: str):
        super().__init__(msg)
        self.code = code


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)  # accepts both 'p/q' and decimal strings, exactly
    except (ValueError, ZeroDivisionError) as e:
        raise CliError(EXIT_DOMAIN, f"bad fraction {text!r}: {e}") from None


def _window(text: str | None, flag: str, nonnegative: bool = False) -> tuple[str, str] | None:
    """A 'lo,hi' option value as its two strings, checked to parse with
    lo < hi, and 0 <= lo when ``nonnegative``."""
    if not text:
        return None
    parts = text.split(",")
    need = "0 <= lo < hi" if nonnegative else "lo < hi"
    try:
        if len(parts) != 2:
            raise ValueError
        with mp.workprec(DEFAULT_PREC):
            lo, hi = mpf(parts[0]), mpf(parts[1])
        if not (lo < hi and (lo >= 0 or not nonnegative)):
            raise ValueError
    except ValueError:
        raise CliError(EXIT_DOMAIN, f"{flag} must be 'lo,hi' with {need}, got {text!r}") from None
    return parts[0], parts[1]


@contextmanager
def _unlimited_int_digits():
    """Lift CPython's int-to-str digit limit while computed output is
    formatted: exact endpoints reach tens of thousands of digits.  Parsing
    of user input stays under the default limit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json_text(payload))
    else:
        print(text)


def cmd_interval(args) -> int:
    fam = resolve_family(args.family, args.prec)
    pq = _fraction(args.fraction)
    if pq == 0:
        iv = preimage_zero(fam, args.prec)
    elif pq == 1:
        iv = preimage_one(fam, args.prec)
    else:
        iv = step_of(fam, pq, args.prec)
    with _unlimited_int_digits():
        if args.format == "json":  # format only the form that is emitted
            print(json_text(iv.as_json()))
            return EXIT_OK
        if iv.empty:
            text = "{} (empty)"
        elif iv.degenerate:
            text = "{0}"
        else:
            def shown(ep, unbounded: str) -> str:
                if ep is None:
                    return unbounded
                if args.exact and ep.exact is not None:
                    return repr(ep.exact)
                return decimal_str(ep.value, args.prec, ep.radius)

            lo, hi = shown(iv.lo, "0"), shown(iv.hi, "+inf")
            bounded = iv.lo or iv.hi  # the ratio-0 step has only hi
            text = f"[{lo}, {hi}]  (prec={args.prec} bits, exact={'yes' if bounded.exact is not None else 'no'})"
        print(text)
    return EXIT_OK


def _parse_gamma(args, prec: int) -> CFExpansion:
    given = [x is not None for x in (args.cf, args.quadratic, args.decimal)]
    if sum(given) != 1:
        raise CliError(EXIT_DOMAIN, "give exactly one of --cf, --quadratic, --decimal")
    if args.cf is not None:
        cf = CFExpansion.parse(args.cf)
        if cf.is_finite:  # a list without a period is a prefix of gamma
            cf = CFExpansion.from_list(cf.prefix(), prefix_only=True)
        return cf
    if args.quadratic is not None:
        try:
            a_s, b_s, d_s = args.quadratic.split(",")
            return cf_of_quadratic(_fraction(a_s), _fraction(b_s), int(d_s))
        except ValueError as e:
            raise CliError(EXIT_DOMAIN, f"bad quadratic spec: {e}") from None
    val_s, _, rad_s = args.decimal.partition("±")
    if not rad_s:
        val_s, _, rad_s = args.decimal.partition("+-")
    exact = _fraction(val_s.strip())
    with mp.workprec(prec):
        val = mpf_from_fraction(exact, prec)
        rad = mpf_from_fraction(_fraction(rad_s.strip()), prec) if rad_s else mpf(2) ** (-prec + 8)
        ball = Ball(val, rad)
    want = 40 if args.terms is None else args.terms + 2  # index N reads N + 2 terms
    try:
        return cf_of_real(ball, want)
    except CertificationError as e:
        if e.index > 4:
            return cf_of_real(ball, e.index - 1)  # keep the certified prefix
        # a rational value whose whole expansion fits in the certified terms
        # is gamma itself: alpha_for_irrational refuses a finite expansion
        if not rad_s and 0 < exact < 1 and len(cf_of_rational(exact).prefix()) <= e.index:
            return cf_of_rational(exact)
        raise CliError(EXIT_PRECISION, f"cannot certify expansion: {e}") from None


def cmd_alpha(args) -> int:
    fam = resolve_family(args.family, args.prec)
    prec = args.prec
    cf = _parse_gamma(args, max(prec, 64 + int((args.digits or 30) * 3.33)))
    res = alpha_for_irrational(fam, cf, digits=args.digits, terms=args.terms)
    digits = args.digits or 30
    with _unlimited_int_digits():  # a deep alpha and its radius exceed the limit
        payload = res.as_json()
        text = (
            f"alpha = {mp.nstr(res.value, digits)}\n"
            f"radius <= {mp.nstr(res.error_radius, 4)} "
            f"({'rigorous' if res.rigorous else 'heuristic'}), N = {res.terms_used}"
        )
    if args.quadratic is not None:
        a_s, b_s, d_s = args.quadratic.split(",")
        payload["gamma"] = {"quadratic": {"a": a_s, "b": b_s, "D": int(d_s)}}
    else:
        shown = []  # 24 terms, or every term of a shorter stream
        for k in range(1, 25):
            try:
                shown.append(cf.coefficient(k))
            except CoefficientsExhausted:
                break
        payload["gamma"] = {"cf": shown}
        if cf.period is not None:
            payload["gamma"]["period"] = cf.period
    if res.certificate:
        text += f", certificate (L,K,n0,C0) = ({res.certificate.L},{res.certificate.K},{res.certificate.n0},{res.certificate.C0})"
    _emit(args, payload, text)
    return EXIT_OK


def cmd_staircase(args) -> int:
    window, gaps = _window(args.range, "--range"), _window(args.gaps, "--gaps", nonnegative=True)
    fam = resolve_family(args.family, args.prec)
    st = build_staircase(fam, args.qmax, args.prec)
    fmt = args.format if args.format in ("csv", "json") else "csv"
    with _unlimited_int_digits():
        text = render(st, fmt, midpoint_samples=args.midpoints, alpha_range=window)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(st.all_rows())} steps to {args.out}")
    else:
        print(text, end="")
    if gaps:
        levels = sorted({q for q in (5, 10, 20, st.qmax) if 2 <= q <= st.qmax})
        for q, r in sorted(gap_residuals(st, gaps, levels).items()):
            print(f"# uncovered in [{args.gaps}] at qmax={q}: {mp.nstr(r, 8)}")
    return EXIT_OK


def cmd_ratio(args) -> int:
    fam = resolve_family(args.family, args.prec)
    alpha = _fraction(args.alpha)
    result = ratio_at(fam, alpha, depth=args.depth, prec=args.prec)
    if isinstance(result, RatioBracket):
        payload = {
            "bracket": [str(result.low), str(result.high)],
            "cf_prefix": list(result.cf_prefix),
            "depth": args.depth,
        }
        text = (
            f"ratio in ({result.low}, {result.high}); "
            f"certified cf prefix {list(result.cf_prefix)} (depth {args.depth})"
        )
    else:
        payload = {"ratio": str(result)}
        text = str(result)
    _emit(args, payload, text)
    return EXIT_OK


def cmd_oracle(args) -> int:
    fam = resolve_family(args.family, args.prec)
    alpha = _fraction(args.alpha)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bound = jsr_bounds(fam, alpha, args.maxlen, args.prec)
    for w in caught:  # the cost warning as one line, not Python's two
        print(f"warning: {w.message}", file=sys.stderr)
    text = (
        f"word {bound.lower_witness} slope "
        f"{bound.lower_witness.count('1')}/{len(bound.lower_witness)} "
        f"value {decimal_str(bound.lower, args.prec)}\n"
        f"upper {decimal_str(bound.upper, args.prec)} ({bound.upper_norm} norm)\n"
        f"gap {mp.nstr(bound.upper - bound.lower, 6)}  (maxlen {args.maxlen}, prec {args.prec})"
    )
    _emit(args, bound.as_json(), text)
    return EXIT_OK


def cmd_check(args) -> int:
    if args.family_pos and args.family:
        raise CliError(EXIT_DOMAIN, "give the family once: positionally or by --family")
    fam = resolve_family(args.family_pos or args.family or "hmst", args.prec)
    rep = check_technical_hypotheses(fam, depth=args.depth_check)
    if args.spot_check:
        vrep = spot_check_condition_v(fam, Fraction(1, 2), max_len=8, prec=args.prec)
        rep.condition_v_spot = vrep.passed
        rep.condition_v_detail = (
            f"{'pass' if vrep.passed else 'fail'} at alpha midpoint of the 1/2 step, "
            f"{vrep.checked} words"
        )
    lines = [
        f"nonnegative: {rep.nonnegative}",
        f"invertible: {rep.invertible}",
        f"positive trace: {rep.positive_trace}",
        f"no common invariant subspace: {rep.no_common_invariant_subspace}",
        f"mixed products positive: {rep.mixed_products_positive} ({rep.mixed_positivity_method})",
        f"extremality spot check: {rep.condition_v_detail}",
        f"overall: {rep.overall.upper()}",
    ]
    payload = {
        "nonnegative": rep.nonnegative,
        "invertible": rep.invertible,
        "positive_trace": rep.positive_trace,
        "no_common_invariant_subspace": rep.no_common_invariant_subspace,
        "mixed_products_positive": rep.mixed_products_positive,
        "method": rep.mixed_positivity_method,
        "condition_v_spot": rep.condition_v_spot,
        "overall": rep.overall,
    }
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if rep.overall == "pass" else EXIT_HYPOTHESIS


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


@functools.cache  # built once per process; parsing leaves them unchanged
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each subcommand's own parser by name."""
    ap = argparse.ArgumentParser(
        prog="sturmjsr",
        description=(
            "Exact joint spectral radius structure of one-parameter "
            "families {A0, alpha*A1} with mechanical-word extremality"
        ),
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    def common(sub, maxlen=False, depth=False):
        sub.add_argument(
            "--family", default="hmst",
            help="builtin family (hmst, kozyakin, bousch-mairesse) or JSON config path",
        )
        sub.add_argument(
            "--prec", type=int, default=256,
            help=f"working precision, bits ({MIN_PREC} to {MAX_PREC})",
        )
        sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
        if maxlen:
            sub.add_argument("--maxlen", type=int, default=12, help="word length cap (<= 20)")
        if depth:
            sub.add_argument("--depth", type=int, default=32, help="mediant descent depth")

    sp = ap.add_subparsers(dest="command", required=True)

    p = sp.add_parser("interval", help="parameter interval of a rational ratio")
    p.add_argument("fraction", help="ratio p/q in [0, 1]")
    p.add_argument("--exact", action="store_true", help="print exact quadratic endpoints")
    common(p)
    p.set_defaults(fn=cmd_interval)

    p = sp.add_parser("alpha", help="unique parameter of an irrational ratio")
    p.add_argument("--cf", help="coefficients, e.g. '2,1;period=1'")
    p.add_argument("--quadratic", help="a,b,D meaning a + b*sqrt(D)")
    p.add_argument("--decimal", help="decimal value, optionally 'value±radius'")
    p.add_argument("--digits", type=int, default=None, help="decimal accuracy target")
    p.add_argument("--terms", type=int, default=None, help="explicit truncation index")
    common(p)
    p.set_defaults(fn=cmd_alpha)

    p = sp.add_parser("alpha-star", help="the classic non-finiteness parameter")
    p.add_argument("--digits", type=int, default=29)
    common(p)
    p.set_defaults(fn=cmd_alpha, cf="2,1;period=1", quadratic=None, decimal=None, terms=None)

    p = sp.add_parser("staircase", help="all rational steps up to a denominator cap")
    p.add_argument("--qmax", type=int, default=20)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--gaps", help="report uncovered mass in 'lo,hi'")
    p.add_argument("--range", help="restrict exported steps to 'lo,hi'")
    p.add_argument("--midpoints", action="store_true", help="append midpoint sample rows")
    common(p)
    p.set_defaults(fn=cmd_staircase)

    p = sp.add_parser("ratio", help="ratio-function value at a parameter")
    p.add_argument("alpha", help="parameter, decimal or fraction")
    common(p, depth=True)
    p.set_defaults(fn=cmd_ratio)

    p = sp.add_parser("oracle", help="brute-force JSR bounds at a parameter")
    p.add_argument("alpha", help="parameter, decimal or fraction")
    common(p, maxlen=True)
    p.set_defaults(fn=cmd_oracle)

    p = sp.add_parser("check", help="verify the structural hypotheses of a family")
    p.add_argument("family_pos", nargs="?", help="family, positional alternative to --family")
    p.add_argument("--depth-check", type=int, default=8, help="mixed-word enumeration depth")
    p.add_argument("--spot-check", action="store_true", help="also spot-check extremality")
    common(p)
    p.set_defaults(fn=cmd_check, family=None)  # None: a clash with family_pos shows
    return ap, sp.choices  # the subparsers action's name -> parser map


def parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, by the parser of the subcommand
    that argv names when it names one and leaves no argument over: the
    same Namespace in about half the time.  Anything else goes to the full
    parser, for its own help, version and errors."""
    full, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return full.parse_args(argv)


# The exit code of every failure a request can meet; the first match wins,
# so the precision classes, which derive from ValueError, come first.
_EXIT_CODES = (
    (EndpointPrecisionError, EXIT_PRECISION),
    (PrecisionError, EXIT_PRECISION),
    (CoefficientsExhausted, EXIT_PRECISION),
    (ValueError, EXIT_DOMAIN),  # domain errors of every module, a malformed config
    (OSError, EXIT_DOMAIN),  # an unreadable --family, an unwritable --out
)


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else list(argv))
    try:
        if not MIN_PREC <= args.prec <= MAX_PREC:
            raise CliError(EXIT_DOMAIN, f"--prec must be between {MIN_PREC} and {MAX_PREC}")
        if getattr(args, "digits", None) is not None and args.digits < 1:
            raise CliError(EXIT_DOMAIN, "--digits must be at least 1")
        if getattr(args, "terms", None) is not None and args.terms < 0:  # before --decimal reads N + 2
            raise CliError(EXIT_DOMAIN, "need terms >= 0")
        return args.fn(args)
    except (CliError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, CliError):
            return e.code
        return next(code for kind, code in _EXIT_CODES if isinstance(e, kind))


if __name__ == "__main__":
    sys.exit(main())
