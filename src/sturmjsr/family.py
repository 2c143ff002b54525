"""One-parameter matrix families {A0, alpha*A1} and their hypothesis checks.

A family fixes the two generators; the parameter alpha only ever scales A1.
Built-ins cover the three standard examples: the unipotent integer pair
(hmst), the exponential triangular pair (Bousch-Mairesse), and the
triangular contraction pair (Kozyakin).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Optional

from mpmath import mp, mpf, exp as mexp

from .linalg2 import Mat2, _scalar_sign, product_of_word
from .precision import DEFAULT_PREC, MAX_PREC, MIN_PREC, fraction_from_mpf


class FamilyError(ValueError):
    pass


@dataclass(frozen=True)
class MatrixFamily:
    """Pair (A0, A1) with the scaling convention A0 fixed, A1 -> alpha*A1.

    ``asserted_sturmian`` is an explicit assertion that extremal growth
    follows mechanical-word structure; it is never inferred, and results
    for families lacking it are conditional.  ``prec`` is the precision
    float entries are multiplied at; exact entries ignore it.
    """

    a0: Mat2
    a1: Mat2
    label: str = "custom"
    asserted_sturmian: bool = False
    prec: int = DEFAULT_PREC

    def __post_init__(self):
        if self.a0.entries() == self.a1.entries():
            raise FamilyError("generators must differ")

    @cached_property
    def integral(self) -> bool:
        """True when every entry is exact (int, Fraction or QuadExt); such
        families get exact interval endpoints downstream.  Read once per
        family and kept outside the fields, so equality and hashing do not
        see it."""
        return self.a0.is_exact() and self.a1.is_exact()

    def product(self, w: str) -> Mat2:
        with mp.workprec(self.prec):
            return product_of_word(self.a0, self.a1, w)

    def integer_generators(self) -> tuple[tuple[Mat2, int], tuple[Mat2, int]]:
        """((G0, k0), (G1, k1)) with Gi = ki*Ai an integer matrix, ki the
        least positive integer clearing the denominators of Ai's entries.

        Every entry is rational (an mpf is dyadic), so products of the Gi
        are exact integer arithmetic; a product with z zeros and o ones is
        k0^z * k1^o times the product of the Ai.
        """
        out = []
        for m in (self.a0, self.a1):
            entries = [
                Fraction(x) if isinstance(x, (int, Fraction)) else fraction_from_mpf(x)
                for x in m.entries()
            ]
            k = lcm(*(x.denominator for x in entries))
            out.append((Mat2(*(int(x * k) for x in entries)), k))
        return tuple(out)

    def is_hmst(self) -> bool:
        """True when the generators are hmst's, whatever the label."""
        return self.a0.entries() == (1, 1, 0, 1) and self.a1.entries() == (1, 0, 1, 1)

    def is_swap_symmetric(self) -> bool:
        """A1 = J A0 J, J = [[0,1],[1,0]], with int or Fraction entries."""
        a, b, c, d = entries = self.a0.entries()
        exact = all(isinstance(x, (int, Fraction)) for x in entries + self.a1.entries())
        return exact and self.a1.entries() == (d, c, b, a)

    # -- config-file form -------------------------------------------------

    def to_config(self) -> dict:
        def enc(x):
            if isinstance(x, (int, Fraction)):
                f = Fraction(x)
                return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
            return mp.nstr(mpf(x), 40)

        out = {
            "label": self.label,
            "A0": [[enc(self.a0.a), enc(self.a0.b)], [enc(self.a0.c), enc(self.a0.d)]],
            "A1": [[enc(self.a1.a), enc(self.a1.b)], [enc(self.a1.c), enc(self.a1.d)]],
            "asserted_sturmian": self.asserted_sturmian,
        }
        if not self.integral:
            out["prec"] = self.prec
        return out

    @classmethod
    def from_config(cls, cfg: dict) -> "MatrixFamily":
        if not isinstance(cfg, dict):
            raise FamilyError("a family config is a JSON object")
        prec = cfg.get("prec", 0)  # none given: exact entries
        if "prec" in cfg and not (type(prec) is int and MIN_PREC <= prec <= MAX_PREC):
            raise FamilyError(
                f"config 'prec' must be an integer from {MIN_PREC} to {MAX_PREC}, got {prec!r}"
            )

        def dec(s):
            if not prec:
                return Fraction(str(s))
            with mp.workprec(prec):
                if isinstance(s, str) and "/" in s:
                    f = Fraction(s)
                    return mpf(f.numerator) / f.denominator
                return mpf(str(s))

        def matrix(key):
            if key not in cfg:
                raise FamilyError(f"config missing {key!r}")
            rows = cfg[key]
            if not (isinstance(rows, list) and len(rows) == 2
                    and all(isinstance(row, list) and len(row) == 2 for row in rows)):
                raise FamilyError(f"config {key!r} must be two rows of two entries")
            return Mat2(*(dec(x) for row in rows for x in row))

        a0, a1 = matrix("A0"), matrix("A1")
        return cls(
            a0,
            a1,
            label=str(cfg.get("label", "custom")),
            asserted_sturmian=bool(cfg.get("asserted_sturmian", False)),
            prec=prec or DEFAULT_PREC,
        )


def builtin_hmst() -> MatrixFamily:
    """The unipotent integer pair [[1,1],[0,1]], [[1,0],[1,1]] (A0 = A1^T)."""
    return MatrixFamily(
        Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1), label="hmst", asserted_sturmian=True,
    )


def builtin_bousch_mairesse(kappa, h0, h1, prec: int = DEFAULT_PREC) -> MatrixFamily:
    """Exponential triangular pair; needs kappa, h0, h1 > 0 and h0 + h1 < 2."""
    with mp.workprec(prec):
        kappa, h0, h1 = mpf(str(kappa)), mpf(str(h0)), mpf(str(h1))
        if not (kappa > 0 and h0 > 0 and h1 > 0 and h0 + h1 < 2):
            raise FamilyError("need kappa, h0, h1 > 0 and h0 + h1 < 2")
        a0 = Mat2(mexp(kappa * h0) + 1, mpf(0), mexp(kappa), mpf(1))
        a1 = Mat2(mpf(1), mexp(kappa), mpf(0), mexp(kappa * h1) + 1)
    return MatrixFamily(
        a0, a1, label="bousch-mairesse", asserted_sturmian=True, prec=prec,
    )


def builtin_kozyakin(a, b, c, d) -> MatrixFamily:
    """Triangular pair [[a,b],[0,1]], [[1,0],[c,d]] with 0 < a,d < 1 <= bc.

    Only the positive case b, c > 0 is supported; negative b, c would need
    a similarity change of basis that is out of scope here.
    """
    a, b, c, d = (Fraction(str(x)) for x in (a, b, c, d))
    if not (0 < a < 1 and 0 < d < 1 and b > 0 and c > 0 and b * c >= 1):
        raise FamilyError("need 0 < a,d < 1 and b,c > 0 with bc >= 1")
    return MatrixFamily(
        Mat2(a, b, Fraction(0), Fraction(1)),
        Mat2(Fraction(1), Fraction(0), c, d),
        label="kozyakin", asserted_sturmian=True,
    )


BUILTINS = {
    "hmst": lambda prec: builtin_hmst(),
    "kozyakin": lambda prec: builtin_kozyakin(Fraction(1, 2), 1, 1, Fraction(1, 2)),
    "bousch-mairesse": lambda prec: builtin_bousch_mairesse(1, "0.5", "0.5", prec),
}


def resolve_family(selector: str, prec: int = DEFAULT_PREC) -> MatrixFamily:
    """Builtin name or path to a JSON family config; a builtin with float
    entries is built at ``prec`` bits.  A builtin is built once per
    (name, prec) in a process.  A config file's bytes are read on every
    call, since the file can change between calls, and parsed and built
    only when they differ from every recent read's."""
    if selector in BUILTINS:
        return _builtin(selector, prec)
    with open(selector, "rb") as fh:
        return _config_family(fh.read())


@lru_cache(maxsize=32)
def _builtin(name: str, prec: int) -> MatrixFamily:
    return BUILTINS[name](prec)


@lru_cache(maxsize=32)
def _config_family(data: bytes) -> MatrixFamily:
    # decoded as open(path) decodes, so that a malformed file's error reads alike
    return MatrixFamily.from_config(json.load(io.TextIOWrapper(io.BytesIO(data))))


def dual_family(fam: MatrixFamily) -> MatrixFamily:
    """Swap the roles of the generators.

    The ratio function of the swapped family, evaluated at 1/alpha, is the
    complement of the original: r(alpha) = 1 - r_swapped(1/alpha).
    """
    return MatrixFamily(
        fam.a1, fam.a0, label=f"dual({fam.label})",
        asserted_sturmian=fam.asserted_sturmian, prec=fam.prec,
    )


# ---------------------------------------------------------------------------
# technical hypothesis checks


@dataclass
class HypothesisReport:
    """Per-condition verdicts; ``overall`` passes only if every checked
    condition passed (unchecked conditions stay None and do not fail it).
    """

    nonnegative: Optional[bool] = None
    invertible: Optional[bool] = None
    positive_trace: Optional[bool] = None
    no_common_invariant_subspace: Optional[bool] = None
    mixed_products_positive: Optional[bool] = None
    mixed_positivity_method: str = ""
    condition_v_spot: Optional[bool] = None
    condition_v_detail: str = "not checked"
    notes: list[str] = field(default_factory=list)

    @property
    def overall(self) -> str:
        checked = [
            v
            for v in (
                self.nonnegative,
                self.invertible,
                self.positive_trace,
                self.no_common_invariant_subspace,
                self.mixed_products_positive,
                self.condition_v_spot,
            )
            if v is not None
        ]
        if not checked:
            return "indeterminate"
        return "pass" if all(checked) else "fail"


def _is_zero(x, tol=None) -> bool:
    """Exact zero test, or |x| <= tol for float families."""
    if tol is None:
        return _scalar_sign(x) == 0
    return abs(x) <= tol


def _eigendirection_quadratic(m: Mat2) -> tuple:
    """Coefficients (c2, c1, c0) of the quadratic whose projective roots
    are the invariant directions (x : 1), plus the (1 : 0) special case
    encoded by c2 == 0."""
    return (m.c, m.d - m.a, -m.b)


def _have_common_invariant_subspace(a0: Mat2, a1: Mat2, tol=None) -> bool:
    """2x2 case: a common invariant subspace is a common eigendirection.

    The invariant directions of each matrix are the roots of a quadratic
    form; a common direction exists iff the two quadratics have a common
    root, detected by the resultant.  A matrix that is scalar makes every
    direction invariant.
    """
    qa, qb = _eigendirection_quadratic(a0), _eigendirection_quadratic(a1)
    if all(_is_zero(c, tol) for c in qa) or all(_is_zero(c, tol) for c in qb):
        return True  # scalar matrix: shares any eigendirection of the other
    a2, a1c, a0c = qa
    b2, b1, b0 = qb
    resultant = (
        (a2 * b0 - a0c * b2) ** 2 - (a2 * b1 - a1c * b2) * (a1c * b0 - a0c * b1)
    )
    return _is_zero(resultant, tol)


def check_technical_hypotheses(fam: MatrixFamily, depth: int = 8) -> HypothesisReport:
    """Verify the checkable structural conditions on the generators.

    Nonnegativity, invertibility, positive traces, and absence of a common
    invariant subspace are decided outright (exactly for integral
    families).  Positivity of every mixed product is verified by the
    closed criterion -- strictly positive diagonals plus positive A0*A1 and
    A1*A0 force every mixed product positive, because a positive-diagonal
    factor preserves positivity and every mixed word contains an adjacent
    01 or 10 -- and falls back to exhaustive enumeration up to ``depth``
    when the criterion does not apply.  Extremality spot checks are a
    separate, costlier concern; see the oracle module.
    """
    if depth < 2:
        raise FamilyError("need depth >= 2")
    rep = HypothesisReport()
    a0, a1 = fam.a0, fam.a1
    rep.nonnegative = a0.is_nonnegative() and a1.is_nonnegative()
    tol = None
    if not fam.integral:
        with mp.workprec(fam.prec):
            scale = max(abs(mpf(x)) for x in a0.entries() + a1.entries())
            tol = scale * scale * mpf(2) ** (-fam.prec + 24)
    d0, d1 = a0.det(), a1.det()
    rep.invertible = not (_is_zero(d0, tol) or _is_zero(d1, tol))
    rep.positive_trace = _scalar_sign(a0.trace()) > 0 and _scalar_sign(a1.trace()) > 0
    rep.no_common_invariant_subspace = not _have_common_invariant_subspace(a0, a1, tol)

    diag_pos = all(_scalar_sign(x) > 0 for x in (a0.a, a0.d, a1.a, a1.d))
    if diag_pos and (a0 @ a1).is_positive() and (a1 @ a0).is_positive():
        rep.mixed_products_positive = True
        rep.mixed_positivity_method = "positive-diagonal criterion"
    else:
        ok = True
        for n in range(2, depth + 1):
            for bits in range(1, 2 ** n - 1):  # skip pure words 0^n, 1^n
                w = format(bits, f"0{n}b")
                if not fam.product(w).is_positive():
                    ok = False
                    rep.notes.append(f"non-positive mixed product at word {w}")
                    break
            if not ok:
                break
        rep.mixed_products_positive = ok
        rep.mixed_positivity_method = f"exhaustive to depth {depth}"
    return rep
