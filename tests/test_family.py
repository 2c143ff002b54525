import dataclasses
import json
from fractions import Fraction

import pytest
from mpmath import exp as mexp
from mpmath import mp, mpf

from sturmjsr.family import (
    FamilyError,
    MatrixFamily,
    builtin_bousch_mairesse,
    builtin_hmst,
    builtin_kozyakin,
    check_technical_hypotheses,
    dual_family,
    resolve_family,
)
from sturmjsr.linalg2 import Mat2


def test_hmst_shape(hmst):
    assert hmst.a0 == Mat2(1, 1, 0, 1)
    assert hmst.a1 == Mat2(1, 0, 1, 1)
    assert hmst.a0.transpose() == hmst.a1
    assert hmst.a0.det() == 1 and hmst.a1.det() == 1
    assert hmst.a0.trace() == 2
    assert hmst.is_unimodular()
    assert hmst.integral


def test_bousch_mairesse_entries():
    fam = builtin_bousch_mairesse(1, "0.5", "0.5", prec=128)
    with mp.workprec(128):
        assert abs(fam.a0.a - (mexp(mpf(1) / 2) + 1)) < mpf(2) ** -100
        assert abs(fam.a0.c - mexp(mpf(1))) < mpf(2) ** -100
        assert fam.a0.b == 0 and fam.a0.d == 1
    assert not fam.integral


def test_bousch_mairesse_domain():
    with pytest.raises(FamilyError):
        builtin_bousch_mairesse(1, 1, 1)  # h0 + h1 = 2
    with pytest.raises(FamilyError):
        builtin_bousch_mairesse(0, "0.5", "0.5")  # kappa degenerate


def test_kozyakin_domain():
    fam = builtin_kozyakin(Fraction(1, 2), 1, 1, Fraction(1, 2))
    assert fam.a0 == Mat2(Fraction(1, 2), 1, 0, 1)
    assert fam.integral
    with pytest.raises(FamilyError):
        builtin_kozyakin(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    # A0 has distinct eigenvalues a and 1
    from sturmjsr.linalg2 import eigenvalues_exact

    lam1, lam2 = eigenvalues_exact(fam.a0)
    assert lam1 != lam2


def test_generators_must_differ():
    with pytest.raises(FamilyError):
        MatrixFamily(Mat2.identity(), Mat2.identity())


def test_dual_family_swaps_and_involutes(hmst):
    dual = dual_family(hmst)
    assert dual.a0 == hmst.a1 and dual.a1 == hmst.a0
    again = dual_family(dual)
    assert again.a0 == hmst.a0 and again.a1 == hmst.a1
    # swapping then transposing is the identity on this family
    assert dual.a0.transpose() == hmst.a0
    assert dual.a1.transpose() == hmst.a1


def test_hypotheses_hmst(hmst):
    rep = check_technical_hypotheses(hmst)
    assert rep.overall == "pass"
    assert rep.mixed_positivity_method == "positive-diagonal criterion"
    assert (hmst.a0 @ hmst.a1) == Mat2(2, 1, 1, 1)


def test_hypotheses_kozyakin(kozyakin):
    assert check_technical_hypotheses(kozyakin).overall == "pass"


def test_hypotheses_bousch_mairesse(bousch_mairesse):
    assert check_technical_hypotheses(bousch_mairesse).overall == "pass"


def test_hypotheses_fail_on_shared_subspace():
    fam = MatrixFamily(Mat2(2, 0, 0, 1), Mat2(3, 0, 0, 1), label="diag")
    rep = check_technical_hypotheses(fam)
    assert rep.no_common_invariant_subspace is False
    assert rep.overall == "fail"


def test_hypotheses_exhaustive_fallback():
    # upper-triangular pair shares e1: criterion cannot apply, enumeration
    # finds a non-positive mixed product
    fam = MatrixFamily(Mat2(1, 1, 0, 1), Mat2(1, 2, 0, 1), label="shear")
    rep = check_technical_hypotheses(fam, depth=4)
    assert rep.mixed_positivity_method == "exhaustive to depth 4"
    assert rep.mixed_products_positive is False
    assert rep.overall == "fail"


def test_hmst_mixed_positivity_exhaustive_agreement(hmst):
    # the closed criterion and depth-8 enumeration agree
    for n in range(2, 9):
        for bits in range(1, 2 ** n - 1):
            w = format(bits, f"0{n}b")
            assert hmst.product(w).is_positive(), w


def test_config_roundtrip(hmst, tmp_path):
    cfg = hmst.to_config()
    fam = MatrixFamily.from_config(cfg)
    assert fam.a0 == hmst.a0 and fam.a1 == hmst.a1
    assert fam.asserted_sturmian == hmst.asserted_sturmian
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(cfg))
    fam2 = MatrixFamily.from_config_file(str(path))
    assert fam2.a0 == hmst.a0


def test_config_rational_strings():
    cfg = {
        "label": "demo",
        "A0": [["1/2", "1"], ["0", "1"]],
        "A1": [["1", "0"], ["1", "1/2"]],
        "asserted_sturmian": True,
    }
    fam = MatrixFamily.from_config(cfg)
    assert fam.integral
    assert fam.a0.a == Fraction(1, 2)


def test_config_float_with_precision():
    cfg = {
        "label": "floaty",
        "prec": 96,
        "A0": [["2.5", "0"], ["1.25", "1"]],
        "A1": [["1", "3.5"], ["0", "2.125"]],
    }
    fam = MatrixFamily.from_config(cfg)
    assert not fam.integral
    assert fam.prec == 96


def _float_config(prec) -> dict:
    return {
        "label": "floaty",
        "prec": prec,
        "A0": [["2.5", "0"], ["1.25", "1"]],
        "A1": [["1", "3.5"], ["0", "2.125"]],
    }


@pytest.mark.parametrize("prec", [64, 1 << 20])
def test_config_precision_bounds_load(prec):
    assert MatrixFamily.from_config(_float_config(prec)).prec == prec


@pytest.mark.parametrize("prec", [-5, 0, 63, (1 << 20) + 1, 100000000, True, 2.5, "96", None])
def test_config_precision_outside_the_cli_range_is_rejected(prec):
    # the range --prec takes, as a JSON integer: not a bool, float or string
    with pytest.raises(FamilyError, match="prec"):
        MatrixFamily.from_config(_float_config(prec))


# ---------------------------------------------------------------------------
# what a family computes once


def test_builtin_is_built_once_per_name_and_precision():
    fam = resolve_family("bousch-mairesse", 256)
    assert resolve_family("bousch-mairesse") is fam and resolve_family("bousch-mairesse", 256) is fam
    wide = resolve_family("bousch-mairesse", 384)
    assert wide is not fam and wide.prec == 384 and resolve_family("bousch-mairesse", 384) is wide
    assert wide == builtin_bousch_mairesse(1, "0.5", "0.5", prec=384)
    with mp.workprec(384):  # built at 384 bits, not the 256-bit entries carried over
        assert abs(wide.a0.a - (mexp(mpf(1) / 2) + 1)) < mpf(2) ** -370
    assert wide.a0.a != fam.a0.a


def test_config_is_read_on_every_request(tmp_path, capsys):
    # a Kozyakin-type config rewritten between two requests of one process:
    # the second answer is the new family's, for a build and a one-off step
    from sturmjsr.cli import main

    path = tmp_path / "kozyakin-type.json"
    answers = []
    for d in ("1/2", "1/3"):
        path.write_text(json.dumps({
            "label": "kozyakin-type", "A0": [["2/3", "2"], ["0", "1"]],
            "A1": [["1", "0"], ["1", d]], "asserted_sturmian": True,
        }))
        outs = []
        for argv in (["staircase", "--family", str(path), "--qmax", "6", "--format", "json"],
                     ["interval", "2/5", "--family", str(path), "--exact", "--format", "json"]):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        answers.append(outs)
    assert all(old != new for old, new in zip(*answers))


def test_integral_is_read_once_and_is_no_field(hmst):
    fam = MatrixFamily(hmst.a0, hmst.a1, label="twin", asserted_sturmian=True)
    assert "integral" not in {f.name for f in dataclasses.fields(fam)}
    assert fam.integral and fam.__dict__["integral"] is True
    twin = MatrixFamily(hmst.a0, hmst.a1, label="twin", asserted_sturmian=True)
    assert fam == twin and hash(fam) == hash(twin)  # read on one side only


# ---------------------------------------------------------------------------
# finite extremality evidence (sampled parameters inside rational steps)


@pytest.mark.parametrize("fixture_name", ["hmst", "kozyakin", "bousch_mairesse"])
def test_condition_v_finite_evidence(fixture_name, request):
    from sturmjsr.oracle import check_condition_v
    from sturmjsr.rational_preimage import preimage_interval

    fam = request.getfixturevalue(fixture_name)
    prec = 160
    fractions = [Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(2, 3)]
    for pq in fractions:
        iv = preimage_interval(fam, pq, prec)
        with mp.workprec(prec):
            mid = (iv.lo.value + iv.hi.value) / 2
        rep = check_condition_v(fam, mid, pq, max_len=10, prec=prec)
        assert rep.passed, (fixture_name, pq, rep.violations[:3])
        # strict margins: re-check the non-equality words with explicit slack
        assert rep.equalities >= 1
