import csv
import io
import json
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from helpers import farey_fractions
from sturmjsr import rational_preimage, staircase
from sturmjsr.cli import main
from sturmjsr.family import MatrixFamily, builtin_kozyakin
from sturmjsr.linalg2 import Mat2, QuadExt, quad_compare
from sturmjsr.precision import fraction_from_mpf
from sturmjsr.rational_preimage import (
    PreimageInterval,
    SternBrocotNode,
    compare,
    exact_ball,
    preimage_interval,
    preimage_one,
    preimage_zero,
)
from sturmjsr.staircase import (
    RatioBracket,
    Staircase,
    StaircaseError,
    build_staircase,
    gap_diagnostics,
    gap_residuals,
    ratio_at,
    render,
    step_of,
)

Fr = Fraction


def test_farey_fractions():
    assert farey_fractions(4) == [
        Fr(1, 4), Fr(1, 3), Fr(1, 2), Fr(2, 3), Fr(3, 4),
    ]
    assert len(farey_fractions(30)) == 277


@pytest.fixture(scope="module")
def st30(hmst):
    return build_staircase(hmst, 30)


def test_staircase_counts(st30):
    assert len(st30.steps) == 277
    assert len(st30.all_rows()) == 278  # the {0} step joins, ratio-1 is empty
    assert st30.zero_step.degenerate
    assert st30.one_step.empty


def test_staircase_sorted_disjoint_exact(st30):
    # build_staircase verifies this internally; re-verify here explicitly
    prev = None
    for step in st30.steps:
        if prev is not None:
            assert quad_compare(prev.hi.exact, step.lo.exact) < 0
        prev = step


def test_staircase_duality_bijection(st30):
    by_fraction = {step.fraction: step for step in st30.steps}
    one = QuadExt.make(1)
    for pq, step in by_fraction.items():
        partner = by_fraction[1 - pq]
        assert partner.lo.exact == one / step.hi.exact
        assert partner.hi.exact == one / step.lo.exact


# the identity the mirrored upper half of a swap-symmetric staircase rests
# on, checked on steps built from scratch (no memo, no mirror)


def _kozyakin_type_with(d):
    return MatrixFamily.from_config({
        "label": "kozyakin-type", "A0": [["2/3", "2"], ["0", "1"]],
        "A1": [["1", "0"], ["1", d]], "asserted_sturmian": True,
    })


@pytest.mark.parametrize("family", ["hmst", "kozyakin", "kozyakin-type 2/3"])
def test_equal_dets_give_hi_times_conjugate_lo_one(request, family):
    # det A0 = det A1: hi conj(lo) = 1 on every step, swap-symmetric or not
    fam = _kozyakin_type_with("2/3") if family.endswith("2/3") else request.getfixturevalue(family)
    assert fam.is_swap_symmetric() == (family != "kozyakin-type 2/3")
    for pq in farey_fractions(30):
        step = preimage_interval(fam, pq)
        assert step.hi.exact * step.lo.exact.conjugate() == 1, (family, pq)


def test_unequal_dets_break_hi_times_conjugate_lo_one():
    fam = _kozyakin_type_with("1/2")  # det A0 = 2/3, det A1 = 1/2
    for pq in farey_fractions(12):
        step = preimage_interval(fam, pq)
        assert step.hi.exact * step.lo.exact.conjugate() != 1, pq


def _fields(step):
    ends = [
        (e.value._mpf_, e.exact.a, e.exact.b, e.exact.d, e.radius, e.prec, e.error._mpf_)
        for e in (step.lo, step.hi)
    ]
    return step.fraction, step.degenerate, step.pair, ends


@pytest.mark.parametrize("family", ["hmst", "kozyakin"])
def test_mirrored_step_is_the_step_built_from_scratch(request, family):
    # the ends of step(1 - x) are the conjugates of the ends of step(x)
    fam = request.getfixturevalue(family)
    root = SternBrocotNode.root(fam)
    for pq in (x for x in farey_fractions(30) if x > Fr(1, 2)):
        direct, mirror = preimage_interval(fam, pq), preimage_interval(fam, 1 - pq)
        conjugated = (exact_ball(e.exact.conjugate()) for e in (mirror.lo, mirror.hi))
        for got in (
            PreimageInterval(pq, *conjugated, pair=direct.pair),
            staircase._mirrored(root.descend(pq), mirror, 256),
        ):
            assert _fields(got) == _fields(direct), (family, pq)
            assert got.listed.text == direct.listed.text


@pytest.mark.parametrize("printed", [False, True])
def test_mirrored_ends_keep_their_replay_recipe(capsys, monkeypatch, hmst, printed):
    # 213/350 conjugated from 137/350 prints its ends through the decimal
    # replay, in the bytes `interval` prints, also when the mirror's ends
    # were printed first: a print keeps no strings, so the mirror's slots
    # still hold the recipes that the conjugates copy
    from functools import partial

    replays, replay = [], rational_preimage._replay
    monkeypatch.setattr(rational_preimage, "_replay", lambda *args: replays.append(replay(*args)) or replays[-1])
    root = SternBrocotNode.root(hmst)
    mirror = root.descend(Fr(137, 350)).interval()
    if printed:
        mirror.as_json()
        replays.clear()
    step = staircase._mirrored(root.descend(Fr(213, 350)), mirror, 256)
    assert all(isinstance(e.exact._text, partial) for e in (mirror.lo, mirror.hi, step.lo, step.hi))
    text = json.dumps(step.as_json(), indent=2)
    assert len(replays) == 2 and None not in replays
    assert main(["interval", "213/350", "--exact", "--format", "json"]) == 0
    assert capsys.readouterr().out == text + "\n"


def test_step_lookup(hmst, memo):
    st = build_staircase(hmst, 12)
    step = step_of(hmst, Fr(1, 2))  # the step the build stored
    assert any(s is step for s in st.steps) and step.fraction == Fr(1, 2)
    size = len(memo)
    assert step_of(hmst, Fr(1, 13)).fraction == Fr(1, 13) and len(memo) == size  # built, not stored


def test_kozyakin_staircase_leftmost(kozyakin):
    st = build_staircase(kozyakin, 2)
    assert not st.zero_step.empty
    assert st.zero_step.hi.exact == QuadExt.make(Fr(2, 5))
    assert st.zero_step.lo_unbounded


def test_ratio_at_examples(hmst):
    assert ratio_at(hmst, 1) == Fr(1, 2)
    assert ratio_at(hmst, Fr(5, 4)) == Fr(1, 2)  # closed endpoint
    assert ratio_at(hmst, Fr(4, 5)) == Fr(1, 2)
    assert ratio_at(hmst, 0) == Fr(0)


def test_ratio_at_bracket_near_nonfiniteness_parameter(hmst):
    # shallow descent brackets the golden ratio value; the bracket's
    # certified expansion prefix matches [2,1,1,...]
    a11 = Fr("0.74932654633")
    out = ratio_at(hmst, a11, depth=5)
    assert isinstance(out, RatioBracket)
    assert out == RatioBracket(Fr(3, 8), Fr(5, 13), (2, 1))
    with mp.workprec(120):
        gamma = (3 - mp.sqrt(5)) / 2
        lo = mpf(out.low.numerator) / out.low.denominator
        hi = mpf(out.high.numerator) / out.high.denominator
        assert lo < gamma < hi
    # any finite-decimal parameter this close actually lies on a plateau:
    # deeper descent resolves to a golden convergent exactly
    assert ratio_at(hmst, a11, depth=8) == Fr(8, 21)
    a29 = Fr("0.74932654633036755794396194809")
    assert ratio_at(hmst, a29, depth=12) == Fr(21, 55)


def test_ratio_at_inside_every_step(st30, hmst):
    with mp.workprec(200):
        for step in st30.steps[::7]:
            mid_val = (step.lo.value + step.hi.value) / 2
            got = ratio_at(hmst, mid_val, depth=64)
            assert got == step.fraction, step.fraction


def test_ratio_at_monotone_grid(hmst):
    results = []
    lo_prev, hi_prev = Fr(0), Fr(0)
    for k in range(0, 200):
        alpha = Fr(k, 100)  # 0 .. 2 in steps of 0.01
        out = ratio_at(hmst, alpha, depth=14)
        if isinstance(out, RatioBracket):
            lo_k, hi_k = out.low, out.high
        else:
            lo_k = hi_k = out
        assert lo_k >= lo_prev - Fr(0)  # bounds never step backwards
        assert hi_k >= hi_prev - Fr(0)
        lo_prev, hi_prev = max(lo_prev, lo_k), max(hi_prev, hi_k)
        results.append(out)
    assert results[-1] > Fr(1, 2)


def _assert_ratio_agrees(st, fam, alpha, depth):
    """ratio_at(alpha) against the built steps: a fraction is the step that
    contains alpha (one of larger denominator than the staircase's contains
    it too), and the built steps next to a bracket lie on alpha's sides."""
    out = ratio_at(fam, alpha, depth=depth)
    rows = st.all_rows()
    fractions = [row.fraction for row in rows]
    if isinstance(out, RatioBracket):
        below, above = bisect_right(fractions, out.low), bisect_left(fractions, out.high)
    else:
        below, above = bisect_left(fractions, out), bisect_right(fractions, out)
        if below < above:
            assert rows[below].contains(alpha), (alpha, out)
        else:
            assert out.denominator > st.qmax, (alpha, out)
            assert preimage_interval(fam, out).contains(alpha), (alpha, out)
    if below > 0:  # every step of a smaller fraction ends below alpha
        assert compare(rows[below - 1].hi, alpha) < 0, (alpha, depth, out)
    if above < len(rows):  # every step of a larger fraction starts above it
        assert compare(rows[above].lo, alpha) > 0, (alpha, depth, out)


@pytest.mark.parametrize("name, qmax, seed", [
    ("hmst", 45, 1), ("kozyakin", 30, 2), ("kozyakin_type", 16, 3),
])
def test_ratio_at_agrees_with_staircase(request, name, qmax, seed):
    fam = request.getfixturevalue(name)
    st = build_staircase(fam, qmax)
    rng = random.Random(seed)
    for _ in range(200):  # twelve-digit alphas, log-uniform on [1/20, 20]
        alpha = Fr(round(20 ** rng.uniform(-1, 1), 12))
        _assert_ratio_agrees(st, fam, alpha, rng.choice([0, 1, 3, 8, 32]))
    # ends of steps (rational ones exactly, the others at their rounded
    # values, which may fall in the gap beside the step) and points 1e-7
    # either side of them
    for row in st.all_rows()[::10]:
        for ep in (row.lo, row.hi):
            if ep is not None and ep.value > 0:
                end = ep.exact.a if not ep.exact.b else fraction_from_mpf(ep.value)
                for shift in (0, Fr(1, 10 ** 7), -Fr(1, 10 ** 7)):
                    _assert_ratio_agrees(st, fam, end + shift, 12)


def test_ratio_at_kozyakin_boundary_ends(kozyakin):
    st = build_staircase(kozyakin, 20)
    eps = Fr(1, 10 ** 7)
    assert ratio_at(kozyakin, Fr(2, 5)) == 0 and ratio_at(kozyakin, Fr(5, 2)) == 1
    assert ratio_at(kozyakin, Fr(2, 5) - eps) == 0 and ratio_at(kozyakin, Fr(5, 2) + eps) == 1
    for alpha in (Fr(2, 5), Fr(2, 5) + eps, Fr(5, 2) - eps, Fr(5, 2)):
        for depth in (0, 1, 32):
            _assert_ratio_agrees(st, kozyakin, alpha, depth)
    assert ratio_at(kozyakin, Fr(2, 5) + eps, depth=0) == RatioBracket(Fr(0), Fr(1), ())


def test_gap_residuals_decrease(st30):
    rep = gap_diagnostics(st30, ("0.5", "0.8"), [5, 10, 20, 30])
    assert rep.monotone_decreasing()
    vals = [rep.residuals[q] for q in (5, 10, 20, 30)]
    assert vals[-1] > 0
    assert vals[-1] < mpf("1e-8")
    assert rep.diameter_fit_slope is not None and rep.diameter_fit_slope < 0


def _residuals_per_level(st, bracket, qmaxes, prec=256):
    """The residuals one level at a time, each a pass over the steps: the
    sums ``gap_residuals`` must reproduce bit for bit."""
    with mp.workprec(prec):
        a, b = mpf(bracket[0]), mpf(bracket[1])
        out = {}
        for q in qmaxes:
            covered = mpf(0)
            for step in st.all_rows():
                if step.fraction.denominator > q:
                    continue
                lo_v = step.lo.value if step.lo is not None else mpf(0)
                hi_v = step.hi.value if step.hi is not None else b
                lo_c, hi_c = max(lo_v, a), min(hi_v, b)
                if hi_c > lo_c:
                    covered += hi_c - lo_c
            out[q] = (b - a) - covered
        return out


@pytest.mark.parametrize("bracket", [("0.5", "0.8"), ("0", "0.3"), ("0.7", "3"), ("0.3", "0.6")])
def test_gap_residuals_match_per_level_sums(st30, bracket):
    levels = [2, 5, 10, 20, 30]
    got = gap_residuals(st30, bracket, levels)
    assert list(got) == levels
    assert got == _residuals_per_level(st30, bracket, levels)
    assert gap_diagnostics(st30, bracket, levels).residuals == got


def test_gap_fully_covered_bracket(st30):
    rep = gap_diagnostics(st30, ("0.8", "1.25"), [2])
    with mp.workprec(100):
        assert abs(rep.residuals[2]) < mpf(2) ** -60


def test_gap_rejects_bad_bracket(st30):
    with pytest.raises(StaircaseError):
        gap_diagnostics(st30, ("0.9", "0.2"))
    with pytest.raises(StaircaseError):
        gap_diagnostics(st30, ("0.5", "0.8"), [40])


def test_export_csv_and_json(st30, tmp_path, hmst):
    st8 = build_staircase(hmst, 8)
    text = render(st8, "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == [
        "alpha_lo", "alpha_hi", "p", "q", "value_p_over_q", "exact_lo", "exact_hi",
    ]
    assert len(rows) - 1 == len(st8.all_rows())
    payload = json.loads(render(st8, "json"))
    assert payload["qmax"] == 8
    assert payload["steps"][1]["u"] == "0"
    # fraction values ascend
    fracs = [Fr(s["p"], s["q"]) for s in payload["steps"]]
    assert fracs == sorted(fracs)


def test_export_empty_staircase_header_only(hmst, tmp_path):
    empty = Staircase(
        family_label="hmst", qmax=2, steps=[],
        zero_step=preimage_zero(hmst), one_step=preimage_one(hmst),
    )
    text = render(empty, "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 2  # header plus the degenerate {0} row
    empty2 = Staircase(
        family_label="x", qmax=2, steps=[],
        zero_step=preimage_one(hmst), one_step=preimage_one(hmst),
    )
    assert len(list(csv.reader(io.StringIO(render(empty2, "csv"))))) == 1


def test_build_rejects_small_qmax(hmst):
    with pytest.raises(StaircaseError):
        build_staircase(hmst, 1)


def test_float_family_staircase_and_ratio(bousch_mairesse):
    st = build_staircase(bousch_mairesse, 5, prec=200)
    assert len(st.steps) == len(farey_fractions(5))
    step = step_of(bousch_mairesse, Fr(1, 2), prec=200)
    with mp.workprec(200):
        mid = (step.lo.value + step.hi.value) / 2
    assert ratio_at(bousch_mairesse, mid, depth=24, prec=200) == Fr(1, 2)


def test_disjoint_ordered_at_qmax_40(hmst):
    # the constructor itself raises on any ordering or overlap violation
    st = build_staircase(hmst, 40)
    assert len(st.steps) == len(farey_fractions(40))


def test_render_range_window(st30):
    # restricting to [0, 5/4] keeps everything through the one-half step
    # and drops the steps beyond it
    text = render(st30, "csv", alpha_range=("0", "1.25"))
    rows = list(csv.reader(io.StringIO(text)))[1:]
    fracs = [Fr(int(r[2]), int(r[3])) for r in rows]
    assert Fr(1, 2) == max(fracs)
    assert Fr(0, 1) == min(fracs)
    # the window endpoint is exactly the top of the one-half step
    assert rows[-1][1] == "1.25"
    # everything with value <= 1/2 and denominator <= 30 is present
    expected = 2 + sum(
        1 for f in farey_fractions(30) if f < Fr(1, 2)
    )  # {0} step + 1/2 step + all below
    assert len(rows) == expected


def test_midpoint_sample_rows(hmst):
    st = build_staircase(hmst, 4)
    text = render(st, "csv", midpoint_samples=True)
    rows = list(csv.reader(io.StringIO(text)))
    base = 1 + len(st.all_rows())
    assert rows[base][0] == "# alpha_mid"
    assert len(rows) == base + 1 + sum(
        1 for s in st.all_rows() if s.lo is not None and s.hi is not None
    )


def test_config_labelled_like_a_builtin_builds_its_own_steps(capsys, tmp_path):
    # the label "kozyakin" names a builtin with other entries; the build
    # must use the config's matrices, never re-resolve the label
    fam = builtin_kozyakin(Fr(1, 3), 2, 2, Fr(1, 3))
    path = tmp_path / "koz.json"
    path.write_text(json.dumps(fam.to_config()))
    assert fam.to_config()["label"] == "kozyakin"
    code = main(["staircase", "--family", str(path), "--qmax", "8", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["steps"]
    interior = [r for r in rows if 0 < r["p"] < r["q"]]
    assert interior == [iv.as_json() for iv in build_staircase(fam, 8).steps]
    half = next(r for r in interior if (r["p"], r["q"]) == (1, 2))
    assert half["lo"]["dec"].startswith("0.3333")


def test_build_accepts_ignored_workers_keyword(hmst):
    a, b = build_staircase(hmst, 6), build_staircase(hmst, 6, workers=1)
    assert [s.as_json() for s in a.steps] == [s.as_json() for s in b.steps]


@pytest.mark.parametrize("qmax", [20, 40])
def test_bousch_mairesse_staircase_builds(bousch_mairesse, qmax):
    st = build_staircase(bousch_mairesse, qmax)
    assert [s.fraction for s in st.steps] == farey_fractions(qmax)


def test_low_precision_build_orders_through_exact_fallback(hmst, monkeypatch):
    # adjacent hmst steps with q <= 30 lie closer than 2^-64, so the mpf
    # filter alone cannot order them at 64 bits
    calls = []

    def counting(x, y):
        calls.append(1)
        return quad_compare(x, y)

    monkeypatch.setattr(rational_preimage, "quad_compare", counting)
    st = build_staircase(hmst, 30, prec=64)
    assert len(st.steps) == 277
    assert calls


# ---------------------------------------------------------------------------
# the step memo shared by builds and ratio queries


@pytest.fixture
def memo(monkeypatch):
    """An empty step memo for this test alone."""
    fresh: dict = {}
    monkeypatch.setattr(staircase, "_memo", fresh)
    return fresh


@pytest.mark.parametrize("query", [
    lambda fam: build_staircase(fam, 8),
    lambda fam: ratio_at(fam, Fr(7, 10)),
], ids=["build_staircase", "ratio_at"])
def test_one_stern_brocot_root_per_query(kozyakin, memo, monkeypatch, query):
    # the walk and both boundary steps share one root; 7/10 lies on
    # neither boundary step of this family, so the query descends.  The
    # memo keeps the root beside the family's steps: a warm repeat builds none
    roots = []
    make_root = SternBrocotNode.root.__func__

    def counting(cls, fam):
        roots.append(fam)
        return make_root(cls, fam)

    monkeypatch.setattr(SternBrocotNode, "root", classmethod(counting))
    query(kozyakin)
    assert len(roots) == 1
    query(kozyakin)
    assert len(roots) == 1


@pytest.mark.parametrize("exact_first", [True, False])
def test_memo_keeps_exact_and_float_twins_apart(hmst, memo, exact_first):
    # hmst with mpf entries compares and hashes equal to hmst itself, yet
    # its ends are float ones: each must get its own kind from the memo
    twin = MatrixFamily(
        Mat2(*(mpf(x) for x in hmst.a0.entries())), Mat2(*(mpf(x) for x in hmst.a1.entries())),
        label=hmst.label, asserted_sturmian=True,
    )
    assert twin == hmst and hash(twin) == hash(hmst) and not twin.integral
    for fam in (hmst, twin) if exact_first else (twin, hmst):
        for _ in range(2):  # cold, then warm
            st = build_staircase(fam, 8)
            assert ratio_at(fam, Fr(1)) == Fr(1, 2)
            for step in st.steps:
                for end in (step.lo, step.hi):
                    assert (end.exact is not None) == fam.integral, (fam.integral, step.fraction)
                    assert (end.radius is None) == fam.integral, (fam.integral, step.fraction)


def test_warm_memo_prints_what_a_cold_one_prints(capsys, tmp_path, memo, kozyakin_type):
    # both precisions share the memo, so a key without prec shows too
    path = tmp_path / "kozyakin-type.json"
    path.write_text(json.dumps(kozyakin_type.to_config()))
    requests = []
    for prec in ("256", "384"):
        for family in ("hmst", str(path), "bousch-mairesse"):
            ratios = [["ratio", a, "--family", family, "--depth", "12"] for a in ("0.3", "0.75", "1.3", "2")]
            build = ["staircase", "--family", family, "--qmax", "12"]
            requests += [
                [*argv, "--prec", prec]
                for argv in (ratios[0], ratios[1], [*build, "--format", "json"],
                             [*build, "--gaps", "0.5,0.8"], ratios[2], ratios[3])
            ]

    def run(argv):
        assert main(argv) == 0, argv
        return capsys.readouterr().out

    cold = []
    for argv in requests:
        memo.clear()
        cold.append(run(argv))
    memo.clear()
    for _ in range(2):  # the second pass finds every step in the memo
        assert [run(argv) for argv in requests] == cold
    assert memo


@pytest.mark.parametrize("family, prec, qmax, window", [
    ("hmst", 256, 45, None),
    ("hmst", 256, 2, None),  # a degenerate zero step and an empty one step
    ("hmst", 256, 20, ("0.6", "1.4")),
    ("kozyakin-type", 256, 16, None),
    ("kozyakin-type", 256, 16, ("0.5", "3")),
    ("bousch-mairesse", 256, 12, None),
    ("bousch-mairesse", 384, 12, ("0.8", "1.6")),
])
def test_stored_step_text_is_the_payloads_json(memo, tmp_path, kozyakin_type, family, prec, qmax, window):
    # a cold build writes each step's text, a warm one joins the stored
    # texts: both are json_text of the payload written from as_json
    from sturmjsr.family import resolve_family
    from sturmjsr.precision import json_text

    if family == "kozyakin-type":
        family = tmp_path / "kozyakin-type.json"
        family.write_text(json.dumps(kozyakin_type.to_config()))
    fam = resolve_family(str(family), prec)
    texts = []
    for _ in range(2):  # cold, then every step from the memo
        st = build_staircase(fam, qmax, prec)
        rows = st.all_rows()
        if window is not None:
            with mp.workprec(prec):
                w_lo, w_hi = (mpf(x) for x in window)
            rows = [s for s in rows if (s.lo.value if s.lo else 0) <= w_hi and (s.hi.value if s.hi else w_hi) >= w_lo]
            assert 0 < len(rows) < len(st.all_rows())
        payload = {"family": st.family_label, "qmax": qmax, "steps": [s.as_json() for s in rows]}
        texts.append(render(st, "json", alpha_range=window))
        assert texts[-1] == json_text(payload) + "\n"
    assert texts[0] == texts[1]
    assert st.steps[0] is build_staircase(fam, qmax, prec).steps[0]


@pytest.fixture
def interval_calls(monkeypatch):
    """The fractions of the nodes whose step ``SternBrocotNode.interval``
    builds, in call order."""
    calls = []
    build = SternBrocotNode.interval

    def counting(node, prec):
        calls.append(node.fraction)
        return build(node, prec)

    monkeypatch.setattr(SternBrocotNode, "interval", counting)
    return calls


def test_cold_build_builds_each_step_once(hmst, memo, interval_calls):
    # hmst is swap-symmetric: the steps above 1/2 are conjugated from their
    # mirrors, and only the lower half goes through interval
    st = build_staircase(hmst, 12)
    assert interval_calls == [step.fraction for step in st.steps if step.fraction <= Fr(1, 2)]
    # the family's root, one entry per node and the two boundary steps
    roots = [v for v in memo.values() if isinstance(v, SternBrocotNode)]
    steps = [v for v in memo.values() if isinstance(v, PreimageInterval)]
    assert len(roots) == 1 and len(steps) == len(st.steps) + 2 == len(memo) - 1
    assert st.zero_step in steps and st.one_step in steps


def test_cold_build_of_an_asymmetric_family_builds_every_step(kozyakin_type, memo, interval_calls):
    assert not kozyakin_type.is_swap_symmetric()
    st = build_staircase(kozyakin_type, 16)
    assert interval_calls == [step.fraction for step in st.steps]


def test_cold_build_falls_back_at_mirrors_of_square_discriminants(memo, interval_calls):
    # A1 = J A0 J, and some steps have D = 0 (a square Delta), where
    # conjugation is not the Galois map: their mirrors are built from scratch
    fam = MatrixFamily(Mat2(2, 1, 0, 2), Mat2(2, 0, 1, 2), asserted_sturmian=True)
    assert fam.is_swap_symmetric()
    st = build_staircase(fam, 12)
    square = {s.fraction for s in st.steps if s.lo.exact.d == 0 or s.hi.exact.d == 0}
    fallbacks = [s.fraction for s in st.steps if s.fraction > Fr(1, 2) and 1 - s.fraction in square]
    assert fallbacks == [Fr(2, 3), Fr(9, 10)]
    assert interval_calls == [s.fraction for s in st.steps if s.fraction <= Fr(1, 2) or s.fraction in fallbacks]
    assert [_fields(s) for s in st.steps] == [_fields(preimage_interval(fam, s.fraction)) for s in st.steps]


def test_prints_keep_no_digits_in_the_ends(hmst, memo, capsys, monkeypatch):
    # JSON and CSV renders, `interval` prints and a mirrored build print the
    # ends without keeping their digits: each end's slot holds None or the
    # recipe its maker attached (every end has one when the replay gate is
    # lifted), so a memoized step holds its digits only in its JSON text
    from functools import partial

    for gate in (rational_preimage._REPLAY_BITS, -1):
        monkeypatch.setattr(rational_preimage, "_REPLAY_BITS", gate)
        memo.clear()
        for _ in range(2):  # cold, then from the memo
            st = build_staircase(hmst, 16)  # the steps above 1/2 mirrored
            text, listed = render(st, "csv"), render(st, "json")
        for pq in ("7/16", "9/16"):  # memoized steps
            for fmt in ("text", "json"):
                assert main(["interval", pq, "--exact", "--format", fmt]) == 0
        capsys.readouterr()
        slots = [e.exact._text for s in st.all_rows() for e in (s.lo, s.hi) if e is not None and e.exact is not None]
        assert all(isinstance(t, partial) for t in slots) if gate < 0 else slots == [None] * len(slots)
        assert render(st, "csv") == text and render(st, "json") == listed


@pytest.mark.parametrize("alpha, ratio", [
    (Fr(9, 10), Fr(1, 2)), (Fr(13, 10), Fr(3, 5)), (Fr(3, 10), Fr(1, 7)),
], ids=["9/10", "13/10", "3/10"])
def test_ratio_after_a_build_reads_the_memo(hmst, memo, interval_calls, alpha, ratio):
    # every node the descent visits is an ancestor of the answer, q <= 12
    build_staircase(hmst, 12)
    interval_calls.clear()
    assert ratio_at(hmst, alpha) == ratio
    assert interval_calls == []


def test_memo_stays_within_its_bound(hmst, memo, monkeypatch):
    # the bound counts every entry: node steps, boundary steps and the
    # family's root all sit in the one dict
    cold = render(build_staircase(hmst, 12), "csv")
    memo.clear()
    monkeypatch.setattr(staircase, "_MEMO_SIZE", 16)
    for _ in range(2):
        assert render(build_staircase(hmst, 12), "csv") == cold
        assert ratio_at(hmst, Fr(9, 10)) == Fr(1, 2)
        steps = sum(isinstance(v, PreimageInterval) for v in memo.values())
        assert 0 < steps <= len(memo) <= 16
