import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import fibonacci, random_text
from genreps import oracle, repeats
from genreps.repeats import (
    GeneralisedRun,
    Mgr,
    UniformKRun,
    count_uniform_k_runs,
    generalised_runs,
    induces,
    is_k_mismatch_square,
    k_runs,
    mgrs,
    mismatch_positions,
    uniform_k_runs,
    uniform_start_intervals,
)
from genreps.text import parse_text, text_from_symbols


def test_mismatch_positions_worked_example(runs_text):
    assert mismatch_positions(runs_text, 8) == [4, 7, 11, 15, 17, 18]


def test_mismatch_positions_unary_and_random():
    assert mismatch_positions(text_from_symbols([5] * 9), 3) == []
    rng = random.Random(1)
    t = random_text(rng, 70, 3)
    for ell in (1, 2, 5, 33):
        assert mismatch_positions(t, ell) == oracle.brute_mismatch_positions(t, ell)


def test_is_k_mismatch_square(runs_text):
    # starts 4, 10, 11 are not 2-mismatch squares of period 8
    for x in (4, 10, 11):
        assert not is_k_mismatch_square(runs_text, x, 8, 2)
    for x in (1, 2, 3, 5, 6, 7, 8, 9):
        assert is_k_mismatch_square(runs_text, x, 8, 2)
    assert is_k_mismatch_square(parse_text(b"aaaa"), 1, 2, 0)
    with pytest.raises(ValueError):
        is_k_mismatch_square(parse_text(b"aaaa"), 2, 2, 0)
    for ell in (0, -1):  # a period below 1 is no square, as in mismatch_positions
        with pytest.raises(ValueError):
            is_k_mismatch_square(parse_text(b"abcd"), 1, ell, 0)


def test_k_runs_worked_example(runs_text):
    recs = [(r.a, r.b) for r in k_runs(runs_text, 2, 8)]
    assert recs == [(1, 19), (5, 25)]  # T[1..18] and T[5..24]


def test_k_runs_saturated():
    t = parse_text(b"abcabd")
    for ell in (1, 2, 3):
        recs = k_runs(t, ell, ell)  # k >= ell: every window qualifies
        assert [(r.a, r.b) for r in recs] == [(1, t.n + 1)]


def test_uniform_runs_worked_example(runs_text):
    recs = [(r.a, r.b, r.mismatches) for r in uniform_k_runs(runs_text, 2, 8)]
    assert recs == [(1, 19, (4, 7)), (5, 23, (7, 11)), (8, 25, (11, 15))]


def test_uniform_runs_induced_by_generalised_run(grun_text):
    recs = uniform_k_runs(grun_text, 2, 6)
    assert [(r.a, r.b) for r in recs] == [
        (2, 15),
        (4, 17),
        (6, 22),
        (11, 26),
        (15, 27),
    ]
    grun = [g for g in generalised_runs(grun_text, 6) if g.x == 6][0]
    assert (grun.x, grun.y, grun.p) == (6, 22, 6)
    assert all(induces(grun, r) for r in recs)


def test_mgr_worked_example(runs_text):
    rec = [m for m in mgrs(runs_text, periods=8) if m.x == 8][0]
    assert (rec.ell, rec.arm_len) == (8, 3)
    assert rec.gap_ratio == Fraction(8, 3)
    assert all(induces(rec, r) for r in uniform_k_runs(runs_text, 2, 8))


def test_mgrs_unary_none():
    assert mgrs(text_from_symbols([1] * 30)) == []


def test_generalised_runs_square():
    t = parse_text(b"abab")
    assert [(g.x, g.y, g.p) for g in generalised_runs(t, 2)] == [(1, 5, 2)]


def test_induces_period_mismatch_and_disjoint():
    rep = Mgr(1, 12, 8, 3)
    run = UniformKRun(30, 50, 8, (), 2)
    assert not induces(rep, run)
    with pytest.raises(ValueError):
        induces(Mgr(1, 12, 8, 3), UniformKRun(1, 15, 7, (), 2))


def _structured_texts():
    """Unary, period-2, period-3 and Fibonacci texts with n <= 120."""
    out = []
    for n in (1, 2, 7, 24, 61, 97, 120):
        out += [[0] * n, [i % 2 for i in range(n)], [i % 3 for i in range(n)], fibonacci(n)]
    return [text_from_symbols(sym) for sym in out]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_vs_oracle(seed):
    rng = random.Random(seed)
    cases = []
    for _ in range(10):
        n = rng.randint(0, 120)
        t = random_text(rng, n, rng.choice([2, 3, 4]))
        cases.append((t, rng.choice([0, 1, 2, 4])))
    # one text above 120 (below the oracle cap) and a third of the structured texts
    big = random_text(rng, rng.randint(121, oracle.BRUTE_CAP), rng.choice([2, 3]))
    cases += [(t, rng.choice([0, 1, 2, 4])) for t in [big, *_structured_texts()[seed::3]]]
    for t, k in cases:
        got = sorted((r.a, r.b, r.ell, r.mismatches) for r in uniform_k_runs(t, k))
        assert got == sorted(oracle.brute_uniform_k_runs(t, k))
        got_k = sorted((r.a, r.b, r.ell) for r in k_runs(t, k))
        assert got_k == sorted(oracle.brute_k_runs(t, k))
        got_g = sorted((r.x, r.y, r.p) for r in generalised_runs(t))
        assert got_g == sorted(oracle.brute_generalised_runs(t))
        got_m = sorted((r.x, r.y, r.ell, r.arm_len) for r in mgrs(t))
        assert got_m == sorted(oracle.brute_mgrs(t))


def test_count_matches_enumeration():
    rng = random.Random(3)
    cases = []
    for _ in range(15):
        t = random_text(rng, rng.randint(0, 200), rng.choice([2, 3]))
        cases.append((t, rng.choice([0, 2, 3])))
    cases += [(t, k) for t in _structured_texts() for k in (0, 2, 3)]
    for t, k in cases:
        assert count_uniform_k_runs(t, k) == len(uniform_k_runs(t, k))


def test_input_forms_agree(runs_text):
    """A Text, a plain list and a 1-based ndarray padded with -1 give one
    answer from every function of the module, and so does a padded list
    whose symbols include -1."""
    texts = [runs_text, random_text(random.Random(12), 150, 2), text_from_symbols([4] * 9)]
    for t in texts:
        forms = [
            t,
            list(t.symbols),
            np.array(t.padded, dtype=np.int64),
            [-1] + [x - 1 for x in t.symbols],
        ]
        answers = []
        for f in forms:
            half = t.n // 2
            answers.append(
                (
                    [mismatch_positions(f, ell) for ell in range(1, t.n + 1)],
                    [
                        is_k_mismatch_square(f, i, ell, k)
                        for ell in range(1, half + 1)
                        for i in range(1, t.n - 2 * ell + 2)
                        for k in (0, 2)
                    ],
                    [uniform_start_intervals(f, ell, 2) for ell in range(0, half + 2)],
                    uniform_k_runs(f, 2),
                    uniform_k_runs(f, 1, periods=[3, 8]),
                    count_uniform_k_runs(f, 2),
                    k_runs(f, 2),
                    k_runs(f, 0, periods=4),
                    generalised_runs(f),
                    mgrs(f),
                    mgrs(f, Fraction(5, 2)),
                )
            )
        assert all(a == answers[0] for a in answers[1:])


def test_alpha_filter():
    rng = random.Random(4)
    t = random_text(rng, 90, 3)
    all_m = mgrs(t)
    for alpha in (2, 3, Fraction(5, 2), 2.7, 0.3, 0, Fraction(1, 3), math.inf):
        got = mgrs(t, alpha)
        want = [m for m in all_m if m.gap_ratio <= alpha]
        assert got == want


def test_mgrs_builds_only_kept_records(monkeypatch):
    """The gap-ratio filter runs before any record is built."""
    built = []

    class CountingMgr(Mgr):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    t = random_text(random.Random(13), 400, 2)
    want = [(m.x, m.y, m.ell, m.arm_len) for m in mgrs(t) if m.gap_ratio <= 3]
    monkeypatch.setattr(repeats, "Mgr", CountingMgr)
    kept = [(m.x, m.y, m.ell, m.arm_len) for m in repeats.mgrs(t, 3)]
    assert kept == want and len(kept) > 100
    assert len(built) == len(kept)


def _induction_counts(t, k):
    """Per uniform k-run: how many repeats of its period induce it."""
    runs = uniform_k_runs(t, k)
    reps_by_p = {}
    for m in mgrs(t):
        reps_by_p.setdefault(m.ell, []).append(m)
    gruns_by_p = {}
    for g in generalised_runs(t):
        gruns_by_p.setdefault(g.p, []).append(g)
    return runs, reps_by_p, gruns_by_p


@pytest.mark.parametrize("seed", [5, 6])
def test_induction_bounds(seed):
    """Each MGR and each generalised run induces at most 2k+1 uniform k-runs."""
    rng = random.Random(seed)
    for _ in range(8):
        t = random_text(rng, rng.randint(2, 110), rng.choice([2, 3]))
        k = rng.choice([0, 1, 2, 3])
        runs_by_p = {}
        for r in uniform_k_runs(t, k):
            runs_by_p.setdefault(r.ell, []).append(r)
        for rep in mgrs(t) + generalised_runs(t):
            same = runs_by_p.get(rep.period, [])
            induced = sum(1 for r in same if induces(rep, r))
            assert induced <= 2 * k + 1


@pytest.mark.parametrize("seed", [7, 8])
def test_long_period_coverage(seed):
    """A uniform k-run of period >= 4k is induced by a generalised run or by
    (2k+2)-gapped MGRs of total weight at least 1/4."""
    rng = random.Random(seed)
    for _ in range(8):
        t = random_text(rng, rng.randint(2, 110), rng.choice([2, 3]))
        k = rng.choice([0, 1, 2])
        runs, reps_by_p, gruns_by_p = _induction_counts(t, k)
        for r in runs:
            if r.ell < 4 * k:
                continue
            if any(induces(g, r) for g in gruns_by_p.get(r.ell, [])):
                continue
            arms = sum(
                m.arm_len
                for m in reps_by_p.get(r.ell, [])
                if m.ell <= (2 * k + 2) * m.arm_len and induces(m, r)
            )
            assert 4 * arms >= r.ell, (t.symbols, k, r)


def test_krun_prefix_property():
    """Every k-run starts a uniform k-run with the same period and start."""
    rng = random.Random(9)
    for _ in range(10):
        t = random_text(rng, rng.randint(2, 100), rng.choice([2, 3]))
        k = rng.choice([0, 1, 2])
        uni_starts = {(r.ell, r.a) for r in uniform_k_runs(t, k)}
        for r in k_runs(t, k):
            assert (r.ell, r.a) in uni_starts
        assert len(k_runs(t, k)) <= len(uniform_k_runs(t, k))


def test_hard_count_bounds():
    rng = random.Random(10)
    for _ in range(10):
        n = rng.randint(2, 150)
        t = random_text(rng, n, rng.choice([2, 3, 4]))
        k = rng.choice([1, 2, 3])
        assert len(generalised_runs(t)) < 1.5 * n
        all_m = mgrs(t)
        for alpha in range(2, 2 * k + 3):
            cum = sum(1 for m in all_m if m.ell <= alpha * m.arm_len)
            assert cum < 13 * n * alpha
        cnt = count_uniform_k_runs(t, k)
        assert cnt <= 200 * n * k * (math.log(2 * k + 1) + 1)
