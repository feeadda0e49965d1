import bisect
import dataclasses
import json
import math
import numbers
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import fibonacci, random_text
from genreps import oracle, repeats
from genreps.index import ScerIndex
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
    """Every entry point of the module takes a Text only: a list, a tuple
    or an array of symbols is a TypeError, also a list whose leading -1
    would once have read as a pad."""
    forms = [[-1, 5, -1, 5, 7], [9, 5, 9, 5, 7], runs_text.symbols, np.array(runs_text.padded)]
    calls = [
        lambda f: mismatch_positions(f, 2),
        lambda f: is_k_mismatch_square(f, 1, 2, 0),
        lambda f: uniform_start_intervals(f, 2, 1),
        lambda f: uniform_k_runs(f, 1),
        lambda f: count_uniform_k_runs(f, 1),
        lambda f: k_runs(f, 1),
        generalised_runs,
        mgrs,
        lambda f: mgrs(f, 2),
        repeats.jump_index,
    ]
    for f in forms:
        for call in calls:
            with pytest.raises(TypeError):
                call(f)
    t = text_from_symbols([9, 5, 9, 5, 7])
    assert mismatch_positions(t, 2) == [3]
    assert generalised_runs(text_from_symbols([9, 5, 9, 5])) == [GeneralisedRun(1, 5, 2)]


def test_numpy_k_gives_int_records(runs_text):
    """A numpy integer k gives the records of the same int k, with an int
    k field that serializes to JSON; a float k is a TypeError."""
    for call in (k_runs, uniform_k_runs):
        got, want = call(runs_text, np.int64(2)), call(runs_text, 2)
        assert got == want and all(type(rec.k) is int for rec in got)
        json.dumps([dataclasses.asdict(rec) for rec in got])
        with pytest.raises(TypeError):
            call(runs_text, 2.0)
    assert count_uniform_k_runs(runs_text, np.int64(2)) == count_uniform_k_runs(runs_text, 2)
    with pytest.raises(TypeError):
        count_uniform_k_runs(runs_text, 2.0)


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


# ---------------------------------------------------------------------------
# the sampled enumerators against the per-period scan of uniform_start_intervals


def _scan_reference(t, k, periods):
    """Uniform k-runs (a, b, l, mismatches) and k-runs (a, b, l) of the
    periods, in their order, from uniform_start_intervals: a k-run is a
    maximal chain of touching uniform rows."""
    uniform, runs = [], []
    for ell in periods:
        pos = mismatch_positions(t, ell) if ell <= t.n else []
        rows = uniform_start_intervals(t, ell, k).tolist()
        for a, e in rows:
            inside = pos[bisect.bisect_left(pos, a) : bisect.bisect_left(pos, a + ell)]
            uniform.append((a, e + 2 * ell, ell, tuple(inside)))
        merged = []
        for a, e in rows:
            if merged and merged[-1][1] + 1 == a:
                merged[-1][1] = e
            else:
                merged.append([a, e])
        runs += [(a, e + 2 * ell, ell) for a, e in merged]
    return uniform, runs


def _sampled(t, k, periods=None, index=None):
    uni = [(r.a, r.b, r.ell, r.mismatches) for r in uniform_k_runs(t, k, periods, index)]
    runs = [(r.a, r.b, r.ell) for r in k_runs(t, k, periods, index)]
    assert all(r.k == k for r in k_runs(t, k, periods, index))
    return uni, runs, count_uniform_k_runs(t, k, periods, index)


def _check_against_scan(t, k, periods=None):
    if periods is None:
        asked = range(1, t.n // 2 + 1)
    elif isinstance(periods, numbers.Integral):
        asked = [periods] if 1 <= periods <= t.n // 2 else []
    else:
        asked = sorted({p for p in periods if 1 <= p <= t.n // 2})
    want_uni, want_runs = _scan_reference(t, k, asked)
    uni, runs, count = _sampled(t, k, periods)
    assert uni == want_uni
    assert runs == want_runs
    assert count == len(want_uni)


def _near_periodic(rng, count):
    """Texts of a period-1..5 base with 1-3 positions set to a symbol not in
    it, n <= 160: uniform segments that cross samples with a non-empty
    mismatch set, and segments over many samples that end at a mismatch
    inside the text."""
    texts = []
    for _ in range(count):
        n, p = rng.randint(20, 160), rng.randint(1, 5)
        base = [rng.randrange(3) for _ in range(p)]
        sym = [base[i % p] for i in range(n)]
        for i in rng.sample(range(n), rng.randint(1, 3)):
            sym[i] = 3
        texts.append(text_from_symbols(sym))
    return texts


def _sampled_corpus():
    rng = random.Random(14)
    texts = [random_text(rng, n, sigma) for n in (0, 1, 2, 3) for sigma in (1, 2)]
    texts += [
        random_text(rng, rng.randint(4, 160), rng.choice([1, 2, 3, 4, 26])) for _ in range(24)
    ]
    return texts + _structured_texts() + _near_periodic(rng, 12)


def test_sampled_matches_scan_reference():
    for t in _sampled_corpus():
        for k in (0, 1, 2, 4):
            _check_against_scan(t, k)
        # k above every mismatch count: every window of every period is good
        _check_against_scan(t, t.n + 3)
    # n about 400 at large k: at k = 64 the samples fill three chunks of the cell budget
    rng = random.Random(19)
    texts = [random_text(rng, 400, sigma) for sigma in (2, 4, 26)]
    texts += [text_from_symbols(sym) for sym in ([i % 3 for i in range(401)], fibonacci(398))]
    for t in texts:
        for k in (16, 64):
            _check_against_scan(t, k)


def test_sampled_explicit_periods():
    rng = random.Random(15)
    for _ in range(12):
        t = random_text(rng, rng.randint(0, 90), rng.choice([2, 3]))
        p = rng.randint(1, 20)
        for periods in (p, np.int64(p), range(p, p + 7), [p + 3, p, p], [0, -2, t.n]):
            for k in (0, 2):
                _check_against_scan(t, k, periods)


def test_duplicate_periods_reported_once():
    """A period asked for twice, or out of order, gives the records of the
    sorted distinct periods, on every enumerator and both mgrs paths."""
    rng = random.Random(18)
    texts = [random_text(rng, rng.randint(12, 90), rng.choice([1, 2, 3])) for _ in range(8)]
    texts += [text_from_symbols([i % 3 for i in range(40)]), text_from_symbols(fibonacci(60))]
    seen = 0
    for t in texts:
        for periods, once in (([3, 3], [3]), ([5, 2, 5, 2, 5], range(2, 6, 3)), ([4, 1, 4], [1, 4])):
            for k in (0, 2):
                assert k_runs(t, k, periods) == k_runs(t, k, once)
                assert uniform_k_runs(t, k, periods) == uniform_k_runs(t, k, once)
                assert count_uniform_k_runs(t, k, periods) == count_uniform_k_runs(t, k, once)
            assert generalised_runs(t, periods) == generalised_runs(t, once)
            assert mgrs(t, None, periods) == mgrs(t, None, once)
            assert mgrs(t, 3, periods) == mgrs(t, 3, once)
            seen += count_uniform_k_runs(t, 1, once)
    assert seen > 0


@pytest.mark.parametrize("sigma, k", [(2, 1), (4, 2), (4, 4)])
def test_sampled_long_text(sigma, k):
    """n = 2000; at k = 4 the samples fill two chunks of the cell budget."""
    t = random_text(random.Random(16 + sigma + k), 2000, sigma)
    _check_against_scan(t, k)


def test_sampled_chunk_boundaries(monkeypatch):
    """A budget of a few samples per chunk moves runs and uniform segments
    across chunk boundaries; the records do not change."""
    rng = random.Random(17)
    texts = [random_text(rng, rng.randint(20, 120), rng.choice([1, 2, 3])) for _ in range(8)]
    texts += [text_from_symbols([0] * 80), text_from_symbols(fibonacci(90))]
    texts += _near_periodic(rng, 6)
    want = [[_sampled(t, k) for k in (0, 2, 5)] for t in texts]
    want_m = [mgrs(t, 3) for t in texts]
    monkeypatch.setattr(repeats, "_ROUND_CELLS", 40)
    assert [[_sampled(t, k) for k in (0, 2, 5)] for t in texts] == want
    assert [mgrs(t, 3) for t in texts] == want_m


def test_records_sorted_by_period_and_start(monkeypatch):
    """Every enumerator returns its records in strictly increasing (period,
    start) order, which the CLI prints as it comes, also when a budget of
    a few samples per chunk splits the periods across chunks."""
    rng = random.Random(21)
    texts = [random_text(rng, rng.randint(20, 160), rng.choice([2, 3, 26])) for _ in range(6)]
    texts += _near_periodic(rng, 4) + [text_from_symbols(fibonacci(150))]
    for cells in (repeats._ROUND_CELLS, 40):
        monkeypatch.setattr(repeats, "_ROUND_CELLS", cells)
        for t in texts:
            runs = [call(t, k) for call in (k_runs, uniform_k_runs) for k in (0, 2)]
            reps = [generalised_runs(t), mgrs(t), mgrs(t, 3), mgrs(t, 1.5)]
            keys = [[(r.ell, r.a) for r in recs] for recs in runs]
            keys += [[(r.period, r.x) for r in recs] for recs in reps]
            for key in keys:
                assert all(a < b for a, b in zip(key, key[1:])), t.symbols
            assert len({p for p, _ in keys[3]}) > 1  # uniform 2-runs of several periods


def test_generalised_runs_are_zero_runs():
    for t in _sampled_corpus():
        want = [(r.a, r.b, r.ell) for r in k_runs(t, 0)]
        assert [(g.x, g.y, g.p) for g in generalised_runs(t)] == want
        assert [(g.x, g.y, g.p) for g in generalised_runs(t, range(2, 5))] == [
            r for r in want if 2 <= r[2] <= 4
        ]


def test_bounded_mgrs_filter_unbounded():
    alphas = (1, 2, 3, Fraction(5, 2), 2.7, 0.5, 100)
    for t in _sampled_corpus() + [random_text(random.Random(18), 1200, 2)]:
        all_m = mgrs(t)
        for alpha in alphas:
            bound = Fraction(alpha)
            assert mgrs(t, alpha) == [m for m in all_m if m.ell <= bound * m.arm_len]
        assert mgrs(t, 3, periods=range(4, 9)) == [
            m for m in all_m if 4 <= m.ell <= 8 and m.ell <= 3 * m.arm_len
        ]


def test_shared_jump_index():
    """One jump_index serves every sampled enumerator and every k; an index
    of another text is refused, also one of the same length."""
    t = random_text(random.Random(19), 150, 3)
    jumps = repeats.jump_index(t)
    for k in (0, 2, 3):
        assert _sampled(t, k, index=jumps) == _sampled(t, k)
    assert generalised_runs(t, index=jumps) == generalised_runs(t)
    assert mgrs(t, 2, index=jumps) == mgrs(t, 2)
    other = random_text(random.Random(20), 150, 3)
    for wrong in (text_from_symbols(t.reversed().symbols[1:]), t.reversed(), other):
        for run in (k_runs, uniform_k_runs, count_uniform_k_runs):
            with pytest.raises(ValueError):
                run(t, 1, index=repeats.jump_index(wrong))
        with pytest.raises(ValueError):
            mgrs(t, 2, index=repeats.jump_index(wrong))
    with pytest.raises(ValueError):
        k_runs(t, 1, index=ScerIndex(t, "exact"))
