import math
import random
import re
import zlib

import numpy as np
import pytest

from conftest import fibonacci, random_text
from genreps import counting, encodings, oracle, repeats
from genreps.counting import (
    count_distinct,
    count_nonequivalent,
    reversed_index,
    right_nonextendible,
    right_nonshiftable,
    squares_table,
    sweep_count,
)
from genreps.encodings import RELATIONS
from genreps.index import ScerIndex
from genreps.oracle import CursorCounter
from genreps.psquares import report_distinct, report_nonequivalent
from genreps.text import parse_text, text_from_symbols


def test_nonextendible_examples():
    aa = ScerIndex(parse_text(b"aa"), "exact")
    assert right_nonextendible(aa).tolist() == [[1, 1]]
    aaa = ScerIndex(parse_text(b"aaa"), "exact")
    # the square at 1 with p=1 is right extendible (lcp 2 != 1)
    assert [1, 1] not in right_nonextendible(aaa).tolist()


def test_nonextendible_random_vs_lcp_definition():
    rng = random.Random(1)
    texts = [random_text(rng, rng.randint(0, 60), rng.choice([2, 3])) for _ in range(10)]
    texts += [random_text(rng, n, sigma) for n in range(17, 21) for sigma in (1, 2, 3)]
    texts += [random_text(rng, rng.randint(290, 310), 2) for _ in range(3)]
    for n in (1, 2, 7, 16, 17, 64, 150):
        texts += [text_from_symbols(sym) for sym in (
            [0] * n, [i % 2 for i in range(n)], [i % 3 for i in range(n)], fibonacci(n)
        )]
    for t in texts:
        # every square (i, p) of the text, sorted by (i, p)
        i, p = np.meshgrid(np.arange(1, t.n + 1), np.arange(1, t.n // 2 + 1), indexing="ij")
        fits = i + 2 * p - 1 <= t.n
        i, p = i[fits], p[fits]
        for rel in RELATIONS:
            fwd = ScerIndex(t, rel)
            for idx in (fwd, reversed_index(fwd)):
                # the definition, one batch LCP query over all pairs (i, i+p):
                # the rows come sorted by (i, p), each pair once
                hit = idx.lcp_batch(i, i + p) == p
                want = np.stack((i[hit], p[hit]), axis=1).tolist()
                assert right_nonextendible(idx).tolist() == want, (idx.relation, t.symbols)


def test_reversed_pal_index_reuses_mirrored_radii(monkeypatch):
    """The reversed pal index takes the text's palindrome radii, mirrored,
    and equals the pal index built on the reversed text."""
    rng = random.Random(31)
    texts = [random_text(rng, rng.randint(0, 60), rng.choice([1, 2, 3])) for _ in range(40)]
    texts += [text_from_symbols(fibonacci(n)) for n in (1, 2, 13, 34)]
    for t in texts:
        fwd = ScerIndex(t, "pal")
        want = ScerIndex(t.reversed(), "pal")
        with monkeypatch.context() as m:
            m.setattr(encodings, "maximal_palindromes", None)  # no second radii pass
            got = reversed_index(fwd)
        assert got.relation == "pal"
        assert got.order.tolist() == want.order.tolist(), t.symbols
        assert got.lcp.tolist() == want.lcp.tolist(), t.symbols


@pytest.mark.parametrize(
    "name, rel",
    [("unary", "exact"), ("unary", "param"), ("period2", "exact"), ("fib", "ct")],
)
def test_nonextendible_work_bound(name, rel):
    """Small-to-large: the pass probes from every child range but a largest
    one, so each suffix lies in at most ceil(log2(n+2)) of the ranges it
    expands, and their sizes sum to at most (n+1)·ceil(log2(n+2))."""
    sym = {
        "unary": [0] * 3000,
        "period2": [i % 2 for i in range(3000)],
        "fib": fibonacci(2584),
    }[name]
    idx = ScerIndex(text_from_symbols(sym), rel)
    _, _, a, b, _ = counting._probe_ranges(idx)
    n = idx.n
    assert int((b - a).sum()) <= (n + 1) * math.ceil(math.log2(n + 2))


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_nonextendible_probe_chunks_within_budget(monkeypatch, budget):
    """Every probe chunk holds at most the cell budget, the chunks together
    hold each cell of the expanded child ranges once, and the pairs found
    do not depend on the budget."""
    rng = random.Random(budget)
    for t in [random_text(rng, 120, 2), text_from_symbols([0] * 80), text_from_symbols(fibonacci(89))]:
        idx = ScerIndex(t, "param")
        want = right_nonextendible(idx).tolist()
        ranges = counting._probe_ranges(idx)
        a, b = ranges[2], ranges[3]
        cells = [(c, x) for c in range(len(a)) for x in range(a[c], b[c])]
        monkeypatch.setattr(counting, "_ROUND_CELLS", budget)
        chunks = list(counting._probe_chunks(ranges))
        assert all(len(child) == len(pos) <= budget for child, pos in chunks)
        assert [(int(c), int(x)) for child, pos in chunks for c, x in zip(child, pos)] == cells
        assert right_nonextendible(idx).tolist() == want
        monkeypatch.undo()


def test_nonshiftable_unary():
    from genreps.counting import nonshiftable_sets

    idx = ScerIndex(parse_text(b"aaaa"), "exact")
    assert right_nonshiftable(idx).tolist() == [[1, 2], [3, 1]]
    sets = nonshiftable_sets(idx)
    assert sets[1] == ([1], [3])  # L_1 = {1}, R_1 = {3}
    table = squares_table(idx)
    assert table.intervals[1].tolist() == [[1, 3]]
    assert table.intervals[2].tolist() == [[1, 1]]


def test_boundary_square_nonshiftable():
    idx = ScerIndex(parse_text(b"abab"), "exact")
    table = squares_table(idx)
    assert {p: ivs.tolist() for p, ivs in table.intervals.items()} == {2: [[1, 1]]}


def _pairing_error(lefts, rights):
    """The first pairing failure of a per-p loop over sorted starts, or None."""
    by_p = {}
    for side, pairs in ((0, lefts), (1, rights)):
        for i, p in pairs:
            by_p.setdefault(p, ([], []))[side].append(i)
    for p, (left, right) in sorted(by_p.items()):
        if len(left) != len(right):
            return f"unbalanced interval endpoints for p={p}: {len(left)} left vs {len(right)} right"
        for lo, hi in zip(sorted(left), sorted(right)):
            if lo > hi:
                return f"crossed interval [{lo}..{hi}] for p={p}"
    return None


def test_pairing_checks_match_per_p_loop():
    """The vectorized checks raise the failure a per-p loop meets first."""
    rng = random.Random(17)
    raised = 0
    for _ in range(3000):
        lefts = [(rng.randrange(10), rng.randrange(1, 4)) for _ in range(rng.randrange(6))]
        rights = [(rng.randrange(10), rng.randrange(1, 4)) for _ in range(rng.randrange(6))]
        sides = []
        for pairs in (lefts, rights):
            arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            sides += list(arr[np.lexsort((arr[:, 0], arr[:, 1]))].T)
        lo, lp, hi, rp = sides
        want = _pairing_error(lefts, rights)
        if want is None:
            counting._check_pairing(lo, lp, hi, rp)
        else:
            raised += 1
            with pytest.raises(AssertionError, match=re.escape(want)):
                counting._check_pairing(lo, lp, hi, rp)
    assert raised > 1000


def test_squares_table_examples(sq_text):
    table = squares_table(ScerIndex(sq_text, "param"))
    assert table.contains(3, 4)  # the p-square of half-length 4 at position 3
    op_table = squares_table(ScerIndex(sq_text, "op"))
    assert op_table.contains(1, 3) and not op_table.contains(3, 4)
    ct_table = squares_table(ScerIndex(sq_text, "ct"))
    assert ct_table.contains(8, 3)
    pal_table = squares_table(ScerIndex(sq_text, "pal"))
    assert pal_table.contains(1, 3) and not pal_table.contains(8, 3)


@pytest.mark.parametrize("relation", RELATIONS)
def test_squares_table_random_vs_oracle(relation):
    rng = random.Random(zlib.crc32(relation.encode()) & 0xFFF)
    texts = [random_text(rng, rng.randint(0, 70), rng.choice([2, 3, 4])) for _ in range(10)]
    texts += [random_text(rng, n, sigma) for n in range(17, 21) for sigma in (1, 2, 3)]
    for t in texts:
        table = squares_table(ScerIndex(t, relation))
        got = {p: table.positions(p) for p in table.intervals}
        got = {p: v for p, v in got.items() if v}
        assert got == oracle.brute_squares_members(t, relation), t.symbols


def test_exact_table_equals_zero_runs():
    """Past the oracle's cap, the exact squares table is the 0-runs: its
    intervals of half-period p are the (first, last start) rows of period p
    from the sampled jumps of `repeats`, an independent route."""
    rng = random.Random(17)
    texts = [random_text(rng, 10_000, sigma) for sigma in (1, 2, 4, 26)]
    texts += [text_from_symbols(sym) for sym in ([i % 3 for i in range(3000)], fibonacci(3000), [], [0])]
    for t in texts:
        table = squares_table(ScerIndex(t, "exact"))
        ells, first, last = repeats._k_run_rows(t, 0, None, None)
        runs: dict[int, list[list[int]]] = {}
        for ell, a, b in zip(ells.tolist(), first.tolist(), last.tolist()):
            runs.setdefault(ell, []).append([a, b])
        assert runs == {p: ivs.tolist() for p, ivs in table.intervals.items()}, (t.n, t.sigma)


@pytest.mark.parametrize("relation", RELATIONS)
def test_squares_table_contains_equals_positions(relation):
    """contains(i, p) answers i in positions(p) for every start and every
    half-period, one past n/2 included."""
    rng = random.Random(23)
    texts = [random_text(rng, rng.randint(0, 120), rng.choice([1, 2, 3, 4, 26])) for _ in range(6)]
    for n in (1, 2, 7, 60, 120):
        texts += [text_from_symbols(sym) for sym in ([0] * n, [i % 2 for i in range(n)], fibonacci(n))]
    for t in texts:
        table = squares_table(ScerIndex(t, relation))
        for p in range(1, t.n // 2 + 2):
            members = set(table.positions(p))
            assert [table.contains(i, p) for i in range(1, t.n + 1)] == [
                i in members for i in range(1, t.n + 1)
            ], (t.symbols, p)


def test_interval_endpoint_duality():
    """Interval endpoints are exactly the non-shiftable square starts."""
    rng = random.Random(5)
    for _ in range(8):
        t = random_text(rng, rng.randint(2, 50), rng.choice([2, 3]))
        for rel in ("exact", "param", "ct"):
            idx = ScerIndex(t, rel)
            table = squares_table(idx)
            members = oracle.brute_squares_members(t, rel)
            for p, ivs in table.intervals.items():
                want = oracle.members_to_intervals(members.get(p, []))
                assert ivs.tolist() == [list(iv) for iv in want]


def test_cursor_counter_basics():
    c = CursorCounter(10)
    assert c.insert(5) == 1
    for _ in range(4):
        c.inc()
    assert c.count == 1
    assert c.inc() == 0  # cursor reaches 5
    assert c.dec() == 1
    assert c.delete(5) == 0


def test_cursor_counter_errors():
    c = CursorCounter(4)
    c.insert(2)
    with pytest.raises(ValueError):
        c.insert(2)
    with pytest.raises(ValueError):
        c.delete(3)
    with pytest.raises(ValueError):
        c.insert(5)
    with pytest.raises(ValueError):
        c.dec()
    for _ in range(4):
        c.inc()
    with pytest.raises(ValueError):
        c.inc()


def test_cursor_counter_random_ops_vs_recount():
    rng = random.Random(9)
    n = 64
    c = CursorCounter(n)
    present: set[int] = set()
    cursor = 0
    for _ in range(10_000):
        ops = []
        if len(present) < n:
            ops.append("ins")
        if present:
            ops.append("del")
        if cursor < n:
            ops.append("inc")
        if cursor > 0:
            ops.append("dec")
        op = rng.choice(ops)
        if op == "ins":
            x = rng.choice([v for v in range(1, n + 1) if v not in present])
            got = c.insert(x)
            present.add(x)
        elif op == "del":
            x = rng.choice(sorted(present))
            got = c.delete(x)
            present.remove(x)
        elif op == "inc":
            got = c.inc()
            cursor += 1
        else:
            got = c.dec()
            cursor -= 1
        assert got == len([v for v in present if v > cursor])


def test_count_examples():
    t = parse_text(b"aaaa")
    assert count_nonequivalent(t, "exact") == 2
    assert count_distinct(text_from_symbols([0] * 8), "exact") == 4
    t2 = parse_text(b"abab")
    assert count_distinct(t2, "exact") == 1
    assert count_distinct(t2, "param") == 3
    assert count_nonequivalent(parse_text(b""), "param") == 0


def test_count_all_relations_example(sq_text):
    for rel in RELATIONS:
        assert count_nonequivalent(sq_text, rel) == oracle.brute_count_nonequivalent(
            sq_text, rel
        )
        assert count_distinct(sq_text, rel) == oracle.brute_count_distinct(sq_text, rel)


@pytest.mark.parametrize("relation", RELATIONS)
def test_count_random_vs_oracle(relation):
    rng = random.Random(len(relation))
    for _ in range(10):
        t = random_text(rng, rng.randint(0, 64), rng.choice([2, 3, 4]))
        assert count_nonequivalent(t, relation) == oracle.brute_count_nonequivalent(
            t, relation
        )
        assert count_distinct(t, relation) == oracle.brute_count_distinct(t, relation)


def test_sweep_equals_naive_rangecount():
    rng = random.Random(11)
    for _ in range(10):
        t = random_text(rng, rng.randint(2, 60), rng.choice([2, 3]))
        for rel in ("exact", "param", "pal"):
            idx = ScerIndex(t, rel)
            table = squares_table(idx)
            lpf = idx.lpf()
            got = sweep_count(table, lpf)
            assert got == oracle.naive_rangecount_sum(table.intervals, lpf, t.n)
            assert got == oracle.cursor_sweep_count(table.intervals, lpf, t.n)


def test_count_agrees_with_report():
    rng = random.Random(13)
    for _ in range(10):
        t = random_text(rng, rng.randint(0, 60), rng.choice([2, 3, 4]))
        assert count_nonequivalent(t, "param") == report_nonequivalent(t).count


def _rows_nest(inner: dict, outer: dict, n: int) -> bool:
    """Does every row of the family `inner` lie inside a row of `outer` with
    the same half-period?  One searchsorted over outer's (p, lo) keys."""
    h1, lo1, hi1 = counting._flatten(inner)
    h2, lo2, hi2 = counting._flatten(outer)
    at = np.searchsorted(h2 * (n + 1) + lo2, h1 * (n + 1) + lo1, side="right") - 1
    return bool((at >= 0).all() and (h2[at] == h1).all() and (hi1 <= hi2[at]).all())


@pytest.mark.parametrize(
    "name", ["random2", "random4", "random26", "fibonacci", "period3"]
)
def test_invariants_past_oracle_cap(name):
    """Checks that need no brute force, on texts 10-25x past the oracle cap:
    every table's rows are disjoint maximal intervals; the square sets nest
    as exact <= param <= pal and exact <= op <= ct, per half-period and in
    their distinct counts; no relation has more classes than distinct
    squares, and param fewer than n*sigma; the param reports list as many
    occurrences as the param counts; and T and its reversal have equal
    counts under every relation closed under reversal (ct is not: with
    ties, Cartesian-tree matching is not)."""
    rng = random.Random(zlib.crc32(name.encode()))
    t = {
        "random2": lambda: random_text(rng, 5000, 2),
        "random4": lambda: random_text(rng, 4000, 4),
        "random26": lambda: random_text(rng, 3000, 26),
        "fibonacci": lambda: text_from_symbols(fibonacci(2584)),
        "period3": lambda: text_from_symbols([i % 3 for i in range(3000)]),
    }[name]()
    counts = {}
    for text, rels in ((t, RELATIONS), (t.reversed(), ("exact", "param", "op", "pal"))):
        tables = {rel: squares_table(ScerIndex(text, rel)) for rel in rels}
        exact_index = tables["exact"].index
        for rel, table in tables.items():
            # per half-period, the rows are disjoint and non-adjacent, sorted by lo
            half, lo, hi = counting._flatten(table.intervals)
            assert (lo <= hi).all() and ((half[1:] > half[:-1]) | (lo[1:] > hi[:-1] + 1)).all(), rel
            counts[text, rel] = (
                count_nonequivalent(text, rel, table=table),
                count_distinct(text, rel, table=table, exact_index=exact_index),
            )
        if text is t:
            for chain in (("exact", "param", "pal"), ("exact", "op", "ct")):
                for inner, outer in zip(chain, chain[1:]):
                    assert _rows_nest(tables[inner].intervals, tables[outer].intervals, t.n), (inner, outer)
                    assert counts[t, inner][1] <= counts[t, outer][1], (inner, outer)
            # the p-square reports list one occurrence per counted square
            reports = (
                report_nonequivalent(t, table=tables["param"]),
                report_distinct(t, table=tables["param"], exact_index=exact_index),
            )
            assert tuple(len(r.occurrences) for r in reports) == counts[t, "param"]
    for rel in RELATIONS:
        nonequivalent, distinct = counts[t, rel]
        assert nonequivalent <= distinct, rel
        if rel != "ct":
            assert counts[t.reversed(), rel] == (nonequivalent, distinct), rel
    assert counts[t, "param"][0] < t.n * t.sigma
