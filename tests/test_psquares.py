import itertools
import random

import numpy as np
import pytest

from conftest import fibonacci, lcp, random_text
from genreps import oracle
from genreps.counting import count_distinct, count_nonequivalent, squares_table
from genreps.index import ScerIndex, _MinTable
from genreps.psquares import (
    _intersect_pieces,
    _report_from_intervals,
    candidate_intervals,
    report_distinct,
    report_nonequivalent,
    verify_intervals,
)
from genreps.text import parse_text, text_from_symbols


def _cand_positions(cands, ell):
    out = set()
    for lo, hi in cands.get(ell, []):
        out.update(range(lo, hi + 1))
    return out


def _random_family(rng, n):
    """Disjoint closed intervals in [1..n] sorted by lo, some touching."""
    out, lo = [], rng.randint(1, 3)
    while lo <= n and rng.random() < 0.85:
        hi = min(n, lo + rng.choice([0, 0, 1, 2, 5]))
        out.append((lo, hi))
        lo = hi + rng.choice([1, 1, 2, 4])
    return out


def test_intersect_pieces_vs_pairwise():
    """The pieces are the nonempty I ∩ J over all pairs, sorted by lo,
    with adjacent pieces kept apart."""
    rng = random.Random(9)
    cases = [([], []), ([(1, 4)], []), ([], [(2, 2)]), ([(1, 3), (4, 6)], [(2, 5)]),
             ([(3, 3)], [(3, 3)]), ([(1, 2), (3, 3), (4, 9)], [(2, 3), (4, 4), (9, 9)])]
    cases += [(_random_family(rng, n), _random_family(rng, n)) for n in rng.choices(range(1, 30), k=400)]
    for a, b in cases:
        want = sorted(
            (max(alo, blo), min(ahi, bhi))
            for alo, ahi in a
            for blo, bhi in b
            if max(alo, blo) <= min(ahi, bhi)
        )
        got = _intersect_pieces(
            np.array(a, dtype=np.int64).reshape(-1, 2), np.array(b, dtype=np.int64).reshape(-1, 2)
        )
        assert got.dtype == np.int64 and got.shape == (len(want), 2)
        assert got.tolist() == [list(piece) for piece in want], (a, b)
    assert _intersect_pieces(np.array([[1, 3], [4, 6]]), np.array([[2, 5]])).tolist() == [[2, 3], [4, 5]]


def test_candidates_cover_whole_square():
    t = parse_text(b"abcabc")
    cands = candidate_intervals(t)
    assert 1 in _cand_positions(cands, 3)


def test_candidates_cover_param_square(sq_text):
    cands = candidate_intervals(sq_text)
    assert 3 in _cand_positions(cands, 4)


def test_candidate_completeness_exhaustive():
    """No p-square start escapes the candidate intervals, for every text
    over three symbols up to length 8."""
    for n in range(2, 9):
        for word in itertools.product(range(3), repeat=n):
            t = text_from_symbols(word)
            cands = candidate_intervals(t)
            members = oracle.brute_squares_members(t, "param")
            for p, starts in members.items():
                got = _cand_positions(cands, p)
                assert set(starts) <= got, (word, p)


def test_candidate_completeness_random():
    rng = random.Random(2)
    for _ in range(20):
        t = random_text(rng, rng.randint(2, 150), rng.choice([2, 3, 4]))
        cands = candidate_intervals(t)
        members = oracle.brute_squares_members(t, "param")
        for p, starts in members.items():
            assert set(starts) <= _cand_positions(cands, p)


def test_interval_homogeneity():
    """Within every candidate interval, either all starts are p-squares or
    none is."""
    rng = random.Random(3)
    for _ in range(20):
        t = random_text(rng, rng.randint(2, 100), rng.choice([2, 3]))
        cands = candidate_intervals(t)
        s = t.padded
        for ell, pieces in cands.items():
            for lo, hi in pieces:
                flags = {
                    oracle.param_match(
                        s[i : i + ell], s[i + ell : i + 2 * ell]
                    )
                    for i in range(lo, hi + 1)
                }
                assert len(flags) == 1, (t.symbols, ell, lo, hi)


def test_verified_equal_brute_membership():
    rng = random.Random(4)
    for _ in range(20):
        t = random_text(rng, rng.randint(2, 100), rng.choice([2, 3, 4]))
        verified = verify_intervals(t)
        members = oracle.brute_squares_members(t, "param")
        got = {ell: sorted(_cand_positions(verified, ell)) for ell in verified}
        got = {ell: v for ell, v in got.items() if v}
        assert got == members


def test_verify_batch_equals_per_piece_queries():
    """The batch LCP test keeps exactly the pieces that one LCP query per
    piece keeps, in the same order."""
    rng = random.Random(6)
    texts = [random_text(rng, rng.randint(2, 150), rng.choice([2, 3, 4, 26])) for _ in range(20)]
    texts += [text_from_symbols(sym) for n in (2, 17, 60, 233) for sym in ([0] * n, fibonacci(n))]
    for t in texts:
        idx = ScerIndex(t, "param")
        cands = candidate_intervals(t)
        want = {}
        for ell, pieces in cands.items():
            kept = [[lo, hi] for lo, hi in pieces.tolist() if lcp(idx, lo, lo + ell) >= ell]
            if kept:
                want[ell] = kept
        got = verify_intervals(t, cands, idx)
        got = {ell: pieces.tolist() for ell, pieces in got.items()}
        assert got == want and list(got) == list(want), t.symbols


def test_dropped_interval_has_no_squares():
    rng = random.Random(5)
    checked = 0
    for _ in range(30):
        t = random_text(rng, rng.randint(4, 80), rng.choice([2, 3]))
        cands = candidate_intervals(t)
        verified = verify_intervals(t, cands)
        members = oracle.brute_squares_members(t, "param")
        for ell, pieces in cands.items():
            kept = set(map(tuple, verified.get(ell, np.zeros((0, 2))).tolist()))
            for piece in map(tuple, pieces.tolist()):
                if piece not in kept:
                    checked += 1
                    inside = set(range(piece[0], piece[1] + 1))
                    assert not (inside & set(members.get(ell, [])))
    assert checked > 0


def test_empty_text_reports():
    for t in (parse_text(b""), parse_text(b"a")):
        assert report_nonequivalent(t).occurrences == []
        assert report_distinct(t).occurrences == []


def test_report_examples():
    assert report_nonequivalent(parse_text(b"aa")).occurrences == [(1, 2)]
    assert report_nonequivalent(parse_text(b"ab")).occurrences == [(1, 2)]
    occs = report_distinct(parse_text(b"abab")).occurrences
    assert occs == [(1, 2), (2, 2), (1, 4)]  # "ab", "ba", "abab"


def test_report_random_vs_oracle():
    rng = random.Random(6)
    texts = [random_text(rng, rng.randint(0, 150), rng.choice([2, 3, 4])) for _ in range(25)]
    # texts where one verified piece holds many reports
    texts += [text_from_symbols(fibonacci(n)) for n in (34, 89, 144)]
    texts.append(text_from_symbols([bin(i).count("1") % 2 for i in range(128)]))  # Thue-Morse
    for t in texts:
        got = report_nonequivalent(t).occurrences
        assert got == oracle.brute_nonequivalent_leftmost(t, "param")
        gotd = report_distinct(t).occurrences
        assert gotd == oracle.brute_distinct_leftmost(t, "param")


def test_reported_squares_verify_and_class_bound():
    rng = random.Random(7)
    for _ in range(15):
        t = random_text(rng, rng.randint(0, 90), rng.choice([2, 3, 4, 5]))
        rep = report_nonequivalent(t)
        s = t.padded
        assert rep.count < max(1, t.n * t.sigma)
        for i, length in rep.occurrences:
            ell = length // 2
            assert oracle.param_match(s[i : i + ell], s[i + ell : i + 2 * ell])
        # pairwise non-equivalent: canonical codes differ per length
        rows = oracle.canonical_rows(t, "param")
        seen = set()
        for i, length in rep.occurrences:
            key = (length, tuple(rows[i][:length]))
            assert key not in seen
            seen.add(key)


def test_report_order_deterministic():
    t = parse_text(b"abaababaab")
    occ = report_nonequivalent(t).occurrences
    assert occ == sorted(occ, key=lambda o: (o[1], o[0]))


def _table_corpus():
    """Random texts (sigma in 1, 2, 3, 4, 26; n <= 300) and unary,
    period-2/3, Fibonacci, Thue-Morse and decreasing texts to n=2000."""
    rng = random.Random(14)
    texts = [random_text(rng, rng.randint(0, 300), sigma) for sigma in (1, 2, 3, 4, 26) for _ in range(12)]
    for n in (2, 3, 17, 64, 257, 2000):
        texts += [
            text_from_symbols(sym)
            for sym in (
                [0] * n,
                [i % 2 for i in range(n)],
                [i % 3 for i in range(n)],
                fibonacci(n),
                [bin(i).count("1") % 2 for i in range(n)],
                list(range(n, 0, -1)),
            )
        ]
    return texts


def test_table_equals_reference_construction():
    """The param square table holds exactly the starts that the paper's
    profile construction (candidates, then verification) finds."""
    for t in _table_corpus():
        table = squares_table(ScerIndex(t, "param"))
        verified = verify_intervals(t, candidate_intervals(t))
        for ell in range(1, t.n // 2 + 1):
            assert sorted(_cand_positions(verified, ell)) == table.positions(ell), (t.symbols, ell)


def test_report_reads_the_given_table():
    """A passed table is the report's only source of starts, and its
    periods are the table's maximal intervals."""
    rng = random.Random(8)
    for _ in range(10):
        t = random_text(rng, rng.randint(2, 120), rng.choice([2, 3, 4]))
        index = ScerIndex(t, "param")
        table = squares_table(index)
        rep = report_nonequivalent(t, table=table)
        assert rep.periods is table.intervals
        assert rep.occurrences == report_nonequivalent(t).occurrences
        rep = report_distinct(t, exact_index=ScerIndex(t, "exact"), table=table)
        assert rep.periods is table.intervals
        assert rep.occurrences == report_distinct(t).occurrences


def _param_count(count):
    return lambda t, **kw: count(t, "param", **kw)


@pytest.mark.parametrize(
    "entry, distinct",
    [
        pytest.param(report_nonequivalent, False, id="report_nonequivalent"),
        pytest.param(report_distinct, True, id="report_distinct"),
        pytest.param(_param_count(count_nonequivalent), False, id="count_nonequivalent"),
        pytest.param(_param_count(count_distinct), True, id="count_distinct"),
    ],
)
def test_report_rejects_foreign_table(entry, distinct):
    """A table of another relation or of another text, of another length
    or of the same one, is a ValueError, also for texts too short to hold
    a square; so is an exact index that is not the text's."""
    t = parse_text(b"abaabbabab")
    u = parse_text(b"aabbabbaba")  # as long as t, with other p-squares
    own = squares_table(ScerIndex(t, "param"))
    foreign = [
        squares_table(ScerIndex(t, "exact")),
        squares_table(ScerIndex(t, "op")),
        squares_table(ScerIndex(parse_text(b"abaabbababa"), "param")),
        squares_table(ScerIndex(u, "param")),
    ]
    for table in foreign:
        with pytest.raises(ValueError, match="param square table"):
            entry(t, table=table)
    with pytest.raises(ValueError, match="param square table"):
        entry(parse_text(b"a"), table=foreign[2])
    if distinct:
        for exact_index in (ScerIndex(u, "exact"), ScerIndex(t, "param"), own.index):
            for table in (None, own):
                with pytest.raises(ValueError, match="exact index"):
                    entry(t, table=table, exact_index=exact_index)
        got = entry(t, table=own, exact_index=ScerIndex(t, "exact"))
        want = oracle.brute_distinct_leftmost(t, "param")
    else:
        got = entry(t, table=own)
        want = oracle.brute_nonequivalent_leftmost(t, "param")
    got = getattr(got, "occurrences", got)  # a report's occurrences, or a count
    assert got == (want if isinstance(got, list) else len(want))


def test_report_split_work_follows_output(monkeypatch):
    """The split makes at most floor(log2 m) + 1 batch queries (m =
    len(lpf)), since a range at least halves per round, over at most
    #intervals + 4·#reports ranges: the first query covers the intervals,
    and each report passes on at most two parts, each as two halves."""
    rng = random.Random(10)
    texts = [random_text(rng, rng.randint(2, 400), rng.choice([2, 3, 4, 26])) for _ in range(15)]
    texts += [text_from_symbols(sym) for n in (50, 300) for sym in ([0] * n, [i % 3 for i in range(n)], fibonacci(n))]
    calls, ranges = [0], [0]
    query_batch = _MinTable.query_batch

    def counted(self, lo, hi):
        calls[0] += 1
        ranges[0] += len(lo)
        return query_batch(self, lo, hi)

    total = 0
    for t in texts:
        index = ScerIndex(t, "param")
        table = squares_table(index)
        intervals = sum(len(rows) for rows in table.intervals.values())
        for lpf in (index.lpf(), ScerIndex(t, "exact").lpf()):
            calls[0] = ranges[0] = 0
            with monkeypatch.context() as m:
                m.setattr(_MinTable, "query_batch", counted)
                occs = _report_from_intervals(table.intervals, lpf)
            assert len(occs) > 0
            assert calls[0] <= len(lpf).bit_length(), (t.symbols, calls[0], len(lpf))
            assert ranges[0] <= intervals + 4 * len(occs), (t.symbols, ranges[0], intervals, len(occs))
            total += len(occs)
    assert total > 0
