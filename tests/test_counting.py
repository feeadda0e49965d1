import math
import random

import pytest

from conftest import fibonacci, random_text
from genreps import oracle
from genreps.counting import (
    CursorCounter,
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
from genreps.text import parse_text, text_from_symbols


def test_nonextendible_examples():
    aa = ScerIndex(parse_text(b"aa"), "exact")
    assert right_nonextendible(aa) == [(1, 1)]
    aaa = ScerIndex(parse_text(b"aaa"), "exact")
    # the square at 1 with p=1 is right extendible (lcp 2 != 1)
    assert (1, 1) not in right_nonextendible(aaa)


def test_nonextendible_random_vs_lcp_definition():
    rng = random.Random(1)
    texts = [random_text(rng, rng.randint(0, 60), rng.choice([2, 3])) for _ in range(10)]
    texts += [random_text(rng, rng.randint(290, 310), 2) for _ in range(3)]
    for n in (1, 2, 7, 16, 17, 64, 150):
        texts += [text_from_symbols(sym) for sym in (
            [0] * n, [i % 2 for i in range(n)], [i % 3 for i in range(n)], fibonacci(n)
        )]
    for t in texts:
        for rel in RELATIONS:
            fwd = ScerIndex(t, rel)
            for idx in (fwd, reversed_index(fwd)):
                got = set(right_nonextendible(idx))
                want = set()
                for i in range(1, t.n + 1):
                    for p in range(1, (t.n - i + 1) // 2 + 1):
                        if idx.lcp_suffixes(i, i + p) == p:
                            want.add((i, p))
                assert got == want, (idx.relation, t.symbols)


class _CountingList(list):
    """A list that counts the cells read through indexing and slicing."""

    reads = 0

    def __getitem__(self, key):
        got = super().__getitem__(key)
        self.reads += len(got) if isinstance(key, slice) else 1
        return got


@pytest.mark.parametrize(
    "name, rel",
    [("unary", "exact"), ("unary", "param"), ("period2", "exact"), ("fib", "ct")],
)
def test_nonextendible_work_bound(name, rel):
    """Small-to-large: the pass reads each suffix of the order at most
    ceil(log2(n+2)) times, since it scans only the non-largest children."""
    sym = {
        "unary": [0] * 3000,
        "period2": [i % 2 for i in range(3000)],
        "fib": fibonacci(2584),
    }[name]
    idx = ScerIndex(text_from_symbols(sym), rel)
    want = right_nonextendible(idx)
    idx.order = _CountingList(idx.order)
    assert right_nonextendible(idx) == want
    n = idx.n
    assert idx.order.reads <= (n + 1) * math.ceil(math.log2(n + 2))


def test_nonshiftable_unary():
    from genreps.counting import nonshiftable_sets

    idx = ScerIndex(parse_text(b"aaaa"), "exact")
    assert set(right_nonshiftable(idx)) == {(1, 2), (3, 1)}
    sets = nonshiftable_sets(idx)
    assert sets[1] == ([1], [3])  # L_1 = {1}, R_1 = {3}
    table = squares_table(idx)
    assert table.intervals[1] == [(1, 3)]
    assert table.intervals[2] == [(1, 1)]


def test_boundary_square_nonshiftable():
    idx = ScerIndex(parse_text(b"abab"), "exact")
    table = squares_table(idx)
    assert table.intervals == {2: [(1, 1)]}


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
    rng = random.Random(hash(relation) & 0xFFF)
    for _ in range(10):
        t = random_text(rng, rng.randint(0, 70), rng.choice([2, 3, 4]))
        table = squares_table(ScerIndex(t, relation))
        got = {p: table.positions(p) for p in table.intervals}
        got = {p: v for p, v in got.items() if v}
        assert got == oracle.brute_squares_members(t, relation), t.symbols


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
                assert ivs == want


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
            assert sweep_count(table, lpf, t.n) == oracle.naive_rangecount_sum(
                table.intervals, lpf, t.n
            )


def test_count_agrees_with_report():
    from genreps.psquares import report_nonequivalent

    rng = random.Random(13)
    for _ in range(10):
        t = random_text(rng, rng.randint(0, 60), rng.choice([2, 3, 4]))
        assert count_nonequivalent(t, "param") == report_nonequivalent(t).count
