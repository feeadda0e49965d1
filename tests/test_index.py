import itertools
import math
import random

import numpy as np
import pytest

from conftest import fibonacci, random_text
from genreps import index, oracle
from genreps.encodings import RELATIONS, make_encoder
from genreps.index import ScerIndex, _lcp_from_rows, _sort_rows, lpf_arrays
from genreps.text import parse_text, text_from_symbols


def test_exact_index_is_suffix_array():
    t = parse_text(b"aaa")
    idx = ScerIndex(t, "exact")
    # sentinel suffix first, then by plain suffix order
    assert list(idx.order) == [4, 3, 2, 1]
    assert list(idx.lcp) == [0, 0, 1, 2]


def test_empty_text_index():
    for rel in RELATIONS:
        idx = ScerIndex(parse_text(b""), rel)
        assert list(idx.order) == [1]
        assert idx.lcp_suffixes(1, 1) == 0


def test_adjacent_lcp_matches_definition():
    rng = random.Random(4)
    for _ in range(12):
        t = random_text(rng, rng.randint(1, 48), rng.choice([2, 3]))
        for rel in RELATIONS:
            idx = ScerIndex(t, rel)
            rows = oracle.canonical_rows(t, rel)
            for r in range(1, len(idx.order)):
                a, b = int(idx.order[r - 1]), int(idx.order[r])
                want = (
                    oracle.brute_lcp(rows, a, b)
                    if a <= t.n and b <= t.n
                    else 0
                )
                assert int(idx.lcp[r]) == want


def test_lcp_suffixes_reflexive_and_example(sq_text):
    idx = ScerIndex(sq_text, "param")
    assert idx.lcp_suffixes(3, 3) == sq_text.n - 3 + 1
    assert idx.lcp_suffixes(3, 7) >= 4


def test_lcp_suffixes_all_pairs_small():
    rng = random.Random(6)
    for _ in range(6):
        t = random_text(rng, rng.randint(1, 28), rng.choice([2, 3]))
        for rel in RELATIONS:
            idx = ScerIndex(t, rel)
            rows = oracle.canonical_rows(t, rel)
            for i in range(1, t.n + 1):
                for j in range(1, t.n + 1):
                    want = (
                        t.n - i + 1 if i == j else oracle.brute_lcp(rows, i, j)
                    )
                    assert idx.lcp_suffixes(i, j) == want


def test_lpf_examples():
    t = parse_text(b"aaaa")
    arrs = lpf_arrays(ScerIndex(t, "exact"))
    assert list(arrs.approx[1:]) == [0, 3, 2, 1]
    assert list(arrs.exact[1:]) == [0, 3, 2, 1]


def test_lpf_first_position_zero():
    t = parse_text(b"xyzzy")
    for rel in RELATIONS:
        assert ScerIndex(t, rel).lpf()[1] == 0


def test_lpf_random_vs_brute():
    rng = random.Random(8)
    for _ in range(8):
        t = random_text(rng, rng.randint(1, 40), rng.choice([2, 3]))
        for rel in RELATIONS:
            got = list(ScerIndex(t, rel).lpf()[1:])
            assert got == oracle.brute_lpf(t, rel)[1:], (rel, t.symbols)


def test_lpf_oscillation_and_step():
    rng = random.Random(12)
    for _ in range(8):
        t = random_text(rng, rng.randint(2, 80), rng.choice([2, 3, 4]))
        for rel in RELATIONS:
            lpf = ScerIndex(t, rel).lpf()
            n = t.n
            for i in range(1, n):
                assert lpf[i + 1] >= lpf[i] - 1
            osc = sum(abs(int(lpf[i + 1]) - int(lpf[i])) for i in range(1, n))
            assert osc < 3 * n


def test_tree_lca_weights_match_lcp():
    rng = random.Random(10)
    for _ in range(6):
        t = random_text(rng, rng.randint(2, 30), rng.choice([2, 3]))
        for rel in ("exact", "param", "pal"):
            idx = ScerIndex(t, rel)
            tree = idx.tree()
            assert [tree.leaf_start for _ in [0]]  # tree built
            starts = list(idx.order)
            for _ in range(60):
                i, j = rng.sample(starts, 2)
                assert tree.lca_weight(i, j) == idx.lcp_suffixes(i, j)


def test_tree_leaf_order_matches_index():
    t = parse_text(b"banana")
    idx = ScerIndex(t, "exact")
    tree = idx.tree()
    leaves = [v for v in range(len(tree.weight)) if not tree.children[v]]
    leaves.sort(key=lambda v: tree.leaf_lo[v])
    assert [tree.leaf_start[v] for v in leaves] == list(idx.order)


def test_order_invariant_under_alphabet_bijection():
    rng = random.Random(14)
    for _ in range(8):
        n = rng.randint(2, 40)
        t = random_text(rng, n, 4)
        perm = list(range(4))
        rng.shuffle(perm)
        t2 = text_from_symbols([perm[c] for c in t.symbols])
        a = ScerIndex(t, "param")
        b = ScerIndex(t2, "param")
        assert list(a.order) == list(b.order)
        assert list(a.lcp) == list(b.lcp)


def _materialized(t, rel):
    order, rows = _sort_rows(make_encoder(t, rel), t.n)
    return order, _lcp_from_rows(order, rows)


def test_large_path_equals_materialized():
    """Above the tiny-text cut-off, prefix doubling (exact) and the block
    sort (every other relation) must agree with the materialized rows."""
    rng = random.Random(16)
    for rel in ("exact", "param", "ct", "ct_suffix", "op", "pal", "recency"):
        n = rng.randint(280, 420)
        t = random_text(rng, n, rng.choice([2, 3, 4]))
        idx = ScerIndex(t, rel)
        order, lcp = _materialized(t, rel)
        assert list(idx.order) == order, rel
        assert list(idx.lcp) == lcp, rel


def test_large_path_degenerate_texts():
    for syms in ([0] * 300, [0, 1] * 160, [0, 0, 1] * 110):
        t = text_from_symbols(syms)
        for rel in ("exact", "param", "ct", "ct_suffix", "op", "pal"):
            idx = ScerIndex(t, rel)
            order, lcp = _materialized(t, rel)
            assert list(idx.order) == order, rel
            assert list(idx.lcp) == lcp, rel


def test_block_sort_narrow_rounds(monkeypatch):
    """One column per round and a budget far below the tied rows: many
    rounds, many tie groups per round, on every non-exact relation."""
    monkeypatch.setattr(index, "_TINY_N", 0)
    monkeypatch.setattr(index, "_START_DEPTH", 1)
    monkeypatch.setattr(index, "_ROUND_CELLS", 16)
    rng = random.Random(20)
    for _ in range(400):
        t = random_text(rng, rng.randint(0, 70), rng.choice([1, 2, 3, 4]))
        for rel in ("param", "op", "ct", "ct_suffix", "pal", "recency"):
            idx = ScerIndex(t, rel)
            order, lcp = _materialized(t, rel)
            assert list(idx.order) == order, (rel, t.symbols)
            assert list(idx.lcp) == lcp, (rel, t.symbols)


@pytest.mark.parametrize(
    "name, rel",
    [("random2", "param"), ("fib", "param"), ("fib", "ct"), ("unary", "pal")],
)
def test_block_sort_work_bound(name, rel):
    """Rounds grow with log(max LCP) and cells with the LCP sum.

    The depth doubles each round unless the cell budget narrows it, so
    the rounds not narrowed are at most log2(1 + max LCP / start) + 1.
    A suffix still tied after a round has an LCP of at least the columns
    read so far, so it reads at most the start depth plus twice its
    longer LCP with a sorted neighbour; on these texts the total stays
    under 2 * sum(lcp) + start * (n + 1).
    """
    if name == "random2":
        t = random_text(random.Random(22), 11000, 2)
    else:
        t = text_from_symbols(fibonacci(377) if name == "fib" else [0] * 389)
    enc = make_encoder(t, rel)
    calls = []
    block = enc.code_block

    def counted(starts, t0, depth):
        calls.append((len(starts), t0, depth))
        return block(starts, t0, depth)

    enc.code_block = counted
    idx = ScerIndex(t, rel, encoder=enc)
    start, budget = index._START_DEPTH, index._ROUND_CELLS
    narrowed = sum(1 for m, t0, d in calls if d < t0 + start and d == max(1, budget // m))
    assert len(calls) - narrowed <= math.ceil(math.log2(1 + max(idx.lcp) / start)) + 1
    assert sum(m * d for m, _, d in calls) <= 2 * sum(idx.lcp) + start * (t.n + 1)


def test_quasi_suffix_condition_holds():
    """LCP(S_i, S_j) = l > 0 implies LCP(S_{i+1}, S_{j+1}) >= l - 1."""
    rng = random.Random(18)
    for _ in range(5):
        t = random_text(rng, rng.randint(2, 24), 3)
        for rel in RELATIONS:
            rows = oracle.canonical_rows(t, rel)
            for i in range(1, t.n):
                for j in range(1, t.n):
                    if i == j:
                        continue
                    l = oracle.brute_lcp(rows, i, j)
                    if l > 0:
                        assert oracle.brute_lcp(rows, i + 1, j + 1) >= l - 1


def test_dump_tsv_format():
    t = parse_text(b"abab")
    idx = ScerIndex(t, "exact")
    lines = idx.dump_tsv().strip().split("\n")
    assert len(lines) == t.n + 1
    r, start, lcp = lines[0].split("\t")
    assert (r, start, lcp) == ("0", "5", "0")


def test_out_of_range_lcp_query():
    idx = ScerIndex(parse_text(b"ab"), "exact")
    with pytest.raises(ValueError):
        idx.lcp_suffixes(0, 1)
    with pytest.raises(ValueError):
        idx.lcp_suffixes(1, 5)
