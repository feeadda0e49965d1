import itertools
import math
import random

import numpy as np
import pytest

from conftest import fibonacci, lcp, random_text
from genreps import index, oracle
from genreps.encodings import RELATIONS, Encoder, make_encoder
from genreps.index import ScerIndex, TreeView
from genreps.text import parse_text, text_from_symbols


def _assert_array_form(idx):
    """order, rank and lcp are int32 arrays, and rank inverts order."""
    for arr in (idx.order, idx.rank, idx.lcp):
        assert isinstance(arr, np.ndarray) and arr.dtype == np.int32
    assert len(idx.order) == len(idx.lcp) == idx.n + 1
    assert (idx.rank[idx.order] == np.arange(idx.n + 1)).all()


def test_exact_index_is_suffix_array():
    t = parse_text(b"aaa")
    idx = ScerIndex(t, "exact")
    # sentinel suffix first, then by plain suffix order
    assert list(idx.order) == [4, 3, 2, 1]
    assert list(idx.lcp) == [0, 0, 1, 2]
    rng = random.Random(15)
    for n in (16, 17, 300):
        t = random_text(rng, n, 2)
        idx = ScerIndex(t, "exact")
        _assert_array_form(idx)
        s = t.symbols
        assert idx.order.tolist() == [n + 1, *sorted(range(1, n + 1), key=lambda i: s[i - 1 :])]


def test_empty_text_index():
    for rel in RELATIONS:
        idx = ScerIndex(parse_text(b""), rel)
        assert list(idx.order) == [1]
        assert lcp(idx, 1, 1) == 0


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
    assert lcp(idx, 3, 3) == sq_text.n - 3 + 1
    assert lcp(idx, 3, 7) >= 4


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
                    assert lcp(idx, i, j) == want


def test_lpf_examples():
    t = parse_text(b"aaaa")
    assert list(ScerIndex(t, "exact").lpf()[1:]) == [0, 3, 2, 1]


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


def _tie_arrays():
    """Random arrays with many ties, at lengths 0, 1, 2 and 2^k +- 1."""
    rng = random.Random(21)
    lengths = [0, 1, 2] + [(1 << k) + d for k in range(1, 8) for d in (-1, 0, 1)]
    return [[rng.randrange(v) for _ in range(m)] for m in sorted(set(lengths)) for v in (1, 3, 50)]


def test_min_table_batch_query_vs_brute():
    rng = random.Random(22)
    for arr in _tie_arrays():
        m = len(arr)
        table = index._MinTable(arr)
        pairs = [(lo, hi) for lo in range(m) for hi in range(lo, m)]
        if m > 40:
            pairs = rng.sample(pairs, 400)
        lo = np.array([p[0] for p in pairs], dtype=np.int64)
        hi = np.array([p[1] for p in pairs], dtype=np.int64)
        got = table.query_batch(lo, hi).tolist()
        assert got == [min(arr[a : b + 1]) for a, b in pairs], arr


def test_min_table_prev_next_smaller_vs_brute():
    """prev_smaller, and next-smaller as the threshold descent
    first_at_most(r + 1, arr[r] - 1) on the array ended by a sentinel cell
    below every value, as `ScerIndex.rmq` and `ScerIndex.lpf` search."""
    for arr in _tie_arrays():
        m = len(arr)
        table = index._MinTable(arr)
        ended = index._MinTable([*arr, -1])
        pos = np.arange(m)
        vals = np.array(arr, dtype=np.int64)
        prev = [max((q for q in range(r) if arr[q] < arr[r]), default=-1) for r in range(m)]
        nxt = [min((q for q in range(r + 1, m) if arr[q] < arr[r]), default=m) for r in range(m)]
        assert table.prev_smaller(pos).tolist() == prev, arr
        assert ended.prev_smaller(pos).tolist() == prev, arr
        assert ended.first_at_most(pos + 1, vals - 1).tolist() == nxt, arr
        # any subset of positions, in any order
        sub = pos[::-3]
        assert table.prev_smaller(sub).tolist() == [prev[r] for r in sub]
        assert ended.first_at_most(sub + 1, vals[sub] - 1).tolist() == [nxt[r] for r in sub]
        # the threshold descent, on thresholds that some q >= lo meets
        lo = pos[::-1]
        thr = np.array([arr[(r * 7 + 3) % (m - r) + r] for r in lo], dtype=np.int64)
        want = [min(q for q in range(r, m) if arr[q] <= v) for r, v in zip(lo.tolist(), thr.tolist())]
        assert table.first_at_most(lo, thr).tolist() == want, arr


def test_lcp_batch_matches_lcp_suffixes():
    """One lcp_batch over every pair of suffixes, the empty suffix n+1 and
    equal positions included, equals the LCPs of the code rows."""
    rng = random.Random(23)
    for t in [random_text(rng, n, s) for n in (0, 1, 5, 16, 17, 40) for s in (1, 2, 4)]:
        for rel in RELATIONS:
            idx = ScerIndex(t, rel)
            rows = oracle.canonical_rows(t, rel)
            pairs = [(i, j) for i in range(1, t.n + 2) for j in range(1, t.n + 2)]
            i = np.array([p[0] for p in pairs], dtype=np.int64)
            j = np.array([p[1] for p in pairs], dtype=np.int64)
            got = idx.lcp_batch(i, j).tolist()
            assert got == [oracle.brute_lcp(rows, a, b) for a, b in pairs]


def _intervals_by_definition(lcp):
    """{(lo, end, w)}: for every r with lcp[r] = w > 0, lo the largest q < r
    and end the smallest q > r with lcp[q] < w, end = n+1 if none."""
    m = len(lcp)
    out = set()
    for r, w in enumerate(lcp):
        if w > 0:
            lo = max(q for q in range(r) if lcp[q] < w)
            end = min((q for q in range(r + 1, m) if lcp[q] < w), default=m)
            out.add((lo, end, w))
    return out


def test_tree_intervals_match_definition():
    """TreeView holds each LCP interval once, as the definition gives it,
    with the cuts of an interval grouped behind its head in position order."""
    rng = random.Random(11)
    texts = [random_text(rng, rng.randint(0, 60), sigma) for sigma in (1, 2, 3) for _ in range(8)]
    texts += [text_from_symbols(s) for s in ([0] * 40, [i % 3 for i in range(41)], fibonacci(55))]
    for t in texts:
        indexes = [ScerIndex(t, rel) for rel in RELATIONS] + [ScerIndex(t.reversed(), "ct_suffix")]
        for idx in indexes:
            lcp = idx.lcp.tolist()
            tree = TreeView(idx)
            got = list(zip(tree.lo.tolist(), tree.end.tolist(), tree.weight.tolist()))
            assert len(got) == len(set(got)) and set(got) == _intervals_by_definition(lcp)
            assert tree.weight.dtype == tree.lo.dtype == tree.end.dtype == np.int32
            assert tree.heads.tolist() == tree.new.nonzero()[0].tolist()
            for g, (lo, end, w) in enumerate(got):
                stop = tree.heads[g + 1] if g + 1 < len(got) else len(tree.cut)
                cuts = tree.cut[tree.heads[g] : stop].tolist()
                assert cuts == [r for r in range(lo + 1, end) if lcp[r] == w]


def test_tree_banana():
    tree = TreeView(ScerIndex(parse_text(b"banana"), "exact"))
    got = sorted(zip(tree.lo.tolist(), tree.end.tolist(), tree.weight.tolist()))
    assert got == [(1, 4, 1), (2, 4, 3), (5, 7, 2)]


@pytest.mark.parametrize("budget", [1, 3, 7, 100])
def test_cells_walk(budget):
    """The chunks of `_cells` hold at most the budget, as int32 arrays, and
    together every cell of the ranges once, in order; empty ranges give none."""
    rng = random.Random(budget)
    for sizes in ([], [0, 0], [5], [0, 3, 0, 0, 9, 1, 0], [rng.randint(0, 12) for _ in range(40)]):
        want = [(r, x) for r, size in enumerate(sizes) for x in range(size)]
        chunks = list(index._cells(np.array(sizes, dtype=np.int64), budget))
        assert all(r.dtype == x.dtype == np.int32 and 0 < len(r) == len(x) <= budget for r, x in chunks)
        assert [len(r) for r, _ in chunks[:-1]] == [budget] * (len(chunks) - 1)
        assert [(int(a), int(b)) for r, x in chunks for a, b in zip(r, x)] == want


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


def _reference(t, rel):
    """Order and adjacent LCPs from sorting the materialized code rows.

    The rows come from `oracle.canonical_rows`, so none depends on the
    encoders.  Bare rows sort like rows ending in the end-marker, which
    lies below every code.
    """
    n = t.n
    rows = oracle.canonical_rows(t, rel)
    order = sorted(range(1, n + 2), key=rows.__getitem__)
    lcp = [0] + [oracle.brute_lcp(rows, a, b) for a, b in zip(order, order[1:])]
    return order, lcp


def test_index_equals_reference():
    """Prefix doubling (exact) and the block sort (every other relation)
    agree with the sorted code rows on longer texts and at every n up to 20."""
    rng = random.Random(16)
    rels = ("exact", "param", "ct", "ct_suffix", "op", "pal")
    cases = [(random_text(rng, rng.randint(280, 420), rng.choice([2, 3, 4])), rel) for rel in rels]
    for n in range(21):
        for _ in range(3):
            t = random_text(rng, n, rng.choice([1, 2, 3, 4]))
            cases += [(t, rel) for rel in rels]
    for t, rel in cases:
        idx = ScerIndex(t, rel)
        order, lcp = _reference(t, rel)
        assert list(idx.order) == order, (rel, t.symbols)
        assert list(idx.lcp) == lcp, (rel, t.symbols)
        _assert_array_form(idx)


def _sorted_suffixes(syms, width=None):
    """Order and adjacent LCPs of the exact index from sorting the suffixes.

    Suffixes sort by their first `width` symbols (all of them by default),
    a shorter one first on a tie; those prefixes must all differ, so that
    they order the suffixes as the whole suffixes do.
    """
    s, n = tuple(syms), len(syms)
    keys = [s[i - 1 : i - 1 + (width or n)] for i in range(1, n + 1)]
    assert len(set(keys)) == n
    order = [n + 1, *sorted(range(1, n + 1), key=lambda i: keys[i - 1])]
    lcp = [0]
    for a, b in zip(order, order[1:]):
        l = 0
        while a + l <= n and b + l <= n and s[a + l - 1] == s[b + l - 1]:
            l += 1
        lcp.append(l)
    return order, lcp


def _packed_width(sigma):
    """Symbols per packed key of the exact index: the largest power of two
    h0 with h0 * bit_length(sigma) <= 62."""
    return 1 << ((62 // sigma.bit_length()).bit_length() - 1)


def _assert_exact_sorted(syms, width=None):
    idx = ScerIndex(text_from_symbols(syms), "exact")
    order, lcp = _sorted_suffixes(syms, width)
    assert idx.order.tolist() == order, syms[:40]
    assert idx.lcp.tolist() == lcp, syms[:40]
    _assert_array_form(idx)


@pytest.mark.parametrize("sigma", [64, 127, 128, 16384, 20000])
def test_exact_index_dense_alphabet(sigma):
    """Every symbol of [0..sigma) occurs, so each packed slot has
    bit_length(sigma) bits: 56 bits of key at sigma 64 and 127, 60 at
    16384 and 20000.  A repeat of the text's head reaches past one packed
    block.  Two adjacent suffixes share h0 + 1 zeros and then differ in h0
    slots, 2**(bits-1) - 1 against 2**(bits-1) - 2 in every one, so their
    packed keys xor to all ones, 2**(h0 * bits) - 1."""
    rng = random.Random(sigma)
    h0 = _packed_width(sigma)
    hi = (1 << (sigma.bit_length() - 1)) - 1
    zeros = [0] * (h0 + 1)
    perm = rng.sample(range(1, sigma), sigma - 1)
    tail = [rng.randrange(1, sigma) for _ in range(200)]
    syms = perm + zeros + [hi] * h0 + zeros + [hi - 1] * h0 + perm[: 3 * h0 + 1] + tail
    _assert_exact_sorted(syms, width=8 * h0)


@pytest.mark.parametrize("name", ["unary", "period2", "fib"])
def test_exact_index_degenerate_lengths(name):
    """Unary, period-2 and Fibonacci texts at lengths around one and two
    packed blocks and around powers of two, where the doubling rounds and
    the lifted levels end."""
    make = {"unary": lambda n: [0] * n, "period2": lambda n: [i % 2 for i in range(n)], "fib": fibonacci}[name]
    h0 = _packed_width(1 if name == "unary" else 2)
    lengths = {h0 - 1, h0, h0 + 1, 2 * h0 - 1, 2 * h0 + 1}
    lengths |= {(1 << k) + d for k in range(1, 11) for d in (-1, 1)}
    for n in sorted(lengths):
        _assert_exact_sorted(make(n))


def test_exact_index_tiny_texts():
    for n in (0, 1, 2):
        for syms in itertools.product(range(3), repeat=n):
            _assert_exact_sorted(list(syms))
    for syms in ([7], [10**12, 5], [2**63 - 1, 0]):
        _assert_exact_sorted(syms)


def test_large_path_degenerate_texts():
    for syms in ([0] * 300, [0, 1] * 160, [0, 0, 1] * 110):
        t = text_from_symbols(syms)
        for rel in ("exact", "param", "ct", "ct_suffix", "op", "pal"):
            idx = ScerIndex(t, rel)
            order, lcp = _reference(t, rel)
            assert list(idx.order) == order, rel
            assert list(idx.lcp) == lcp, rel


def test_block_sort_narrow_rounds(monkeypatch):
    """One column per round and a budget far below the tied rows: many
    rounds, many tie groups per round, on every non-exact relation."""
    monkeypatch.setattr(index, "_START_DEPTH", 1)
    monkeypatch.setattr(index, "_ROUND_CELLS", 16)
    rng = random.Random(20)
    for _ in range(400):
        t = random_text(rng, rng.randint(0, 70), rng.choice([1, 2, 3, 4]))
        for rel in ("param", "op", "ct", "ct_suffix", "pal"):
            idx = ScerIndex(t, rel)
            order, lcp = _reference(t, rel)
            assert list(idx.order) == order, (rel, t.symbols)
            assert list(idx.lcp) == lcp, (rel, t.symbols)


class _ScaledEncoder(Encoder):
    """Exact matching with each symbol c coded as c * 2**k + offset: wide
    codes for the block sort, which does not know it is exact.  Blocks
    come in `dtype`, int32 as the window encoders give or int64 as op does."""

    relation = "scaled"

    def __init__(self, text, k, offset, dtype=np.int64):
        super().__init__(text)
        self.k, self.offset, self.dtype = k, offset, dtype

    def code_block(self, starts, t0, depth):
        n = self.text.n
        j = np.asarray(starts, dtype=np.int64)[:, None] + np.arange(t0, t0 + depth)
        codes = (self.text.padded_np[np.minimum(j, n)] << self.k) + self.offset
        return np.where(j <= n, codes, -1).astype(self.dtype)


def _scaled_reference(syms, k, offset):
    """Order and adjacent LCPs from one lexsort over the materialized rows:
    row i - 1 holds the codes of T[i..n], then end-markers (-1)."""
    n = len(syms)
    rows = np.full((n + 1, n + 1), -1, dtype=np.int64)
    for i in range(n):
        rows[i, : n - i] = [(c << k) + offset for c in syms[i:]]
    perm = np.lexsort(rows.T[::-1])
    neq = rows[perm[1:]] != rows[perm[:-1]]
    return (perm + 1).tolist(), [0, *neq.argmax(axis=1).tolist()]


@pytest.mark.parametrize("bits", [1, 2, 31, 32, 62])
def test_block_sort_packed_slot_widths(monkeypatch, bits):
    """Codes of 1, 2, 31, 32 and 62 bits (code + 1, at both ends of each
    width), so a word holds from 62 slots down to one.  The start depths
    give rounds whose depth is and is not a multiple of the slots per
    word; periodic texts tie across whole words, and suffixes end inside
    a word.  The last setting is one column per round under a 16-cell
    budget.  Codes that fit in int32 come in int32 blocks too, whose
    packed words must still be int64."""
    if bits == 1:
        params = [(1, 0, 0)]
    elif bits == 2:
        params = [(2, 0, 0), (3, 0, 0)]
    else:
        k = bits - 2
        params = [(2, k + 1, 0), (2, k + 1, (1 << (k + 1)) - 2), (4, k, 0)]
    rng = random.Random(bits)
    for sigma, k, offset in params:
        assert (((sigma - 1) << k) + offset + 1).bit_length() == bits
        texts = [[0] * n for n in (0, 1, 2, 61, 62, 63, 130)]
        if sigma > 1:
            texts.append(list(range(sigma)) * 30)  # every symbol, so the widest code occurs
            texts += [[rng.randrange(sigma) for _ in range(rng.randint(1, 140))] for _ in range(6)]
            for period in (2, 3, 5):
                unit = [rng.randrange(sigma) for _ in range(period)]
                texts.append((unit * 40)[: rng.randint(60, 120)] + [rng.randrange(sigma) for _ in range(3)])
        for start, cells in ((24, 1 << 17), (5, 1 << 17), (31, 1 << 17), (62, 1 << 17), (1, 16)):
            monkeypatch.setattr(index, "_START_DEPTH", start)
            monkeypatch.setattr(index, "_ROUND_CELLS", cells)
            for syms in texts:
                t = text_from_symbols(syms)
                order, lcp = _scaled_reference(t.symbols, k, offset)
                for dtype in (np.int64, np.int32) if bits <= 31 else (np.int64,):
                    idx = ScerIndex(t, encoder=_ScaledEncoder(t, k, offset, dtype))
                    assert idx.order.tolist() == order, (sigma, k, start, syms, dtype)
                    assert idx.lcp.tolist() == lcp, (sigma, k, start, syms, dtype)


def test_bit_length_exact():
    """Around every power of two that fits in an int64, where a float
    rounds 2**k - 1 up to 2**k once k > 53."""
    vals = [0, *(v for k in range(63) for v in ((1 << k) - 1, 1 << k, (1 << k) + 1)), (1 << 63) - 1]
    got = index._bit_length(np.array(vals, dtype=np.int64))
    assert got.tolist() == [v.bit_length() for v in vals]


@pytest.mark.parametrize(
    "name, rel",
    [
        ("random2", "param"),
        ("fib", "param"),
        ("fib", "ct"),
        ("fib", "op"),
        ("unary", "op"),
        ("unary", "pal"),
    ],
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


def test_op_index_builds_wavelet_matrix_lazily():
    """On a unary text every op cell takes the previous-occurrence path,
    so no wavelet matrix is built; a random text needs one."""
    for n in (*range(21), 300):
        idx = ScerIndex(text_from_symbols([0] * n), "op")
        assert idx.encoder._wavelet is None, n
    idx = ScerIndex(random_text(random.Random(23), 40, 4), "op")
    assert idx.encoder._wavelet is not None


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
