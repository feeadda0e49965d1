import itertools
import random
import zlib

import numpy as np
import pytest

from conftest import code, fibonacci, random_text
from genreps import encodings, oracle
from genreps.encodings import (
    RELATIONS,
    make_encoder,
    maximal_palindromes,
    profiles,
    scer_match,
)
from genreps.index import ScerIndex
from genreps.text import parse_text, text_from_symbols

EX_TEXT = [1, 2, 1, 1, 2, 3, 2, 1, 4]


def test_param_code_window_clip():
    t = text_from_symbols(EX_TEXT)
    enc = make_encoder(t, "param")
    assert code(enc, 1, 3) == 2
    assert code(enc, 2, 3) == 0  # previous occurrence left of the window


def test_recency_prefix_codes_example():
    t = text_from_symbols(EX_TEXT)
    assert profiles(t).forward[1:].tolist() == [0, 1, 1, 0, 1, 2, 1, 2, 3]


def test_unknown_relation_rejected():
    """Only the five relations and the reversed-text twin ct_suffix have
    encoders; "recency" is no relation (its codes live on in `profiles`)."""
    t = parse_text(b"abc")
    assert RELATIONS == ("exact", "param", "op", "ct", "pal")
    for relation in ("recency", "none"):
        with pytest.raises(ValueError):
            make_encoder(t, relation)


def test_pal_code_whole_palindrome():
    t = parse_text(b"aba")
    enc = make_encoder(t, "pal")
    assert code(enc, 1, 3) == 3


def test_single_symbol_codes():
    t = text_from_symbols([3, 1, 4])
    expected = {"exact": t.symbols[1], "param": 0, "ct": 0, "op": 0, "pal": 1}
    for rel, want in expected.items():
        assert code(make_encoder(t, rel), 2, 2) == want


def test_code_out_of_range():
    # windows of "aab": [2..4] runs past n, though its second code already
    # differs from that of [1..3]; [0..1] starts before 1
    enc = make_encoder(parse_text(b"aab"), "param")
    for windows in ((2, 4, 1, 3), (1, 3, 2, 4), (0, 1, 2, 3), (2, 3, 0, 1)):
        with pytest.raises(ValueError):
            scer_match(enc, *windows)
    assert scer_match(enc, 2, 3, 1, 2) is False
    assert scer_match(enc, 1, 1, 3, 3) is True
    assert scer_match(enc, 1, 1, 2, 3) is False
    assert scer_match(enc, 2, 1, 4, 3) is True  # the empty window


def test_scer_match_square_classification(sq_text):
    cases = [
        ("op", (1, 3, 4, 6), True),
        ("param", (3, 6, 7, 10), True),
        ("op", (3, 6, 7, 10), False),
        ("ct", (8, 10, 11, 13), True),
        ("pal", (8, 10, 11, 13), False),
        ("pal", (1, 3, 4, 6), True),
    ]
    for rel, (i1, j1, i2, j2), want in cases:
        assert scer_match(make_encoder(sq_text, rel), i1, j1, i2, j2) is want


def test_maximal_palindromes_examples():
    t = parse_text(b"aaa")
    radii = maximal_palindromes(t)
    assert list(radii.odd[1:]) == [0, 1, 0]
    t2 = parse_text(b"ab")
    assert list(maximal_palindromes(t2).even[1:]) == [0, 0]


def test_maximal_palindromes_random_vs_expansion():
    """Random texts, and periodic and Fibonacci ones whose palindromes run
    into both ends (the $ of T$T^R and its end, position 2n+2)."""
    rng = random.Random(11)
    texts = [random_text(rng, rng.randint(1, 100), rng.choice([2, 3])) for _ in range(10)]
    for n in (0, 1, 2, 3, 17, 64, 299, 300):
        texts += [text_from_symbols((unit * n)[:n]) for unit in ([0], [0, 1], [0, 1, 2])]
        texts.append(text_from_symbols(fibonacci(n)))
    for t in texts:
        radii = maximal_palindromes(t)
        odd, even = oracle._max_radii(list(t.symbols))
        assert list(radii.odd[1:]) == odd
        assert list(radii.even[1 : t.n]) == even


def test_profiles_example():
    t = text_from_symbols(EX_TEXT)
    prof = profiles(t)
    assert list(prof.forward[1:]) == [0, 1, 1, 0, 1, 2, 1, 2, 3]


def test_profiles_constant():
    t = text_from_symbols([7, 7, 7, 7])
    assert list(profiles(t).forward[1:]) == [0, 0, 0, 0]


def test_profiles_random_vs_definition():
    rng = random.Random(2)
    t = random_text(rng, 64, 4)
    prof = profiles(t)
    rev = text_from_symbols(list(reversed(t.symbols)))
    n = t.n
    for i in range(1, n + 1):
        assert prof.forward[i] == oracle.brute_recency_code(t, 1, i)
        # backward[i] encodes the reversed suffix, i.e. a prefix of the reversed text
        assert prof.backward[i] == oracle.brute_recency_code(rev, 1, n - i + 1)


def test_profiles_values_below_sigma():
    rng = random.Random(5)
    for _ in range(10):
        t = random_text(rng, rng.randint(1, 80), rng.choice([2, 3, 4, 5]))
        prof = profiles(t)
        assert max(prof.forward[1:]) < t.sigma
        assert max(prof.backward[1:]) < t.sigma


@pytest.mark.parametrize("relation", [*RELATIONS, "ct_suffix"])
def test_encoding_soundness(relation):
    """Equal prefix codes iff the definitional matcher accepts (both directions)."""
    rng = random.Random(zlib.crc32(relation.encode()) & 0xFFFF)
    for _ in range(8):
        t = random_text(rng, rng.randint(2, 36), rng.choice([2, 3]))
        enc = make_encoder(t, relation)
        n = t.n
        s = t.padded
        for _ in range(120):
            ln = rng.randint(1, n)
            i1 = rng.randint(1, n - ln + 1)
            i2 = rng.randint(1, n - ln + 1)
            got = scer_match(enc, i1, i1 + ln - 1, i2, i2 + ln - 1)
            want = oracle.brute_match(relation, s[i1 : i1 + ln], s[i2 : i2 + ln])
            assert got == want, (relation, t.symbols, i1, i2, ln)


def test_recency_is_param_encoding():
    """The recency codes characterize parameterized matching too: two
    windows match exactly when their rows of prefix codes agree."""
    rng = random.Random(77)
    for _ in range(6):
        t = random_text(rng, rng.randint(2, 30), rng.choice([2, 3, 4]))
        n = t.n
        s = t.padded
        for _ in range(100):
            ln = rng.randint(1, n)
            i1 = rng.randint(1, n - ln + 1)
            i2 = rng.randint(1, n - ln + 1)
            row1, row2 = ([oracle.brute_recency_code(t, i, j) for j in range(i, i + ln)] for i in (i1, i2))
            got = row1 == row2
            want = oracle.param_match(s[i1 : i1 + ln], s[i2 : i2 + ln])
            assert got == want


def _psquare_starts(t, ell):
    s = t.padded
    return [
        i
        for i in range(1, t.n - 2 * ell + 2)
        if oracle.param_match(s[i : i + ell], s[i + ell : i + 2 * ell])
    ]


def test_profile_mismatch_square_property():
    """Profiles of a p-square are sigma-mismatch squares of the same span."""
    rng = random.Random(13)
    for _ in range(6):
        t = random_text(rng, rng.randint(4, 40), rng.choice([2, 3]))
        prof = profiles(t)
        fwd, bwd = prof.forward, prof.backward
        for ell in range(1, t.n // 2 + 1):
            for i in _psquare_starts(t, ell):
                for arr in (fwd, bwd):
                    mism = sum(
                        1 for q in range(i, i + ell) if arr[q] != arr[q + ell]
                    )
                    assert mism <= t.sigma


def test_profile_shift_property():
    """Matching profile codes one period ahead extend a p-square by one."""
    rng = random.Random(17)
    for _ in range(6):
        t = random_text(rng, rng.randint(4, 40), rng.choice([2, 3]))
        prof = profiles(t)
        fwd, bwd = prof.forward, prof.backward
        s = t.padded
        n = t.n
        for ell in range(1, n // 2 + 1):
            for i in _psquare_starts(t, ell):
                if i + 2 * ell <= n and fwd[i + ell] == fwd[i + 2 * ell]:
                    assert oracle.param_match(
                        s[i + 1 : i + ell + 1], s[i + ell + 1 : i + 2 * ell + 1]
                    )
                if i > 1 and bwd[i - 1] == bwd[i + ell - 1]:
                    assert oracle.param_match(
                        s[i - 1 : i + ell - 1], s[i + ell - 1 : i + 2 * ell - 1]
                    )


def test_pal_code_and_block_match_oracle():
    rng = random.Random(40)
    texts = [random_text(rng, rng.randint(0, 80), rng.choice([2, 3])) for _ in range(30)]
    for n in (0, 1, 2, 17, 64, 80, 300):
        texts += [text_from_symbols((unit * n)[:n]) for unit in ([0], [0, 1], [0, 1, 2], [0, 0, 1])]
        texts.append(text_from_symbols(fibonacci(n)))
    for t in texts:
        n = t.n
        enc = make_encoder(t, "pal")
        rows = oracle.canonical_rows(t, "pal")
        # column t0 of every start i with i + t0 <= n, one depth-1 block each
        for t0 in range(n):
            starts = np.arange(1, n + 1 - t0)
            got = enc.code_block(starts, t0, 1)[:, 0].tolist()
            assert got == [rows[i][t0] for i in starts.tolist()]
        starts = np.arange(1, n + 2)
        for t0, depth in ((0, n + 1), (3, 5), (n // 2, 9)):
            block = enc.code_block(starts, t0, depth).tolist()
            for s, got in zip(starts.tolist(), block):
                want = rows[s][t0 : t0 + depth] if s <= n else []
                assert got == want + [-1] * (depth - len(want))


@pytest.mark.parametrize("relation", [*RELATIONS, "ct_suffix"])
def test_code_block_matches_oracle(relation):
    """Every encoder's code block equals the codes computed from the
    definitions (`oracle.canonical_rows`).

    Alphabets of 1, 2 and 4 symbols check that the op wavelet matrix has a
    level for the threshold v + 1 = sigma; periodic texts take the
    previous-occurrence path on almost every cell.
    """
    rng = random.Random(41)
    texts = [
        random_text(rng, rng.randint(0, 60), rng.choice([1, 2, 3, 4, 5, 26, 300]))
        for _ in range(300)
    ]
    for n in (0, 1, 2, 17, 40, 60, 300):
        texts += [text_from_symbols((unit * n)[:n]) for unit in ([0], [0, 1], [0, 1, 2])]
        texts.append(text_from_symbols(fibonacci(n)))
    for t in texts:
        n = t.n
        enc = make_encoder(t, relation)
        starts = np.array(sorted(rng.sample(range(1, n + 2), rng.randint(1, n + 1))))
        rows = oracle.canonical_rows(t, relation)
        for t0, depth in ((0, n + 1), (rng.randint(0, n), rng.randint(1, n + 3))):
            want = [(rows[s] + [-1] * (depth + t0))[t0 : t0 + depth] for s in starts.tolist()]
            got = enc.code_block(starts, t0, depth)
            assert got.tolist() == want, (t.symbols, starts.tolist(), t0, depth)


def _stack_nearest(syms, strict):
    """Cartesian-tree anchors by the stack definition: for each 1-based j,
    the largest m < j with T[m] <= T[j] (< when strict), 0 if none."""
    s = [-1, *syms]
    out, stack = [0] * len(s), []
    for j in range(1, len(s)):
        while stack and (s[stack[-1]] >= s[j] if strict else s[stack[-1]] > s[j]):
            stack.pop()
        out[j] = stack[-1] if stack else 0
        stack.append(j)
    return out


def test_nearest_before_matches_stack():
    """Every word up to n = 3 over three symbols (ties, sigma = 1, n in
    {0, 1, 2}), unary texts and random texts, strict and non-strict."""
    rng = random.Random(44)
    texts = [list(w) for n in range(4) for w in itertools.product(range(3), repeat=n)]
    texts += [[0] * n for n in (17, 64, 65)]
    texts += [[rng.randrange(s) for _ in range(rng.randint(0, 300))] for s in (1, 2, 3, 26, 10**6) for _ in range(8)]
    for syms in texts:
        t = text_from_symbols(syms)
        for strict in (False, True):
            got = encodings._nearest_before(t, strict)
            assert got.tolist() == _stack_nearest(t.symbols, strict), (syms, strict)


def _counting_descent(enc):
    """Wrap a pal encoder's reach descent; the list gets the number of
    cells of each call."""
    cells = []
    descend = enc._reach.first_at_most

    def counted(lo, thr):
        cells.append(len(lo))
        return descend(lo, thr)

    enc._reach.first_at_most = counted
    return cells


def test_pal_window_shortcuts():
    """The two window gathers (L(j), and the window being a whole
    palindrome) settle every cell of a unary text, so the reach descent
    gets none, in these blocks or in the index's block sort; period-2,
    Fibonacci and random binary texts leave it some.  Every block still
    equals the oracle."""
    rng = random.Random(45)
    cases = [([0] * n, False) for n in (*range(21), 300)]
    cases += [(([0, 1] * 50)[:n], True) for n in (17, 100)]
    cases += [(fibonacci(n), True) for n in (34, 200)]
    cases += [([rng.randrange(2) for _ in range(n)], True) for n in (40, 200)]
    for syms, some in cases:
        t = text_from_symbols(syms)
        n = t.n
        enc = make_encoder(t, "pal")
        cells = _counting_descent(enc)
        rows = oracle.canonical_rows(t, "pal")
        starts = np.arange(1, n + 2)
        for t0, depth in ((0, n + 1), (n // 3, n // 2 + 1)):
            block = enc.code_block(starts, t0, depth).tolist()
            assert block == [(rows[s] + [-1] * (t0 + depth))[t0 : t0 + depth] for s in starts.tolist()], syms
        ScerIndex(t, encoder=enc)
        assert (sum(cells) > 0) == some, (syms, cells)


def test_pal_whole_window_inside_longer_suffix():
    """In abcbabcba the windows bcb = T[6..8] and abcba = T[5..9] are whole
    palindromes while the longest palindromic suffixes of T[1..8] and
    T[1..9] (7 and 9 long) start before them: the second gather settles
    them, with no descent."""
    t = parse_text(b"abcbabcba")
    enc = make_encoder(t, "pal")
    cells = _counting_descent(enc)
    assert enc.code_block(np.array([6]), 2, 1).tolist() == [[3]]
    assert enc.code_block(np.array([5]), 4, 1).tolist() == [[5]]
    assert cells == []
    rows = oracle.canonical_rows(t, "pal")
    assert enc.code_block(np.arange(1, 11), 0, 10).tolist() == [(rows[s] + [-1] * 10)[:10] for s in range(1, 11)]


@pytest.mark.parametrize("relation", [*RELATIONS, "ct_suffix"])
def test_code_block_window_edges(relation):
    """The per-position arrays hold 2n+2 cells: blocks that read past
    them are all end-markers, full blocks equal the oracle, and every
    block but op's (whose codes reach about n**2) is int32."""
    rng = random.Random(46)
    for n in (0, 1, 5, 40):
        t = random_text(rng, n, 3)
        enc = make_encoder(t, relation)
        dtype = np.int64 if relation == "op" else np.int32
        for t0, depth in ((0, 2 * n + 4), (n + 1, n + 3), (2 * n + 1, 3), (2 * n + 3, 1)):
            block = enc.code_block(np.array([n + 1]), t0, depth)
            assert block.dtype == dtype and block.tolist() == [[-1] * depth], (n, t0, depth)
        rows = oracle.canonical_rows(t, relation)
        block = enc.code_block(np.arange(1, n + 2), 0, n + 1)
        assert block.dtype == dtype
        assert block.tolist() == [rows[s] + [-1] * s for s in range(1, n + 2)], (n, t.symbols)
