import random

import numpy as np
import pytest

from conftest import random_text
from genreps import oracle
from genreps.encodings import (
    RELATIONS,
    make_encoder,
    maximal_palindromes,
    profiles,
    scer_match,
)
from genreps.text import parse_text, text_from_symbols

EX_TEXT = [1, 2, 1, 1, 2, 3, 2, 1, 4]


def test_param_code_window_clip():
    t = text_from_symbols(EX_TEXT)
    enc = make_encoder(t, "param")
    assert enc.code(1, 3) == 2
    assert enc.code(2, 3) == 0  # previous occurrence left of the window


def test_recency_prefix_codes_example():
    t = text_from_symbols(EX_TEXT)
    enc = make_encoder(t, "recency")
    assert [enc.code(1, j) for j in range(1, 10)] == [0, 1, 1, 0, 1, 2, 1, 2, 3]


def test_pal_code_whole_palindrome():
    t = parse_text(b"aba")
    enc = make_encoder(t, "pal")
    assert enc.code(1, 3) == 3


def test_single_symbol_codes():
    t = text_from_symbols([3, 1, 4])
    expected = {"exact": t.symbols[1], "param": 0, "ct": 0, "op": 0, "pal": 1, "recency": 0}
    for rel, want in expected.items():
        assert make_encoder(t, rel).code(2, 2) == want


def test_code_out_of_range():
    t = parse_text(b"abc")
    enc = make_encoder(t, "param")
    with pytest.raises(ValueError):
        enc.code(0, 2)
    with pytest.raises(ValueError):
        enc.code(2, 4)


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
    rng = random.Random(11)
    for _ in range(10):
        t = random_text(rng, rng.randint(1, 100), rng.choice([2, 3]))
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


def test_recency_substring_codes_vs_definition():
    rng = random.Random(9)
    t = random_text(rng, 40, 3)
    enc = make_encoder(t, "recency")
    for i in range(1, t.n + 1):
        for j in range(i, t.n + 1):
            assert enc.code(i, j) == oracle.brute_recency_code(t, i, j)


@pytest.mark.parametrize("relation", [*RELATIONS, "ct_suffix"])
def test_encoding_soundness(relation):
    """Equal prefix codes iff the definitional matcher accepts (both directions)."""
    rng = random.Random(hash(relation) & 0xFFFF)
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
    """The recency codes characterize parameterized matching too."""
    rng = random.Random(77)
    for _ in range(6):
        t = random_text(rng, rng.randint(2, 30), rng.choice([2, 3, 4]))
        enc = make_encoder(t, "recency")
        n = t.n
        s = t.padded
        for _ in range(100):
            ln = rng.randint(1, n)
            i1 = rng.randint(1, n - ln + 1)
            i2 = rng.randint(1, n - ln + 1)
            got = scer_match(enc, i1, i1 + ln - 1, i2, i2 + ln - 1)
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
    for n in (1, 2, 17, 64, 80):
        texts += [text_from_symbols((unit * n)[:n]) for unit in ([0], [0, 1], [0, 1, 2], [0, 0, 1])]
    for t in texts:
        n = t.n
        enc = make_encoder(t, "pal")
        rows = oracle.canonical_rows(t, "pal")
        for i in range(1, n + 1):
            assert [enc.code(i, j) for j in range(i, n + 1)] == rows[i]
            assert enc.code_row(i) == rows[i]
        starts = np.arange(1, n + 2)
        for t0, depth in ((0, n + 1), (3, 5), (n // 2, 9)):
            block = enc.code_block(starts, t0, depth).tolist()
            for s, got in zip(starts.tolist(), block):
                want = rows[s][t0 : t0 + depth] if s <= n else []
                assert got == want + [-1] * (depth - len(want))
