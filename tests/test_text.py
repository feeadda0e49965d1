import random

import pytest

from genreps.text import parse_text, text_from_symbols


def test_parse_bytes_dense_remap():
    t = parse_text(b"aba")
    assert t.symbols == (0, 1, 0)
    assert t.sigma == 2
    assert t.alphabet == (ord("a"), ord("b"))


def test_parse_ints():
    t = parse_text(b"1 3 2 2 4 3 4 4 1 2 3 2 3", "ints")
    assert t.n == 13
    assert t.sigma == 4
    # order-preserving remap
    assert t.symbols[:4] == (0, 2, 1, 1)


def test_parse_empty():
    for mode in ("bytes", "ints"):
        t = parse_text(b"", mode)
        assert t.n == 0 and t.sigma == 0


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_text(b"3 x 1", "ints")
    with pytest.raises(ValueError):
        parse_text(b"3 -1", "ints")
    with pytest.raises(ValueError):
        parse_text(b"abc", "utf-17")
    with pytest.raises(ValueError, match="99999999999999999999"):
        parse_text(b"1 99999999999999999999", "ints")


def test_prev_array_example():
    t = text_from_symbols([1, 2, 1, 1, 2, 3, 2, 1, 4])
    assert list(t.prev[1:]) == [0, 0, 1, 3, 2, 0, 5, 4, 0]


def test_prev_array_constant_and_distinct():
    assert list(text_from_symbols([5, 5, 5]).prev[1:]) == [0, 1, 2]
    assert list(text_from_symbols([4, 7, 1, 9]).prev[1:]) == [0, 0, 0, 0]


def test_prev_counts_invariants():
    """prev[i] is the last earlier position holding T[i], 0 if none."""
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(0, 60)
        t = text_from_symbols([rng.randrange(3) for _ in range(n)])
        prev = t.prev
        s = t.padded
        for i in range(1, n + 1):
            p = int(prev[i])
            assert 0 <= p < i
            assert p == 0 or s[p] == s[i]
            assert s[i] not in s[p + 1 : i]
