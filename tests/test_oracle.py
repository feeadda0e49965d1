import random

import pytest

from conftest import random_text
from genreps import oracle, repeats
from genreps.text import parse_text, text_from_symbols


def test_matchers_square_examples():
    assert oracle.op_match([1, 3, 2], [2, 4, 3])
    assert oracle.ct_match([4, 1, 2], [3, 2, 3])
    assert oracle.param_match([2, 2, 4, 3], [4, 4, 1, 2])
    assert not oracle.op_match([2, 2, 4, 3], [4, 4, 1, 2])
    assert not oracle.pal_match([4, 1, 2], [3, 2, 3])


def test_matchers_reflexive():
    rng = random.Random(0)
    for rel in ("exact", "param", "op", "ct", "pal", "ct_suffix"):
        for _ in range(20):
            x = [rng.randrange(3) for _ in range(rng.randint(0, 12))]
            assert oracle.brute_match(rel, x, list(x))


def test_matchers_length_mismatch():
    for rel in ("exact", "param", "op", "ct", "pal"):
        assert not oracle.brute_match(rel, [1, 2], [1])


def test_relation_hierarchy():
    """op-matching implies param- and ct-matching on random pairs."""
    rng = random.Random(1)
    for _ in range(400):
        m = rng.randint(1, 8)
        x = [rng.randrange(4) for _ in range(m)]
        y = [rng.randrange(4) for _ in range(m)]
        if oracle.op_match(x, y):
            assert oracle.param_match(x, y)
            assert oracle.ct_match(x, y)


def test_canonical_rows_agree_with_matchers():
    rng = random.Random(2)
    for rel in ("exact", "param", "op", "ct", "pal", "ct_suffix"):
        for _ in range(6):
            t = random_text(rng, rng.randint(2, 24), rng.choice([2, 3]))
            rows = oracle.canonical_rows(t, rel)
            s = t.padded
            for _ in range(80):
                ln = rng.randint(1, t.n)
                i1 = rng.randint(1, t.n - ln + 1)
                i2 = rng.randint(1, t.n - ln + 1)
                canon_eq = rows[i1][:ln] == rows[i2][:ln]
                assert canon_eq == oracle.brute_match(
                    rel, s[i1 : i1 + ln], s[i2 : i2 + ln]
                )


def test_squares_members_methods_agree():
    rng = random.Random(3)
    for _ in range(10):
        t = random_text(rng, rng.randint(0, 24), rng.choice([2, 3]))
        for rel in ("exact", "param", "op", "ct", "pal"):
            a = oracle.brute_squares_members(t, rel, method="match")
            b = oracle.brute_squares_members(t, rel, method="canon")
            assert a == b


def test_brute_examples():
    assert oracle.brute_count_nonequivalent(parse_text(b"aaaa"), "exact") == 2
    word = parse_text(b"abacaabaababaacaabcbaabaca")
    runs = [r for r in oracle.brute_uniform_k_runs(word, 2) if r[2] == 8]
    assert len(runs) == 3
    assert oracle.brute_count_nonequivalent(parse_text(b"ab"), "param") == 1


def test_cap_exceeded():
    t = text_from_symbols([0] * (oracle.BRUTE_CAP + 1))
    with pytest.raises(ValueError):
        oracle.brute_squares_members(t, "exact")


def test_verify_text_passes_on_random():
    rng = random.Random(4)
    for _ in range(5):
        t = random_text(rng, rng.randint(0, 40), rng.choice([2, 3]))
        assert oracle.verify_text(t, ks=(0, 2)) == []


def test_verify_text_detects_injected_fault(monkeypatch):
    """Sanity of the harness: a mutated windowing path must be reported."""
    broken = repeats.uniform_k_runs

    def sabotage(t, k, periods=None, index=None):
        out = broken(t, k, periods, index)
        return out[:-1] if out else out

    monkeypatch.setattr(repeats, "uniform_k_runs", sabotage)
    t = parse_text(b"abaababaabaab")
    fails = oracle.verify_text(t, ks=(1,))
    assert any("uniform_k_runs" in f for f in fails)
