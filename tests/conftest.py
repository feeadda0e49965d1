import random

import numpy as np
import pytest

from genreps.text import Text, text_from_symbols

# the 26-symbol string from the worked run/gapped-repeat examples
RUNS_WORD = b"abacaabaababaacaabcbaabaca"
# the 26-symbol string from the generalised-run example
GRUN_WORD = b"bbdaaaabaabaabaabaabacbaac"
# the 13-digit string used in the square-classification examples
SQ_WORD = [1, 3, 2, 2, 4, 3, 4, 4, 1, 2, 3, 2, 3]


def random_text(rng: random.Random, n: int, sigma: int) -> Text:
    return text_from_symbols([rng.randrange(sigma) for _ in range(n)])


def lcp(idx, i: int, j: int) -> int:
    """The LCP of the suffixes i and j of an index: one cell of `lcp_batch`."""
    return int(idx.lcp_batch(np.array([i]), np.array([j]))[0])


def code(enc, i: int, j: int) -> int:
    """The code of T[i..j] under an encoder: one cell of `code_block`."""
    return int(enc.code_block(np.array([i]), j - i, 1)[0, 0])


def fibonacci(n: int) -> list[int]:
    """The first n symbols of the Fibonacci word 0100101001001..."""
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def small_corpus(seed=0, trials=40, max_n=40, sigmas=(2, 3, 4, 5)):
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        n = rng.randint(0, max_n)
        out.append(random_text(rng, n, rng.choice(sigmas)))
    return out


@pytest.fixture(scope="session")
def runs_text():
    from genreps.text import parse_text

    return parse_text(RUNS_WORD)


@pytest.fixture(scope="session")
def grun_text():
    from genreps.text import parse_text

    return parse_text(GRUN_WORD)


@pytest.fixture(scope="session")
def sq_text():
    return text_from_symbols(SQ_WORD)
