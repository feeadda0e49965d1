"""Text model over a dense integer alphabet, plus positional scaffolding.

Positions are 1-based throughout the package.  Positional arrays are
allocated with length n+1 and index 0 unused, so that array formulas read
exactly like their 1-based definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class Text:
    """Immutable text whose symbols are densely remapped to ``[0..sigma)``.

    The remap is monotone in the original symbol values, so both equality
    and relative order of symbols are preserved.
    """

    symbols: tuple[int, ...]
    sigma: int
    alphabet: tuple[int, ...]  # dense code -> original symbol

    def __post_init__(self):
        object.__setattr__(self, "n", len(self.symbols))

    def __len__(self) -> int:
        return self.n

    @cached_property
    def padded(self) -> list[int]:
        """Symbols as a 1-based python list; index 0 holds a -1 pad."""
        return [-1, *self.symbols]

    @cached_property
    def padded_np(self) -> np.ndarray:
        return np.array(self.padded, dtype=np.int64)

    @cached_property
    def prev(self) -> np.ndarray:
        """prev[i]: last position of symbol T[i] in T[1..i), 0 if none."""
        s = self.padded_np
        # positions 1..n grouped by symbol, ascending within each group (a
        # stable sort, by radix on the narrowest dtype that holds sigma)
        pos = np.argsort(s[1:].astype(np.min_scalar_type(self.sigma)), kind="stable") + 1
        same = s[pos[1:]] == s[pos[:-1]]
        prev = np.zeros(self.n + 1, dtype=np.int64)
        prev[pos[1:][same]] = pos[:-1][same]
        return prev

    def reversed(self) -> "Text":
        return _dense_text(self.padded_np[:0:-1], self.sigma, self.alphabet)


def _dense_text(dense: np.ndarray, sigma: int, alphabet: tuple[int, ...]) -> Text:
    """The Text of an int64 array of dense codes, its padded_np seeded from it."""
    t = Text(tuple(dense.tolist()), sigma, alphabet)
    t.__dict__["padded_np"] = np.concatenate(([-1], dense))
    return t


def text_from_symbols(values: Iterable[int]) -> Text:
    """Build a Text from arbitrary non-negative integers via a dense remap."""
    vals = list(values)
    if not vals:
        return Text((), 0, ())
    try:
        arr = np.asarray(vals, dtype=np.int64)
    except OverflowError:
        big = next(v for v in vals if not -(1 << 63) <= v < 1 << 63)
        raise ValueError(f"symbol {big} does not fit in 64 bits") from None
    if arr.min() < 0:
        raise ValueError(f"negative symbol {arr[arr < 0][0]}")
    alphabet, dense = np.unique(arr, return_inverse=True)
    return _dense_text(dense, len(alphabet), tuple(alphabet.tolist()))


# the bytes an "ints" input may hold: ASCII digits and the six ASCII
# whitespace bytes that bytes.split() separates on
_DIGITS_AND_SPACE = b"0123456789 \t\n\r\x0b\x0c"


def parse_text(raw: bytes, mode: str = "bytes") -> Text:
    """Parse raw input into a Text.

    mode "bytes": every byte is one symbol.  mode "ints": ASCII
    whitespace-separated non-negative integers, each a run of ASCII digits
    (no sign, no underscore).
    """
    if mode == "bytes":
        return text_from_symbols(raw)
    if mode == "ints":
        tokens = raw.split()
        if raw.translate(None, _DIGITS_AND_SPACE):
            # some token holds a byte that is neither a digit nor a separator
            bad = next(tok for tok in tokens if not tok.isdigit())
            raise ValueError(f"malformed integer token {bad.decode('utf-8', 'replace')!r}")
        return text_from_symbols(list(map(int, tokens)))
    raise ValueError(f"unknown input mode {mode!r}")
