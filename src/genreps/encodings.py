"""Substring encoders for the supported equivalence relations.

Each encoder maps a substring T[i..j] to an integer code such that two
equal-length substrings are equivalent under the relation iff all their
prefix codes agree.  Codes are always >= 0, so -1 can serve as an
end-marker strictly below every code.

Each encoder computes its codes in one place, the vectorized
`code_block(starts, t0, depth)`, which returns a block of prefix codes
for many suffixes at once; a single code is a one-row, one-column block.
Every encoder but op's keeps an int32 array A per position, -1 past n
out to 2n+2 cells, and reads a block as strided windows of it,
block[r, c] = A[starts[r] + t0 + c], by one row gather (`_windows`);
its blocks are int32.  Op's codes reach about n**2 and its blocks stay
int64.

Relations: "exact" (equality), "param" (parameterized matching, i.e. a
bijection between alphabets), "op" (order-preserving), "ct" (equal
Cartesian-tree shapes), "pal" (equal palindromic-substring structure).
"ct_suffix" is the suffix-direction twin of "ct" used on reversed texts.

`profiles` gives the recency codes of every prefix and of every reversed
suffix, the sigma-bounded input of the paper's p-square construction,
which the tests keep as the reference for the param square table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .text import Text

RELATIONS = ("exact", "param", "op", "ct", "pal")


class Encoder:
    relation = "?"

    def __init__(self, text: Text):
        self.text = text

    def code_block(self, starts: np.ndarray, t0: int, depth: int) -> np.ndarray:
        """Code columns t0..t0+depth-1 of the suffixes at `starts`.

        out[r, c] is the code of T[s..s+t0+c] for s = starts[r], or -1 once
        s+t0+c runs past n.
        """
        raise NotImplementedError


def _per_position(values: np.ndarray, n: int) -> np.ndarray:
    """An int32 array of length 2n+2 with `values` at positions 1..n and
    -1 elsewhere: past n it covers every block the index's block sort
    reads (starts.max() + t0 + depth <= 2n+1)."""
    a = np.full(2 * n + 2, -1, dtype=np.int32)
    a[1 : n + 1] = values
    return a


def _windows(a: np.ndarray, starts: np.ndarray, t0: int, depth: int) -> np.ndarray:
    """block[r, c] = a[starts[r] + t0 + c], one row gather of the sliding
    windows of `a`; a copy of `a` extended with -1 serves rows that read
    past its end."""
    starts = np.asarray(starts, dtype=np.intp)
    need = int(starts.max(initial=0)) + t0 + depth
    if need > len(a):
        a = np.concatenate((a, np.full(need - len(a), -1, dtype=a.dtype)))
    return sliding_window_view(a, depth)[starts + t0]


class _ClipEncoder(Encoder):
    """Distance to an anchored previous position, clipped to the window.

    The anchor array names, for each position j, the previous position that
    defines the code.  D[j] = j - anchor[j] is kept per position (int32,
    -1 past n); the cell of T[s..s+t] is D[s+t] when D[s+t] <= t (the
    anchor falls inside the window), else 0.  A block is one window gather
    of D, one compare against its columns t and one in-place multiply by
    the result; the end-marker needs no test, since -1 <= t.
    """

    def __init__(self, text: Text, anchor: np.ndarray):
        super().__init__(text)
        n = text.n
        self._dist = _per_position(np.arange(1, n + 1) - anchor[1:], n)

    def code_block(self, starts: np.ndarray, t0: int, depth: int) -> np.ndarray:
        d = _windows(self._dist, starts, t0, depth)
        return np.multiply(d, d <= np.arange(t0, t0 + depth, dtype=np.int32), out=d)


class ExactEncoder(Encoder):
    """The symbol itself.  The index sorts exact suffixes without blocks
    (`index._exact_sort`); this code block serves `scer_match`."""

    relation = "exact"

    def __init__(self, text: Text):
        super().__init__(text)
        self._symbols = _per_position(text.padded_np[1:], text.n)

    def code_block(self, starts: np.ndarray, t0: int, depth: int) -> np.ndarray:
        return _windows(self._symbols, starts, t0, depth)


class ParamEncoder(_ClipEncoder):
    """Distance to the previous occurrence of the last symbol (prev-encoding)."""

    relation = "param"

    def __init__(self, text: Text):
        super().__init__(text, text.prev)


def _nearest_before(text: Text, strict: bool) -> np.ndarray:
    """nearest[j]: largest m < j with T[m] <= T[j] (or < for strict), 0 if none.

    One previous-smaller search over the keys T[m] * (n+1) + m (- m for
    strict): for m < j, key[m] < key[j] exactly when T[m] <= T[j] (or <),
    and the pad T[0] = -1 keys below every position, so none reads as 0.
    """
    from .index import _MinTable  # the index module imports this one

    n = text.n
    m = np.arange(n + 1)
    key = text.padded_np * (n + 1)
    key += -m if strict else m
    out = _MinTable(key).prev_smaller(m)
    out[0] = 0
    return out


class CtEncoder(_ClipEncoder):
    """Parent distance in the Cartesian tree built with leftmost-minimum ties."""

    relation = "ct"

    def __init__(self, text: Text):
        super().__init__(text, _nearest_before(text, strict=False))


class CtSuffixEncoder(_ClipEncoder):
    """Suffix-direction twin of CtEncoder (strict nearest-smaller anchor).

    Encoding X under this relation equals encoding X reversed under "ct";
    it is what "ct" becomes on a reversed text, since Cartesian-tree
    matching is not closed under reversal when ties are present.
    """

    relation = "ct_suffix"

    def __init__(self, text: Text):
        super().__init__(text, _nearest_before(text, strict=True))


class _WaveletMatrix:
    """Wavelet matrix (Claude, Navarro and Ordonez, 2015) over a symbol
    array with values in [0..sigma); its queries run elementwise over
    arrays of half-open ranges [lo, hi), one pass per level, no backtracking.
    """

    def __init__(self, values: np.ndarray, sigma: int):
        # one level more than sigma - 1 needs, so a threshold of sigma fits
        bits = max(1, sigma.bit_length())
        self.levels = []  # (bit, zeros-prefix array, count of zeros), top bit first
        cur = np.asarray(values, dtype=np.int64)
        for b in range(bits - 1, -1, -1):
            zero = (cur >> b) & 1 == 0
            prefix = np.zeros(len(cur) + 1, dtype=np.int64)
            zero.cumsum(out=prefix[1:])
            self.levels.append((b, prefix, int(prefix[-1])))
            cur = np.concatenate((cur[zero], cur[~zero]))

    def count_less(self, v, lo, hi):
        """Number of values below v in each range."""
        out = np.zeros_like(lo)
        for b, prefix, nz in self.levels:
            z_lo, z_hi = prefix[lo], prefix[hi]
            one = (v >> b) & 1 == 1
            out += np.where(one, z_hi - z_lo, 0)
            lo = np.where(one, nz + lo - z_lo, z_lo)
            hi = np.where(one, nz + hi - z_hi, z_hi)
        return out

    def quantile(self, lo, hi, k):
        """The k-th smallest value (0-based) in each range; needs k < hi - lo."""
        out = np.zeros_like(lo)
        for b, prefix, nz in self.levels:
            z_lo, z_hi = prefix[lo], prefix[hi]
            one = k >= z_hi - z_lo
            out |= one.astype(np.int64) << b
            k = np.where(one, k - (z_hi - z_lo), k)
            lo = np.where(one, nz + lo - z_lo, z_lo)
            hi = np.where(one, nz + hi - z_hi, z_hi)
        return out


class OpEncoder(Encoder):
    """Order-preserving code: positions of the tightest value neighbours.

    For X = T[i..j], alpha is the last position in X[1..|X|) holding the
    largest value <= X[|X|], beta the last position holding the smallest
    value >= X[|X|] (0 when absent); the code packs them as
    alpha * |X| + beta.

    Code blocks are vectorized.  When T[j] occurs in the window, its
    previous occurrence is both neighbours (one gather, as for param).
    Otherwise a wavelet matrix over the text, built on the first block,
    gives the neighbour values by rank and quantile queries, and a sorted
    (value, position) key array gives their last positions before j.
    """

    relation = "op"

    def __init__(self, text: Text):
        super().__init__(text)
        self._wavelet: _WaveletMatrix | None = None
        self._keys: np.ndarray | None = None

    def code_block(self, starts: np.ndarray, t0: int, depth: int) -> np.ndarray:
        text = self.text
        # int64 cells: the codes reach about n**2
        s = np.asarray(starts, dtype=np.int64)[:, None]
        j = s + np.arange(t0, t0 + depth)
        valid = j <= text.n
        np.minimum(j, text.n, out=j)
        p = text.prev[j]
        # T[j] in the window: alpha = beta = p - s + 1
        out = np.where(valid, np.where(p >= s, (p - s + 1) * (j - s + 2), 0), -1)
        rest = np.flatnonzero(valid & (p < s) & (j > s))  # a 2-D nonzero costs ~0.25 ms even when empty
        if not len(rest):
            return out
        if self._wavelet is None:
            sym = text.padded_np[1:]
            self._wavelet = _WaveletMatrix(sym, text.sigma)
            self._keys = np.sort(sym * (text.n + 2) + np.arange(1, text.n + 1))
        s = s[rest // depth, 0]
        j = j.reshape(-1)[rest]
        v = text.padded_np[j]
        lo, hi = s - 1, j - 1  # the window T[s..j) as a 0-based range
        wm = self._wavelet
        # c values of the window lie below T[j]: alpha's value is the c-th
        # smallest, beta's the next one
        c = wm.count_less(v + 1, lo, hi)
        below, above = np.nonzero(c > 0)[0], np.nonzero(c < j - s)[0]
        cell = np.concatenate((below, above))
        x = wm.quantile(lo[cell], hi[cell], np.concatenate((c[below] - 1, c[above])))
        # the last position before j holding x, relative to s
        w = text.n + 2
        rel = self._keys[np.searchsorted(self._keys, x * w + j[cell]) - 1] - x * w - s[cell] + 1
        alpha, beta = np.zeros_like(c), np.zeros_like(c)
        alpha[below], beta[above] = rel[: len(below)], rel[len(below) :]
        out.reshape(-1)[rest] = alpha * (j - s + 1) + beta
        return out


@dataclass(frozen=True)
class PalindromeRadii:
    """Maximal palindrome radii per center, 1-based (index 0 unused).

    odd[c] = max r with T[c-r..c+r] a palindrome;
    even[c] = max r with T[c-r+1..c+r] a palindrome (center between c, c+1).
    """

    odd: np.ndarray
    even: np.ndarray

    def reversed(self) -> "PalindromeRadii":
        """Radii of the reversed text: centre c there is centre n+1-c here
        (odd), and the gap after c is the gap after n-c here (even)."""
        odd = np.zeros_like(self.odd)
        odd[1:] = self.odd[:0:-1]
        even = np.zeros_like(self.even)
        even[1:-1] = self.even[-2:0:-1]
        return PalindromeRadii(odd, even)


def maximal_palindromes(t: Text) -> PalindromeRadii:
    """All maximal palindromes by LCE queries on T$T^R, O(n log n).

    T[x] sits at position 2n+2-x of T$T^R, so on its exact index
    (`repeats.jump_index`) odd[c] = LCP(c+1, 2n+3-c) and even[c] =
    LCP(c+1, 2n+2-c): two batch queries.  $ stops the forward side at the
    end of T, and the end of T$T^R stops the backward side at its start.
    """
    from .repeats import jump_index  # the repeats module imports this one

    n = t.n
    c = np.arange(1, n + 1)
    lcp = jump_index(t).lcp_batch
    return PalindromeRadii(np.append(0, lcp(c + 1, 2 * n + 3 - c)), np.append(0, lcp(c + 1, 2 * n + 2 - c)))


class PalEncoder(Encoder):
    """Length of the longest suffix palindrome of the substring.

    Centres are doubled: h = 2c is the odd centre c and h = 2c+1 the gap
    after c, and reach[h] = c + its radius is the last position its
    maximal palindrome covers; a sentinel h = 2n+2 reaches n+1.  The
    palindrome at h that ends at j starts at h-j, so the longest suffix
    palindrome of T[s..j] is 2j-h+1 long, for the leftmost h >= s+j with
    reach[h] >= j (h = 2j, or the sentinel, always qualifies), found by
    one threshold descent over a sparse table of the complemented reaches.

    Two window gathers settle most cells of a block before any descent.
    L(j), the longest palindromic suffix of T[1..j] (what an eertree keeps
    per position; Rubinchik and Shur, Eur. J. Combin. 2018), is one
    descent over positions 1..n at construction: when L(j) <= j-s+1 the
    palindrome starts inside the window and the code is L(j).  Otherwise,
    when the whole window is a palindrome (E[s+j] <= s for E[h] = h -
    reach[h]) the code is j-s+1.  Only the cells left after both go to
    the descent; on unary text none does.
    """

    relation = "pal"

    def __init__(self, text: Text, radii: PalindromeRadii | None = None):
        """`radii`, when given, are the text's `maximal_palindromes`."""
        from .index import _MinTable  # the index module imports this one

        super().__init__(text)
        radii = radii if radii is not None else maximal_palindromes(text)
        self.radii = radii
        n = text.n
        reach = np.full(2 * n + 3, n + 1, dtype=np.int32)
        c = np.arange(n + 1, dtype=np.int32)
        reach[0:-1:2] = c + radii.odd
        reach[1:-1:2] = c + radii.even
        self._reach = _MinTable(~reach)  # reach >= j exactly when ~reach <= ~j
        j = np.arange(1, n + 1, dtype=np.int32)
        self._suffix = _per_position(2 * j + 1 - self._reach.first_at_most(j + 1, ~j), n)
        # E[h] = h - reach[h], padded to 3n+3 cells, which covers the rows
        # 2s+t0 of every block the block sort reads (s <= n+1, t0+depth <= n);
        # only cells with j <= n use it, at h = s+j <= 2n
        self._excess = np.full(3 * n + 3, -1, dtype=np.int32)
        self._excess[: 2 * n + 3] = np.arange(2 * n + 3, dtype=np.int32) - reach

    def code_block(self, starts: np.ndarray, t0: int, depth: int) -> np.ndarray:
        starts = np.asarray(starts, dtype=np.intp)
        out = _windows(self._suffix, starts, t0, depth)
        width = np.arange(t0 + 1, t0 + depth + 1, dtype=np.int32)  # the windows' lengths
        rest = out > width  # L(j) starts before s
        if not rest.any():
            return out
        whole = _windows(self._excess, 2 * starts, t0, depth) <= starts[:, None]
        whole &= rest
        np.copyto(out, width, where=whole)
        rest &= ~whole
        cell = np.flatnonzero(rest)  # a 2-D nonzero costs ~0.25 ms even when empty
        if len(cell):
            r, c = np.divmod(cell, depth)
            s = starts[r]
            j = s + t0 + c
            out.reshape(-1)[cell] = 2 * j + 1 - self._reach.first_at_most(s + j, ~j)
        return out


_ENCODERS = {
    "exact": ExactEncoder,
    "param": ParamEncoder,
    "op": OpEncoder,
    "ct": CtEncoder,
    "ct_suffix": CtSuffixEncoder,
    "pal": PalEncoder,
}

# relation to use on the reversed text so that matches mirror exactly
REVERSED_RELATION = {
    "exact": "exact",
    "param": "param",
    "op": "op",
    "pal": "pal",
    "ct": "ct_suffix",
    "ct_suffix": "ct",
}


def make_encoder(text: Text, relation: str) -> Encoder:
    try:
        cls = _ENCODERS[relation]
    except KeyError:
        raise ValueError(f"unknown relation {relation!r}") from None
    return cls(text)


def scer_match(enc: Encoder, i1: int, j1: int, i2: int, j2: int) -> bool:
    """Definitional equivalence check: equal lengths and equal prefix codes.

    Each window T[i..j] must lie in T[1..n] (j = i - 1 is the empty window).
    """
    for i, j in ((i1, j1), (i2, j2)):
        if not (1 <= i <= j + 1 <= enc.text.n + 1):
            raise ValueError(f"window [{i}..{j}] out of range for n={enc.text.n}")
    if j1 - i1 != j2 - i2:
        return False
    a, b = enc.code_block(np.array([i1, i2]), 0, j1 - i1 + 1)
    return bool((a == b).all())


@dataclass(frozen=True)
class Profiles:
    """Recency codes of all prefixes (forward) and reversed suffixes (backward).

    forward[i] encodes T[1..i]; backward[i] encodes (T[i..n]) reversed.
    Both arrays are 1-based with index 0 unused; values lie in [0..sigma).
    """

    forward: np.ndarray
    backward: np.ndarray


def _prefix_codes(t: Text) -> np.ndarray:
    """The recency code of every prefix T[1..j]: the number of symbols
    whose last occurrence before j lies after prev[j], one pass per symbol."""
    pos = np.arange(t.n + 1)
    out = np.zeros(t.n, dtype=np.int64)
    for c in range(t.sigma):
        last = np.maximum.accumulate(np.where(t.padded_np == c, pos, 0))
        out += last[:-1] > t.prev[1:]
    return out


def profiles(t: Text) -> Profiles:
    # 1-based, with the same -1 pad as Text.padded
    return Profiles(np.append(-1, _prefix_codes(t)), np.append(-1, _prefix_codes(t.reversed())[::-1]))
