"""Substring encoders for the supported equivalence relations.

Each encoder maps a substring T[i..j] to an integer code such that two
equal-length substrings are equivalent under the relation iff all their
prefix codes agree.  Codes are always >= 0, so -1 can serve as an
end-marker strictly below every code.

Relations: "exact" (equality), "param" (parameterized matching, i.e. a
bijection between alphabets), "op" (order-preserving), "ct" (equal
Cartesian-tree shapes), "pal" (equal palindromic-substring structure).
"recency" is the sigma-bounded encoder used by the p-square pipeline, and
"ct_suffix" is the suffix-direction twin of "ct" used on reversed texts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .text import Text

RELATIONS = ("exact", "param", "op", "ct", "pal")


class Encoder:
    relation = "?"

    def __init__(self, text: Text):
        self.text = text

    def code(self, i: int, j: int) -> int:
        """Code of T[i..j], 1 <= i <= j <= n."""
        raise NotImplementedError

    def code_row(self, i: int) -> list[int]:
        """Codes of T[i..j] for all j in [i..n]."""
        return [self.code(i, j) for j in range(i, self.text.n + 1)]

    def code_block(self, starts: np.ndarray, t0: int, depth: int) -> np.ndarray:
        """Code columns t0..t0+depth-1 of the suffixes at `starts`.

        out[r, c] is the code of T[s..s+t0+c] for s = starts[r], or -1 once
        s+t0+c runs past n.  This default calls `code` once per cell.
        """
        n = self.text.n
        code = self.code
        out = np.full((len(starts), depth), -1, dtype=np.int64)
        for r, s in enumerate(starts.tolist()):
            hi = min(s + t0 + depth, n + 1)
            if s + t0 < hi:
                out[r, : hi - s - t0] = [code(s, j) for j in range(s + t0, hi)]
        return out

    def _check(self, i: int, j: int) -> None:
        if not (1 <= i <= j <= self.text.n):
            raise ValueError(f"positions [{i}..{j}] out of range for n={self.text.n}")


def _block_cells(starts: np.ndarray, t0: int, depth: int, n: int):
    """Start column s, end position j (clamped to n) and validity of each
    cell of a code block; see `Encoder.code_block`."""
    s = np.asarray(starts, dtype=np.int64)[:, None]
    j = s + np.arange(t0, t0 + depth)
    valid = j <= n
    return s, np.minimum(j, n), valid


class _ClipEncoder(Encoder):
    """Distance to an anchored previous position, clipped to the window.

    The anchor array names, for each position j, the previous position that
    defines the code; the code is the distance j - anchor[j] when the anchor
    falls inside the queried window, else 0.
    """

    def __init__(self, text: Text, anchor: np.ndarray):
        super().__init__(text)
        self.anchor = anchor
        self._anchor_list = anchor.tolist()

    def code(self, i: int, j: int) -> int:
        self._check(i, j)
        a = self._anchor_list[j]
        return j - a if a >= i else 0

    def code_row(self, i: int) -> list[int]:
        anchor = self._anchor_list
        return [j - anchor[j] if anchor[j] >= i else 0 for j in range(i, self.text.n + 1)]

    def code_block(self, starts: np.ndarray, t0: int, depth: int) -> np.ndarray:
        s, j, valid = _block_cells(starts, t0, depth, self.text.n)
        a = self.anchor[j]
        return np.where(valid, np.where(a >= s, j - a, 0), -1)


class ExactEncoder(Encoder):
    relation = "exact"

    def code(self, i: int, j: int) -> int:
        self._check(i, j)
        return self.text.padded[j]

    def code_row(self, i: int) -> list[int]:
        return self.text.padded[i:]


class ParamEncoder(_ClipEncoder):
    """Distance to the previous occurrence of the last symbol (prev-encoding)."""

    relation = "param"

    def __init__(self, text: Text):
        super().__init__(text, text.prev)


def _nearest_before(text: Text, strict: bool) -> np.ndarray:
    """nearest[j]: largest m < j with T[m] <= T[j] (or < for strict), 0 if none."""
    n = text.n
    s = text.padded
    out = np.zeros(n + 1, dtype=np.int64)
    stack: list[int] = []
    for j in range(1, n + 1):
        v = s[j]
        if strict:
            while stack and s[stack[-1]] >= v:
                stack.pop()
        else:
            while stack and s[stack[-1]] > v:
                stack.pop()
        out[j] = stack[-1] if stack else 0
        stack.append(j)
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


class OpEncoder(Encoder):
    """Order-preserving code: positions of the tightest value neighbours.

    For X = T[i..j], alpha is the last position in X[1..|X|) holding the
    largest value <= X[|X|], beta the last position holding the smallest
    value >= X[|X|] (0 when absent); the code packs them as
    alpha * |X| + beta.
    """

    relation = "op"

    def code(self, i: int, j: int) -> int:
        self._check(i, j)
        s = self.text.padded
        v = s[j]
        alpha = beta = 0
        best_le = best_ge = -1
        for m in range(j - 1, i - 1, -1):
            x = s[m]
            if x <= v and (best_le == -1 or x > best_le):
                best_le = x
                alpha = m - i + 1
            if x >= v and (best_ge == -1 or x < best_ge):
                best_ge = x
                beta = m - i + 1
            if best_le == v and best_ge == v:
                break
        return alpha * (j - i + 1) + beta

    def code_row(self, i: int) -> list[int]:
        # incremental per-start scan: track the last position of every value
        s = self.text.padded
        sigma = self.text.sigma
        last = [0] * sigma
        row = []
        for j in range(i, self.text.n + 1):
            v = s[j]
            alpha = beta = 0
            for x in range(v, -1, -1):
                if last[x]:
                    alpha = last[x] - i + 1
                    break
            for x in range(v, sigma):
                if last[x]:
                    beta = last[x] - i + 1
                    break
            row.append(alpha * (j - i + 1) + beta)
            last[v] = j
        return row


class RecencyEncoder(Encoder):
    """Number of distinct symbols since the previous occurrence of T[j].

    The code of T[i..j] counts the distinct symbols in the longest suffix
    of T[i..j) that avoids T[j]; all codes lie in [0..sigma).
    """

    relation = "recency"

    def __init__(self, text: Text):
        super().__init__(text)
        self._counts = text.counts.table
        self._prev = text.prev

    def code(self, i: int, j: int) -> int:
        self._check(i, j)
        lo = max(int(self._prev[j]) + 1, i)
        if lo >= j:
            return 0
        col_hi = self._counts[:, j - 1]
        col_lo = self._counts[:, lo - 1]
        return int(np.count_nonzero(col_hi > col_lo))

    def code_row(self, i: int) -> list[int]:
        s = self.text.padded
        sigma = self.text.sigma
        last = [0] * sigma
        row = []
        for j in range(i, self.text.n + 1):
            c = s[j]
            p = last[c]
            row.append(sum(1 for x in last if x > p))
            last[c] = j
        return row


@dataclass(frozen=True)
class PalindromeRadii:
    """Maximal palindrome radii per center, 1-based (index 0 unused).

    odd[c] = max r with T[c-r..c+r] a palindrome;
    even[c] = max r with T[c-r+1..c+r] a palindrome (center between c, c+1).
    """

    odd: np.ndarray
    even: np.ndarray


def maximal_palindromes(t: Text) -> PalindromeRadii:
    """All maximal palindromes by Manacher's algorithm, O(n)."""
    n = t.n
    s = t.padded
    # separator-padded string U of length 2n+1: U[2i] = T[i], separators at odd slots
    m = 2 * n + 1
    u = [-1] * (m + 1)
    for i in range(1, n + 1):
        u[2 * i] = s[i]
    rad = [0] * (m + 1)
    left = right = 1
    for c in range(1, m + 1):
        k = 1 if c > right else min(rad[left + right - c] + 1, right - c + 1)
        while c - k >= 1 and c + k <= m and u[c - k] == u[c + k]:
            k += 1
        rad[c] = k - 1
        if c + k - 1 > right:
            left, right = c - k + 1, c + k - 1
    odd = np.zeros(n + 1, dtype=np.int64)
    even = np.zeros(n + 1, dtype=np.int64)
    for c in range(1, n + 1):
        odd[c] = rad[2 * c] // 2
        if c < n:
            even[c] = rad[2 * c + 1] // 2
    return PalindromeRadii(odd, even)


def _reach_levels(reach: np.ndarray) -> list[np.ndarray]:
    """levels[k][c] = max(reach[c .. c + 2^k - 1]), for c in [0..n+1].

    `reach` is 1-based over centres 1..n.  Windows that run past n read
    as n + 1, above every query bound, so a descent never skips them.
    """
    n = len(reach) - 1
    top = np.append(reach, n + 1)
    levels = [top]
    for k in range(1, max(n, 1).bit_length()):
        half = 1 << (k - 1)
        nxt = np.full(n + 2, n + 1, dtype=np.int64)
        nxt[: n + 2 - half] = np.maximum(top[: n + 2 - half], top[half:])
        levels.append(nxt)
        top = nxt
    return levels


def _leftmost_reaching(levels, lo, j):
    """Leftmost centre c >= lo with reach[c] >= j, by binary lifting over
    `_reach_levels`; works on scalars with list levels and elementwise on
    arrays with array levels."""
    c = lo
    for k in range(len(levels) - 1, -1, -1):
        c = c + ((levels[k][c] < j) << k)
    return c


def _suffix_palindrome(odd, even, i, j):
    c_odd = _leftmost_reaching(odd, (i + j + 1) // 2, j)
    c_even = _leftmost_reaching(even, (i + j) // 2, j)  # c_even == j: none
    return np.maximum(2 * (j - c_odd) + 1, 2 * (j - c_even))


class PalEncoder(Encoder):
    """Length of the longest suffix palindrome of the substring.

    The longest palindrome suffix of T[i..j] has the leftmost centre c
    whose maximal palindrome reaches j (c + radius >= j) among the centres
    whose palindrome ending at j starts at or after i.  Codes and code
    blocks find that centre by a descent over sparse tables of the
    Manacher reaches.
    """

    relation = "pal"

    def __init__(self, text: Text):
        super().__init__(text)
        radii = maximal_palindromes(text)
        c = np.arange(text.n + 1)
        self._odd = _reach_levels(c + radii.odd)
        self._even = _reach_levels(c + radii.even)
        self._lists = None

    def code(self, i: int, j: int) -> int:
        self._check(i, j)
        if self._lists is None:
            self._lists = [[lvl.tolist() for lvl in levels] for levels in (self._odd, self._even)]
        return int(_suffix_palindrome(*self._lists, i, j))

    def code_row(self, i: int) -> list[int]:
        # the leftmost qualifying centre never moves left as j grows
        odd, even = self._odd[0].tolist(), self._even[0].tolist()
        row = []
        c_odd = c_even = i
        for j in range(i, self.text.n + 1):
            c_odd = max(c_odd, (i + j + 1) // 2)
            while odd[c_odd] < j:
                c_odd += 1
            c_even = max(c_even, (i + j) // 2)
            while even[c_even] < j:
                c_even += 1
            row.append(max(2 * (j - c_odd) + 1, 2 * (j - c_even)))
        return row

    def code_block(self, starts: np.ndarray, t0: int, depth: int) -> np.ndarray:
        s, j, valid = _block_cells(starts, t0, depth, self.text.n)
        return np.where(valid, _suffix_palindrome(self._odd, self._even, s, j), -1)


_ENCODERS = {
    "exact": ExactEncoder,
    "param": ParamEncoder,
    "op": OpEncoder,
    "ct": CtEncoder,
    "ct_suffix": CtSuffixEncoder,
    "pal": PalEncoder,
    "recency": RecencyEncoder,
}

# relation to use on the reversed text so that matches mirror exactly
REVERSED_RELATION = {
    "exact": "exact",
    "param": "param",
    "op": "op",
    "pal": "pal",
    "ct": "ct_suffix",
    "ct_suffix": "ct",
    "recency": "recency",
}


def make_encoder(text: Text, relation: str) -> Encoder:
    try:
        cls = _ENCODERS[relation]
    except KeyError:
        raise ValueError(f"unknown relation {relation!r}") from None
    return cls(text)


def scer_match(enc: Encoder, i1: int, j1: int, i2: int, j2: int) -> bool:
    """Definitional equivalence check: equal lengths and equal prefix codes."""
    if j1 - i1 != j2 - i2:
        return False
    for off in range(j1 - i1 + 1):
        if enc.code(i1, i1 + off) != enc.code(i2, i2 + off):
            return False
    return True


@dataclass(frozen=True)
class Profiles:
    """Recency codes of all prefixes (forward) and reversed suffixes (backward).

    forward[i] encodes T[1..i]; backward[i] encodes (T[i..n]) reversed.
    Both arrays are 1-based with index 0 unused; values lie in [0..sigma).
    """

    forward: np.ndarray
    backward: np.ndarray


def profiles(t: Text) -> Profiles:
    n = t.n
    sigma = t.sigma
    s = t.padded
    fwd = np.zeros(n + 1, dtype=np.int64)
    fwd[0] = -1  # 1-based pad, same convention as Text.padded
    last = [0] * sigma
    for i in range(1, n + 1):
        p = last[s[i]]
        fwd[i] = sum(1 for x in last if x > p)
        last[s[i]] = i
    bwd = np.zeros(n + 1, dtype=np.int64)
    bwd[0] = -1
    sentinel = n + 1
    nxt = [sentinel] * sigma
    for i in range(n, 0, -1):
        q = nxt[s[i]]
        bwd[i] = sum(1 for x in nxt if x < q)
        nxt[s[i]] = i
    return Profiles(fwd, bwd)
