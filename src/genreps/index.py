"""Suffix index for a text under an equivalence-relation encoder.

The index orders the code strings of all suffixes (each suffix T[i..n]
contributes the sequence of codes of its prefixes, terminated by an
end-marker below every code), stores the order, its inverse (rank) and
the adjacent-pair LCP array as int32 numpy arrays, and answers
longest-common-equivalent-prefix queries between any two suffixes via
range-minimum queries on a numpy sparse table, a whole batch at once;
the p-square reports split their intervals with the same batch minima
(`psquares`).  The same table finds every position's previous smaller
value by a binary-lifting descent, and its next smaller one by the
threshold descent `first_at_most`, which always stops at a sentinel cell
below every value at the end of the array.  Over the LCP array those give
the LCP intervals (`TreeView`, the internal nodes of the suffix tree as
int32 arrays), which the counting pass reads, and over the suffix order
the longest-previous-factor array, each in one batched pass.

Construction is deterministic, and the relation alone picks the path at
every text length, n = 0 included.  Exact matching sorts by prefix
doubling from a packed first key (h0 symbols per int64) with one argsort
per round, and lifts each adjacent LCP down the rounds' rank levels.
Every other relation takes one block sort, a level-synchronous MSD radix
sort that asks the encoder for blocks of code columns
(`Encoder.code_block`: int32, or int64 for op) of all still-tied
suffixes, packs each block into a few int64 words per suffix (as many
code + 1 slots per word as fit in 62 bits), sorts the words within
their tie groups by one argsort or one lexsort, and writes each
adjacent LCP at the leading differing slot of the first word where a
tied pair differs.  It carries no LCP from one
suffix to the next (Kasai's carry), since that is unsound for
window-clipped encodings.  Each path makes the three arrays once;
nothing downstream converts them again.

The same cell budget bounds the batched passes downstream: `_cells`
walks the cells of consecutive ranges in chunks of at most a budget of
cells, a range straddling two chunks where it must.  The right
non-extendible probes (`counting`) walk their child ranges through it,
and the sampled repeat enumerators (`repeats`) the samples of their
periods.
"""

from __future__ import annotations

import numpy as np

from .encodings import Encoder, ExactEncoder, make_encoder
from .text import Text

# Code columns read per suffix in the block sort's first round; the depth
# doubles each round after that.
_START_DEPTH = 24
# Upper limit on the code cells one round reads (block rows x columns),
# which bounds the block's memory; rounds go narrower to stay under it.
# The `_cells` walks of counting and repeats take their budgets from it.
_ROUND_CELLS = 1 << 17


class _MinTable:
    """Range minima of an integer array by a sparse table.

    Row k of one (levels x m) numpy array (int32 where the values fit)
    holds the minimum of every window of 2**k cells, clipped at the end of
    the array.  Every query runs elementwise over arrays: `query_batch`
    reads two cells per range, and the previous-smaller search and the
    threshold descent `first_at_most` descend the rows by binary lifting,
    one elementwise round per row over all of their positions at once.
    """

    def __init__(self, arr):
        a = np.asarray(arr)
        m = len(a)
        small = a.dtype == np.int32 or m == 0 or (-(1 << 31) <= a.min() and a.max() < 1 << 31)
        tab = np.empty((max(1, m.bit_length()), m), dtype=np.int32 if small else np.int64)
        tab[0] = a
        for k in range(1, len(tab)):
            half = 1 << (k - 1)
            np.minimum(tab[k - 1, : m - half], tab[k - 1, half:], out=tab[k, : m - half])
            tab[k, m - half :] = tab[k - 1, m - half :]
        self._tab = tab
        self._rows = list(tab)  # one row gathers faster than tab[k, idx]
        self._m = m
        self._log: np.ndarray | None = None

    def query_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """min(arr[lo..hi]) for each pair of the arrays; requires lo <= hi."""
        if self._log is None:
            # floor(log2(length)) for every range length 1..m, at index length-1
            self._log = (np.frexp(np.arange(1, self._m + 1))[1] - 1).astype(np.intp)
        k = self._log[hi - lo]
        tab = self._tab
        return np.minimum(tab[k, lo], tab[k, hi + 1 - (1 << k)])

    def prev_smaller(self, pos: np.ndarray) -> np.ndarray:
        """For each position r, the largest q < r with arr[q] < arr[r], or -1."""
        rows = self._rows
        thr = rows[0][pos]
        cur = np.array(pos, dtype=np.intp)
        zero = np.intp(0)
        for k in range(len(rows) - 1, -1, -1):
            # a window clamped to start at 0 that passes means all of
            # arr[0..cur) passes: cur may then go below 0, and the answer is -1
            step = np.intp(1 << k)
            ok = rows[k][np.maximum(cur - step, zero)] >= thr
            np.subtract(cur, step, out=cur, where=ok)
        cur -= 1
        return np.maximum(cur, -1, out=cur)

    def first_at_most(self, lo: np.ndarray, thr: np.ndarray) -> np.ndarray:
        """For each pair, the smallest q >= lo with arr[q] <= thr.

        Such a q must exist for every pair: the descent then skips only
        windows that end before it, so it reads no cell past the end of
        the array and needs no clipping.
        """
        rows = self._rows
        thr = thr.astype(self._tab.dtype)  # once here, not once per row
        cur = np.array(lo, dtype=np.intp)
        for k in range(len(rows) - 1, -1, -1):
            np.add(cur, np.intp(1 << k), out=cur, where=rows[k][cur] > thr)
        return cur


def _block_sort(encoder: Encoder, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Suffix order and adjacent LCPs by a level-synchronous MSD block sort.

    Every round reads one block of code columns t0..t0+depth-1 for all
    suffixes still tied on columns 0..t0-1, sorts them keyed on (tie
    group, block) by packed words (`_sort_block`), and sets lcp = t0 + the
    first differing column for each adjacent pair of a group that the
    block separates.  Pairs equal on the whole block stay tied.  A
    suffix's end-marker (-1) differs from any code, so two distinct
    suffixes never tie past the shorter one's end.
    """
    order = np.arange(1, n + 2, dtype=np.int64)  # the empty suffix n+1 sorts first
    lcp = np.zeros(n + 1, dtype=np.int64)
    pos = np.arange(n + 1)  # positions in `order` of the tied suffixes
    group = np.zeros(n + 1, dtype=np.int64)  # first position of each one's tie group
    t0 = 0
    while len(pos) > 1:
        starts = order[pos]
        # doubling depth, under the cell budget, and no wider than the
        # columns the longest tied suffix has left
        width = n + 1 - int(starts.min()) - t0
        depth = min(t0 + _START_DEPTH, max(1, _ROUND_CELLS // len(pos)), width)
        perm, same, split, col = _sort_block(encoder.code_block(starts, t0, depth), group)
        order[pos] = starts[perm]
        lcp[pos[1:][split]] = t0 + col
        tie = same & ~split
        keep = np.concatenate(([False], tie)) | np.concatenate((tie, [False]))
        first = keep & ~np.concatenate(([False], tie))
        group = np.maximum.accumulate(np.where(first, pos, 0))[keep]
        pos = pos[keep]
        t0 += depth
    return order, lcp


def _sort_block(block: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort the rows of a code block (int32 or int64) keyed on (group,
    row) by packed int64 words.

    Each row packs into int64 words: code + 1 (so the end-marker is 0) in
    `b` bits, b the bit length of the largest one, goes in slot c % per
    of word c // per, the first column in the highest slot, and a last
    word with fewer columns leaves its low slots 0.  Words compare as the
    columns they hold, and the leading set bit of the xor of two words
    lies in their first differing slot.  The block, which the caller no
    longer holds, is dropped once packed.  One word and the group fit in
    one key when the group's bit length plus per * b is at most 63; then
    one argsort orders the rows, and otherwise one lexsort over (words...,
    group) does.

    Returns the permutation, for each adjacent pair of sorted rows whether
    it lies in one group (`same`) and whether its rows differ there
    (`split`), and the first differing column of each split pair.
    """
    m, depth = block.shape
    b = max(1, (int(block.max()) + 1).bit_length())
    per = min(depth, max(1, 62 // b))
    # slot k of a word holds its column times 2 ** ((per - 1 - k) * b): the
    # slots' bits are disjoint, so one multiply-and-sum shifts and ORs them
    full = depth // per
    scale = np.left_shift(1, (per - 1 - np.arange(per)) * b)
    words = np.empty((m, -(-depth // per)), dtype=np.int64)
    np.einsum("ijk,k->ij", block[:, : full * per].reshape(m, full, per), scale, out=words[:, :full])
    if full < words.shape[1]:
        np.einsum("ij,j->i", block[:, full * per :], scale[: depth - full * per], out=words[:, full])
    del block
    # code + 1 in every slot
    words[:, :full] += scale.sum()
    words[:, full:] += scale[: depth - full * per].sum()
    w = None
    if words.shape[1] == 1 and int(group[-1]).bit_length() + per * b <= 63:
        key = group << (per * b)
        key |= words[:, 0]
        del words
        perm = np.argsort(key)
        key = key[perm]
        # two keys xor below 1 << (per * b) exactly when their groups
        # agree, and the xor is then that of their words
        x = key[1:] ^ key[:-1]
        del key
        same = x < 1 << (per * b)
    else:
        perm = np.lexsort((*words.T[::-1], group))
        words = np.take(words, perm, axis=0)
        x = words[1:] ^ words[:-1]
        del words
        w = (x != 0).argmax(axis=1)  # the first differing word, 0 if none
        x = x[np.arange(m - 1), w]
        same = group[1:] == group[:-1]
    split = same & (x != 0)
    col = (per * b - _bit_length(x[split])) // b
    if w is not None:
        col += w[split] * per
    return perm, same, split, col


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Bit length of each non-negative int64, exactly: a float rounds
    2**k - 1 up to 2**k above 2**53, so frexp reads x >> 31 when x has
    more than 31 bits."""
    top = (x >> 31 > 0) * 31
    return np.frexp(x >> top)[1] + top


def _exact_sort(text: Text) -> tuple[np.ndarray, np.ndarray]:
    """Suffix order and adjacent LCPs of the plain text by prefix doubling.

    Round 0 packs T[i..i+h0) into one int64 key per suffix (symbol + 1 in
    `bits` bits per slot, first symbol highest, 0 past the end) and ranks
    the keys with one argsort.  Each later round doubles h with one key,
    rank * (n + 1) + (rank h further on, + 1, or 0 past the end), and one
    argsort, until every rank differs.  The ranks of the rounds that still
    had ties are the levels: equal ranks at level h mean h equal symbols.
    An adjacent pair's LCP lifts down the levels, largest first, adding h
    where the ranks agree, and ends inside one packed block, at the
    leading slot of the xor of the two keys.
    """
    n, sigma = text.n, text.sigma
    if n == 0:
        return np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    bits = sigma.bit_length()
    h0 = 1 << ((62 // bits).bit_length() - 1)  # largest power of two with h0 * bits <= 62
    key = np.zeros(n + h0, dtype=np.int64)
    key[:n] = text.padded_np[1:] + 1
    h = 1
    while h < h0:
        key[:n] = (key[:n] << (bits * h)) | key[h : n + h]
        h <<= 1
    order, levels = _doubling(key[:n], h0)
    # adjacent pairs (a, b) of the order, 0-based; position n is past the
    # end, where the rank -1 and the key 0 match no suffix
    a, b = order[:-1], order[1:]
    lcp = np.zeros(n - 1, dtype=np.int64)
    h = h0 << len(levels)
    for level in reversed(levels):
        h >>= 1
        np.add(lcp, h, out=lcp, where=level[a + lcp] == level[b + lcp])
    lcp += h0 - 1 - (_bit_length(key[a + lcp] ^ key[b + lcp]) - 1) // bits
    return np.concatenate(([n + 1], order + 1)), np.concatenate(([0, 0], lcp))


def _doubling(key: np.ndarray, h: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Suffix order by prefix doubling from keys that rank the suffixes by
    their first h symbols, and the rank levels: the int32 dense ranks, with
    -1 appended at position n, of every round that still had ties."""
    n = len(key)
    levels = []
    while True:
        order = np.argsort(key)
        sk = key[order]
        rank = np.empty(n + 1, dtype=np.int32)
        rank[n] = -1
        rank[order[0]] = 0
        rank[order[1:]] = np.cumsum(sk[1:] != sk[:-1], dtype=np.int32)
        if rank[order[-1]] == n - 1:
            return order, levels
        levels.append(rank)
        key = rank[:n].astype(np.int64)
        key *= n + 1
        key[: n - h] += rank[h:n]  # two in-place adds: no n-sized temporary
        key[: n - h] += 1
        h <<= 1


class ScerIndex:
    """Suffix ordering, LCP array and RMQ over a code-string collection."""

    def __init__(self, text: Text, relation: str = "exact", encoder: Encoder | None = None):
        self.text = text
        self.encoder = encoder if encoder is not None else make_encoder(text, relation)
        self.relation = self.encoder.relation
        n = text.n
        self.n = n
        if isinstance(self.encoder, ExactEncoder):
            order, lcp = _exact_sort(text)
        else:
            order, lcp = _block_sort(self.encoder, n)
        self.order = np.asarray(order, dtype=np.int32)
        self.lcp = np.asarray(lcp, dtype=np.int32)
        self.rank = np.zeros(n + 2, dtype=np.int32)
        self.rank[self.order] = np.arange(n + 1, dtype=np.int32)
        self._rmq: _MinTable | None = None
        self._lpf: np.ndarray | None = None

    @property
    def rmq(self) -> _MinTable:
        """Range minima of the LCP array, which ends in a sentinel cell -1
        (position n+1): `first_at_most(r + 1, lcp[r] - 1)` is the next
        position with a smaller LCP, n+1 if none."""
        if self._rmq is None:
            self._rmq = _MinTable(np.append(self.lcp, np.int32(-1)))
        return self._rmq

    def lcp_batch(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Elementwise over arrays of positions in [1..n+1], the longest l
        with T[i..i+l) equivalent to T[j..j+l)."""
        r1, r2 = self.rank[i], self.rank[j]
        lo, hi = np.minimum(r1, r2), np.maximum(r1, r2)
        same = lo == hi
        got = self.rmq.query_batch(np.where(same, hi, lo + 1), hi).astype(np.int64)
        return np.where(same, self.n + 1 - i, got)

    def lpf(self) -> np.ndarray:
        """Longest previous factor under the relation; 1-based, index 0 unused.

        lpf[i] is the largest l such that T[i..i+l) is equivalent to
        T[j..j+l) for some j < i: the larger LCP with the nearest
        earlier-starting suffix on each side in rank space, found by
        previous-/next-smaller searches over the order (with a sentinel
        start 0 after its end) and two batch RMQs.
        """
        if self._lpf is not None:
            return self._lpf
        order = self.order
        m = len(order)
        r = np.arange(m)
        starts = _MinTable(np.append(order, np.int32(0)))
        prev, nxt = starts.prev_smaller(r), starts.first_at_most(r + 1, order - 1)
        rmq = self.rmq
        left = rmq.query_batch(prev + 1, r)  # no neighbour (-1): reads lcp[0] = 0
        hi = np.minimum(nxt, m - 1)
        right = rmq.query_batch(np.minimum(r + 1, hi), hi)
        right[nxt == m] = 0
        real = order <= self.n  # all but the empty suffix n+1
        lpf = np.zeros(self.n + 1, dtype=np.int64)
        lpf[order[real]] = np.maximum(left, right)[real]
        self._lpf = lpf
        return lpf


def _cells(sizes: np.ndarray, budget: int):
    """The cells of consecutive ranges of the given sizes, in order, as
    (range, offset) int32 arrays, the offset counted from the range's
    first cell, in chunks of at most `budget` cells each; a range may
    straddle two chunks."""
    ends = np.cumsum(sizes, dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    starts = ends - sizes  # the number of each range's first cell
    for f0 in range(0, total, budget):
        f1 = min(f0 + budget, total)
        r0, r1 = ends.searchsorted([f0, f1 - 1], side="right").tolist()
        met = slice(r0, r1 + 1)  # the ranges the chunk meets, and its share of each
        share = np.minimum(ends[met], f1) - np.maximum(starts[met], f0)
        r = np.arange(r0, r1 + 1, dtype=np.int32).repeat(share)
        # cells numbered from f0 fit int32, however many the ranges hold
        yield r, np.arange(f1 - f0, dtype=np.int32) - (starts[met] - f0).astype(np.int32).repeat(share)


def _run_starts(v: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values starts in v."""
    new = np.empty(len(v), dtype=bool)
    new[:1] = True
    np.not_equal(v[1:], v[:-1], out=new[1:])
    return new


class TreeView:
    """The LCP intervals of an index: the internal nodes of its suffix tree.

    Every position r with lcp[r] = w > 0 cuts the LCP interval of weight w
    around it, [lo, end) with lo and end the nearest positions on either
    side whose LCP is below w (end = n+1 when there is none): the suffixes
    at positions lo..end-1 share an equivalent prefix of length w, and a
    cut splits them into children.  One previous-smaller descent gives
    every cut's lo, one stable argsort groups the cuts by (w, lo), and one
    threshold descent from the first cut of each interval gives its end.

    Kept as arrays: the grouped cuts `cut`, in position order within each
    interval; `new`, the mask of the cuts that open an interval; `heads`,
    their positions in `cut`; and per interval, in (w, lo) order, `lo`,
    `end` and `weight` (int32).  The root [0, n+1) of weight 0 is implicit.
    """

    def __init__(self, index: ScerIndex):
        lcp = index.lcp
        m = len(lcp)
        cut = lcp.nonzero()[0].astype(np.int32)  # lcp[0] = 0
        rmq = index.rmq
        key = lcp[cut] * np.int64(m)
        key += rmq.prev_smaller(cut)
        perm = key.argsort(kind="stable")
        self.cut = cut = cut[perm]
        key = key[perm]
        del perm
        self.new = _run_starts(key)
        self.heads = heads = self.new.nonzero()[0]
        self.weight, self.lo = (v.astype(np.int32) for v in np.divmod(key[heads], m))
        del key
        # the next position with an LCP below w: the sentinel -1 ends the rmq
        self.end = rmq.first_at_most(cut[heads] + 1, self.weight - 1).astype(np.int32)
