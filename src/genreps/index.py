"""Suffix index for a text under an equivalence-relation encoder.

The index orders the code strings of all suffixes (each suffix T[i..n]
contributes the sequence of codes of its prefixes, terminated by an
end-marker below every code), stores the adjacent-pair LCP array, and
answers longest-common-equivalent-prefix queries between any two suffixes
via range-minimum queries.  From it we derive longest-previous-factor
arrays and a weighted tree view of the compacted trie.

Construction is deterministic.  Tiny texts (n <= _TINY_N) materialize
and sort the code rows outright.  Larger texts use prefix doubling plus
the Kasai rank walk for exact matching, and one block sort for every
other relation: a level-synchronous MSD radix sort that asks the encoder
for blocks of code columns (`Encoder.code_block`) of all still-tied
suffixes, lexsorts them within their tie groups, and writes each adjacent
LCP where a tied pair first differs.  The Kasai carry is not used there,
since it is unsound for window-clipped encodings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encodings import Encoder, ExactEncoder, make_encoder
from .text import Text

# Texts up to this length sort materialized rows and scan for range minima
# in pure Python: numpy's per-call overhead outweighs the block sort and
# the sparse table on them, and the oracle sweeps build hundreds of
# thousands of such indexes.
_TINY_N = 16
# Code columns read per suffix in the block sort's first round; the depth
# doubles each round after that.
_START_DEPTH = 24
# Upper limit on the code cells one round reads (block rows x columns),
# which bounds the block's memory; rounds go narrower to stay under it.
_ROUND_CELLS = 1 << 17


class _MinTable:
    """Range-minimum queries: direct scans on the LCP arrays of tiny texts,
    a sparse table with O(1) queries above that.  The table is built with
    numpy and kept as Python lists, which index several times faster than
    numpy scalars."""

    def __init__(self, arr):
        self._list = list(arr)
        m = len(self._list)
        self._m = m
        if m <= _TINY_N + 1:
            self._levels = None
            return
        prev = np.asarray(self._list, dtype=np.int64)
        levels = [self._list]
        k = 1
        while (1 << k) <= m:
            half = 1 << (k - 1)
            prev = np.minimum(prev[:-half], prev[half:])
            levels.append(prev.tolist())
            k += 1
        self._levels = levels

    def query(self, lo: int, hi: int) -> int:
        """min(arr[lo..hi]), inclusive; requires lo <= hi."""
        if self._levels is None:
            return min(self._list[lo : hi + 1])
        k = (hi - lo + 1).bit_length() - 1
        lvl = self._levels[k]
        a, b = lvl[lo], lvl[hi - (1 << k) + 1]
        return a if a < b else b


def _sort_rows(encoder: Encoder, n: int) -> tuple[list[int], list[list[int]]]:
    """Materialize all suffix code rows and sort starts lexicographically.

    Bare rows sort identically to end-marker-terminated rows: the marker is
    below every code, and a shorter row compares accordingly.
    """
    rows: list[list[int]] = [[] for _ in range(n + 2)]
    for i in range(1, n + 1):
        rows[i] = encoder.code_row(i)
    order = sorted(range(1, n + 2), key=rows.__getitem__)
    return order, rows


def _lcp_from_rows(order: list[int], rows: list[list[int]]) -> list[int]:
    m = len(order)
    lcp = [0] * m
    for r in range(1, m):
        a, b = rows[order[r - 1]], rows[order[r]]
        limit = min(len(a), len(b))
        h = 0
        while h < limit and a[h] == b[h]:
            h += 1
        lcp[r] = h
    return lcp


def _order_exact_large(text: Text) -> np.ndarray:
    """Suffix order by prefix doubling (numpy), sentinel suffix first."""
    n = text.n
    s = text.padded_np[1:]
    order = np.argsort(s, kind="stable")
    rank = np.zeros(n, dtype=np.int64)
    sv = s[order]
    rank[order] = np.cumsum(np.concatenate(([0], (sv[1:] != sv[:-1]).astype(np.int64))))
    k = 1
    while k < n and rank[order[-1]] != n - 1:
        key2 = np.full(n, -1, dtype=np.int64)
        key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        r1, r2 = rank[order], key2[order]
        changed = np.concatenate(([0], ((r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])).astype(np.int64)))
        newr = np.zeros(n, dtype=np.int64)
        newr[order] = np.cumsum(changed)
        rank = newr
        k <<= 1
    return np.concatenate(([n + 1], order + 1))


def _block_sort(encoder: Encoder, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Suffix order and adjacent LCPs by a level-synchronous MSD block sort.

    Every round reads one block of code columns t0..t0+depth-1 for all
    suffixes still tied on columns 0..t0-1, lexsorts them keyed on (tie
    group, block), and sets lcp = t0 + the first differing column for each
    adjacent pair of a group that the block separates.  Pairs equal on the
    whole block stay tied.  A suffix's end-marker (-1) differs from any
    code, so two distinct suffixes never tie past the shorter one's end.
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
        block = encoder.code_block(starts, t0, depth)
        perm = np.lexsort((*block.T[::-1], group))
        block = block[perm]
        order[pos] = starts[perm]
        neq = block[1:] != block[:-1]
        same = group[1:] == group[:-1]
        split = same & neq.any(axis=1)
        lcp[pos[1:][split]] = t0 + neq[split].argmax(axis=1)
        tie = same & ~split
        keep = np.concatenate(([False], tie)) | np.concatenate((tie, [False]))
        first = keep & ~np.concatenate(([False], tie))
        group = np.maximum.accumulate(np.where(first, pos, 0))[keep]
        pos = pos[keep]
        t0 += depth
    return order, lcp


def _kasai_exact(sym, order: list[int], rank: list[int], n: int) -> list[int]:
    lcp = [0] * (n + 1)
    h = 0
    for i in range(1, n + 2):
        r = rank[i]
        if r == 0:
            h = 0
            continue
        j = order[r - 1]
        limit = min(n - i + 1, n - j + 1)
        while h < limit and sym[i + h] == sym[j + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


class ScerIndex:
    """Suffix ordering, LCP array and RMQ over a code-string collection."""

    def __init__(self, text: Text, relation: str = "exact", encoder: Encoder | None = None):
        self.text = text
        self.encoder = encoder if encoder is not None else make_encoder(text, relation)
        self.relation = self.encoder.relation
        n = text.n
        self.n = n
        if n <= _TINY_N:
            order, rows = _sort_rows(self.encoder, n)
            self.order = order
            self.rank = self._order_ranks()
            self.lcp = _lcp_from_rows(order, rows)
        elif isinstance(self.encoder, ExactEncoder):
            self.order = _order_exact_large(text).tolist()
            self.rank = self._order_ranks()
            self.lcp = _kasai_exact(text.padded, self.order, self.rank, n)
        else:
            order, lcp = _block_sort(self.encoder, n)
            self.order = order.tolist()
            self.rank = self._order_ranks()
            self.lcp = lcp.tolist()
        self._rmq: _MinTable | None = None
        self._lpf: np.ndarray | None = None
        self._tree: TreeView | None = None

    def _order_ranks(self) -> list[int]:
        rank = [0] * (self.n + 2)
        for r, start in enumerate(self.order):
            rank[start] = r
        return rank

    @property
    def rmq(self) -> _MinTable:
        if self._rmq is None:
            self._rmq = _MinTable(self.lcp)
        return self._rmq

    def lcp_suffixes(self, i: int, j: int) -> int:
        """Longest l with T[i..i+l) equivalent to T[j..j+l)."""
        n = self.n
        if not (1 <= i <= n + 1 and 1 <= j <= n + 1):
            raise ValueError(f"suffix positions ({i}, {j}) out of range for n={n}")
        if i == j:
            return n - i + 1
        r1, r2 = self.rank[i], self.rank[j]
        if r1 > r2:
            r1, r2 = r2, r1
        return self.rmq.query(r1 + 1, r2)

    def lpf(self) -> np.ndarray:
        """Longest previous factor under the relation; 1-based, index 0 unused.

        lpf[i] is the largest l such that T[i..i+l) is equivalent to
        T[j..j+l) for some j < i.  Computed from the suffix order via the
        nearest earlier-starting suffix on each side in rank space.
        """
        if self._lpf is not None:
            return self._lpf
        n = self.n
        order = self.order
        m = len(order)
        prev_c = [-1] * m
        next_c = [-1] * m
        stack: list[int] = []
        for r in range(m):
            v = order[r]
            while stack and order[stack[-1]] > v:
                stack.pop()
            prev_c[r] = stack[-1] if stack else -1
            stack.append(r)
        stack.clear()
        for r in range(m - 1, -1, -1):
            v = order[r]
            while stack and order[stack[-1]] > v:
                stack.pop()
            next_c[r] = stack[-1] if stack else -1
            stack.append(r)
        rmq = self.rmq
        lpf = np.zeros(n + 1, dtype=np.int64)
        for r in range(m):
            i = order[r]
            if i > n:
                continue
            best = 0
            p = prev_c[r]
            if p != -1:
                best = rmq.query(p + 1, r)
            q = next_c[r]
            if q != -1:
                v = rmq.query(r + 1, q)
                if v > best:
                    best = v
            lpf[i] = best
        self._lpf = lpf
        return lpf

    def tree(self) -> "TreeView":
        if self._tree is None:
            self._tree = TreeView(self)
        return self._tree

    def dump_tsv(self) -> str:
        lines = [
            f"{r}\t{self.order[r]}\t{self.lcp[r]}" for r in range(len(self.order))
        ]
        return "\n".join(lines) + "\n"


class TreeView:
    """Compacted trie of the code strings, materialized from order + LCP.

    Internal nodes carry their string depth as weight; leaves carry the
    full code-string length (including the end-marker) and are labeled by
    suffix start positions, left to right in index order.  Each node knows
    the contiguous range of leaf positions below it, which doubles as the
    pre/post-order interval for subtree membership tests.
    """

    def __init__(self, index: ScerIndex):
        n = index.n
        order = index.order
        lcp = index.lcp
        m = len(order)
        weight: list[int] = []
        parent: list[int] = []
        children: list[list[int]] = []
        leaf_start: list[int] = []  # 0 for internal nodes

        def new_node(w: int, par: int, start: int = 0) -> int:
            weight.append(w)
            parent.append(par)
            children.append([])
            leaf_start.append(start)
            if par >= 0:
                children[par].append(len(weight) - 1)
            return len(weight) - 1

        root = new_node(0, -1)
        leaf = new_node(n - order[0] + 2, root, order[0])
        stack = [root, leaf]
        for r in range(1, m):
            v = lcp[r]
            last = -1
            while weight[stack[-1]] > v:
                last = stack.pop()
            top = stack[-1]
            if weight[top] < v:
                children[top].pop()  # detach `last`, the most recent child
                mid = new_node(v, top)
                children[mid].append(last)
                parent[last] = mid
                stack.append(mid)
                top = mid
            leaf = new_node(n - order[r] + 2, top, order[r])
            stack.append(leaf)
        self.root = root
        self.weight = weight
        self.parent = parent
        self.children = children
        self.leaf_start = leaf_start
        self.order = order
        # leaf ranges: leaves appear in `order` sequence; assign leaf
        # positions in a pre-order walk, then fold upward (reversed
        # pre-order visits children before parents)
        lo = [m] * len(weight)
        hi = [-1] * len(weight)
        pos = 0
        visit: list[int] = []
        node_stack = [root]
        while node_stack:
            v = node_stack.pop()
            visit.append(v)
            if not children[v]:
                lo[v] = hi[v] = pos
                pos += 1
            else:
                node_stack.extend(reversed(children[v]))
        for v in reversed(visit):
            p = parent[v]
            if p >= 0:
                if lo[v] < lo[p]:
                    lo[p] = lo[v]
                if hi[v] > hi[p]:
                    hi[p] = hi[v]
        self.leaf_lo = lo
        self.leaf_hi = hi
        leaf_pos = [-1] * (n + 3)
        for p, start in enumerate(order):
            leaf_pos[start] = p
        self.leaf_pos = leaf_pos

    def lca_weight(self, i: int, j: int) -> int:
        """Weight of the lowest common ancestor of the leaves for starts i, j."""
        if i == j:
            raise ValueError("lca of a leaf with itself is the leaf")
        pi, pj = self.leaf_pos[i], self.leaf_pos[j]
        lo, hi = min(pi, pj), max(pi, pj)
        # climb from the leaf at pi until the range covers both
        v = self._leaf_node(pi)
        while not (self.leaf_lo[v] <= lo and hi <= self.leaf_hi[v]):
            v = self.parent[v]
        return self.weight[v]

    def _leaf_node(self, pos: int) -> int:
        # linear scan is fine: used by tests only
        for v in range(len(self.weight)):
            if not self.children[v] and self.leaf_lo[v] == pos:
                return v
        raise ValueError(f"no leaf at position {pos}")


@dataclass(frozen=True)
class LpfArrays:
    approx: np.ndarray
    exact: np.ndarray


def build_index(t: Text, relation: str = "exact") -> ScerIndex:
    return ScerIndex(t, relation)


def lpf_arrays(index: ScerIndex, exact_index: ScerIndex | None = None) -> LpfArrays:
    """Longest-previous-factor arrays: under the index relation and under equality."""
    if index.relation == "exact":
        exact_index = index
    elif exact_index is None:
        exact_index = ScerIndex(index.text, "exact")
    return LpfArrays(index.lpf(), exact_index.lpf())
