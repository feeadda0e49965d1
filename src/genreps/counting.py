"""Square tables and square counting under an equivalence relation.

Pipeline: one stack pass over the suffix index's LCP array yields all
right non-extendible squares (suffix pairs at distance p whose LCP is
exactly p, found small-to-large over the LCP intervals, with no tree
built); an LCP test filters those down to right non-shiftable squares;
running the same machinery on the reversed text gives the left
non-shiftable squares; sorted pairing of the two sets produces, per
half-period p, the disjoint maximal intervals of square start positions.
A single left-to-right sweep over interval endpoints with a cursor
counter then counts squares at their leftmost occurrences, using the
longest-previous-factor array under the relation (non-equivalent count)
or under equality (distinct-as-strings count).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .encodings import REVERSED_RELATION
from .index import ScerIndex
from .text import Text


def right_nonextendible(index: ScerIndex) -> list[tuple[int, int]]:
    """All (i, p) with T[i..i+2p) a right non-extendible square.

    These are exactly the pairs of suffixes (i, i+p) whose longest common
    equivalent prefix is p.  One stack pass over the LCP array visits the
    LCP intervals bottom-up (Abouelhoda, Kurtz and Ohlebusch 2004): an
    interval of weight w covers the suffixes at index positions
    [lo..hi] and is cut into child ranges at the positions r with
    lcp[r] == w.  Two suffixes have LCP exactly w when they lie in the
    interval but in different children, so each suffix i of every child
    except a largest one probes i-w and i+w.  A non-largest child holds
    at most half of its interval, so each suffix is read at most
    ceil(log2(n+2)) times and the pass reads (n+1)·ceil(log2(n+2)) cells
    of the order at most.
    """
    n = index.n
    order, rank, lcp = index.order, index.rank, index.lcp
    out: set[tuple[int, int]] = set()
    # open intervals, innermost last: (weight, start positions of the children)
    stack: list[tuple[int, list[int]]] = [(0, [0])]
    for r in range(1, n + 2):
        h = lcp[r] if r <= n else 0
        lo = r - 1
        while h < stack[-1][0]:
            # the interval covers positions lo..r-1, its k-th child
            # cuts[k]..cuts[k+1]-1
            w, cuts = stack.pop()
            lo = cuts[0]
            cuts.append(r)
            sizes = [b - a for a, b in zip(cuts, cuts[1:])]
            heavy = sizes.index(max(sizes))
            for k in range(len(sizes)):
                if k == heavy:
                    continue
                a, b = cuts[k], cuts[k + 1]
                for i in order[a:b]:
                    if i > w:
                        q = rank[i - w]
                        if lo <= q < a or b <= q < r:
                            out.add((i - w, w))
                    if i + w <= n:
                        q = rank[i + w]
                        if lo <= q < a or b <= q < r:
                            out.add((i, w))
        if h > stack[-1][0]:
            stack.append((h, [lo, r]))
        else:
            stack[-1][1].append(r)
    return sorted(out)


def right_nonshiftable(index: ScerIndex, rne: list[tuple[int, int]] | None = None) -> list[tuple[int, int]]:
    """Right non-extendible squares that stay squares nowhere one step right.

    A right non-extendible square T[i..i+2p) is right shiftable exactly
    when the suffixes i+1 and i+p+1 share an equivalent prefix of length p
    (it is always at least p-1).
    """
    if rne is None:
        rne = right_nonextendible(index)
    return [
        (i, p) for i, p in rne if index.lcp_suffixes(i + 1, i + p + 1) == p - 1
    ]


@dataclass
class SquaresTable:
    """Interval representation of square start positions per half-period.

    intervals[p] is a sorted list of disjoint, non-adjacent closed
    intervals [l..r]: T[i..i+2p) is a square iff some interval of
    intervals[p] contains i.
    """

    n: int
    relation: str
    intervals: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return sum(len(v) for v in self.intervals.values())

    def contains(self, i: int, p: int) -> bool:
        ivs = self.intervals.get(p)
        if not ivs:
            return False
        pos = bisect_right(ivs, (i, self.n + 1)) - 1
        return pos >= 0 and ivs[pos][0] <= i <= ivs[pos][1]

    def positions(self, p: int) -> list[int]:
        return [i for lo, hi in self.intervals.get(p, []) for i in range(lo, hi + 1)]


def reversed_index(index: ScerIndex) -> ScerIndex:
    """Index of the reversed text under the relation that mirrors matches."""
    return ScerIndex(index.text.reversed(), REVERSED_RELATION[index.relation])


def nonshiftable_sets(
    index: ScerIndex, rev_index: ScerIndex | None = None
) -> dict[int, tuple[list[int], list[int]]]:
    """Per half-period p: (left non-shiftable starts, right non-shiftable starts).

    The left side runs the right-side machinery on the reversed text; a
    square at i with half-period p maps to start n-i-2p+2 there.
    """
    n = index.n
    if rev_index is None:
        rev_index = reversed_index(index)
    by_p: dict[int, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
    for i, p in right_nonshiftable(index):
        by_p[p][1].append(i)
    for istar, p in right_nonshiftable(rev_index):
        by_p[p][0].append(n - istar - 2 * p + 2)
    return dict(by_p)


def squares_table(
    index: ScerIndex, rev_index: ScerIndex | None = None
) -> SquaresTable:
    """Pair sorted left/right non-shiftable starts into maximal intervals."""
    sets = nonshiftable_sets(index, rev_index)
    table = SquaresTable(index.n, index.relation)
    for p, (lefts, rights) in sorted(sets.items()):
        lefts.sort()
        rights.sort()
        if len(lefts) != len(rights):
            raise AssertionError(
                f"unbalanced interval endpoints for p={p}: "
                f"{len(lefts)} left vs {len(rights)} right"
            )
        ivs = []
        for lo, hi in zip(lefts, rights):
            if lo > hi:
                raise AssertionError(f"crossed interval [{lo}..{hi}] for p={p}")
            ivs.append((lo, hi))
        table.intervals[p] = ivs
    return table


class CursorCounter:
    """Dynamic set over [1..n] with a cursor; reports |Y ∩ (cursor..n]|.

    Backed by an indicator bit array and a running count, so every
    operation is O(1).
    """

    def __init__(self, n: int):
        self.n = n
        self._bits = bytearray(n + 2)
        self.cursor = 0
        self.count = 0

    def insert(self, x: int) -> int:
        if not (1 <= x <= self.n):
            raise ValueError(f"element {x} out of [1..{self.n}]")
        if self._bits[x]:
            raise ValueError(f"element {x} already present")
        self._bits[x] = 1
        if x > self.cursor:
            self.count += 1
        return self.count

    def delete(self, x: int) -> int:
        if not (1 <= x <= self.n) or not self._bits[x]:
            raise ValueError(f"element {x} not present")
        self._bits[x] = 0
        if x > self.cursor:
            self.count -= 1
        return self.count

    def inc(self) -> int:
        if self.cursor >= self.n:
            raise ValueError("cursor already at n")
        self.cursor += 1
        self.count -= self._bits[self.cursor]
        return self.count

    def dec(self) -> int:
        if self.cursor <= 0:
            raise ValueError("cursor already at 0")
        self.count += self._bits[self.cursor]
        self.cursor -= 1
        return self.count


def sweep_count(table: SquaresTable, lpf: np.ndarray, n: int) -> int:
    """Sum over positions of active square lengths exceeding lpf[k].

    Walks k = 1..n keeping the set of active doubled half-periods; at each
    k the cursor moves to lpf[k] and the structure reports how many active
    squares of length 2p satisfy lpf[k] < 2p, i.e. have their leftmost
    occurrence at k.
    """
    starts: dict[int, list[int]] = defaultdict(list)
    ends: dict[int, list[int]] = defaultdict(list)
    for p, ivs in table.intervals.items():
        for lo, hi in ivs:
            starts[lo].append(2 * p)
            ends[hi].append(2 * p)
    counter = CursorCounter(n)
    total = 0
    for k in range(1, n + 1):
        for x in starts.get(k, ()):
            counter.insert(x)
        target = int(lpf[k])
        while counter.cursor < target:
            counter.inc()
        while counter.cursor > target:
            counter.dec()
        total += counter.count
        for x in ends.get(k, ()):
            counter.delete(x)
    return total


def count_nonequivalent(
    t: Text,
    relation: str,
    *,
    index: ScerIndex | None = None,
    table: SquaresTable | None = None,
) -> int:
    """Number of square substrings, counted up to the relation's equivalence."""
    if t.n < 2:
        return 0
    if index is None:
        index = ScerIndex(t, relation)
    if table is None:
        table = squares_table(index)
    return sweep_count(table, index.lpf(), t.n)


def count_distinct(
    t: Text,
    relation: str,
    *,
    index: ScerIndex | None = None,
    table: SquaresTable | None = None,
    exact_index: ScerIndex | None = None,
) -> int:
    """Number of square substrings under the relation, distinct as strings."""
    if t.n < 2:
        return 0
    if index is None:
        index = ScerIndex(t, relation)
    if table is None:
        table = squares_table(index)
    if exact_index is None:
        exact_index = index if relation == "exact" else ScerIndex(t, "exact")
    return sweep_count(table, exact_index.lpf(), t.n)
