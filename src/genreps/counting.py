"""Square tables and square counting under an equivalence relation.

Pipeline, every stage after the suffix index one batched numpy pass:
the LCP intervals of the index (`index.TreeView`, bounds from
previous-/next-smaller searches on the LCP array) yield all right
non-extendible squares, suffix pairs at distance p whose LCP is exactly
p, by probing from every child range but a largest one of each interval,
small-to-large, in chunks of bounded size; one batch RMQ filters those
down to right non-shiftable squares; running the same machinery on the
reversed text gives the left non-shiftable squares; one lexsort per side
pairs them, per half-period p, into the disjoint maximal intervals of
square start positions.  The count is then an offline dominance count
over those intervals, squares counted at their leftmost occurrences: for
each interval, the positions k in it whose longest previous factor (under
the relation for the non-equivalent count, under equality for the
distinct-as-strings count) is below the square's length, answered by a
wavelet matrix over the LPF array.  The squares pass from stage to stage as (m, 2) int64 arrays of (i, p)
rows, and every stage reads the index's order, rank and LCP arrays as
they are.  A family of square start intervals, here and in
`genreps.psquares`, is a dict from half-period to a (k, 2) int64 array
of closed [lo, hi] rows sorted by lo.  A `SquaresTable` holds the
forward index it was built from, so a caller passes `table=` alone and
the counts (and the p-square reports) read the relation's LPF from it;
a table or exact index of another relation or another text is a
ValueError.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import starmap

import numpy as np

from .encodings import REVERSED_RELATION, PalEncoder, _WaveletMatrix
from .index import _ROUND_CELLS, ScerIndex, TreeView, _cells, _run_starts
from .text import Text


def _probe_ranges(index: ScerIndex) -> tuple[np.ndarray, ...]:
    """The child ranges the right non-extendible pass probes from.

    The children of an LCP interval (`TreeView`) are the ranges between
    its consecutive cuts.  Returns int32 arrays (lo, end, a, b, w) with one
    entry per child [a, b) of an interval [lo, end) of weight w, for every
    child except the first largest one.
    """
    tree = TreeView(index)
    heads, lo, end, w = tree.heads, tree.lo, tree.end, tree.weight
    if not len(w):
        return (w,) * 5
    # an interval with cuts c1 < ... < ck has children [lo, c1), [c1, c2), ..., [ck, end):
    # lo goes before its first cut and end after its last
    tails = np.append(heads[1:], len(tree.cut))
    a, b = np.insert(tree.cut, heads, lo), np.insert(tree.cut, tails, end)
    del tree
    # drop the first largest child of each interval
    size = b - a
    child_node = np.arange(len(heads), dtype=np.int32).repeat(tails - heads + 1)
    big = (size == np.maximum.reduceat(size, heads + np.arange(len(heads)))[child_node]).nonzero()[0]
    keep = np.ones(len(a), dtype=bool)
    keep[big[_run_starts(child_node[big])]] = False
    child_node = child_node[keep]
    return lo[child_node], end[child_node], a[keep], b[keep], w[child_node]


def _probe_chunks(ranges: tuple[np.ndarray, ...]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The cells of the child ranges of `_probe_ranges`, as (child, index
    position) arrays in chunks of at most `_ROUND_CELLS` cells each
    (`index._cells`); a child may straddle two chunks.  A map, not a
    generator, so no frame holds a chunk's offsets while the caller probes
    it."""
    a, b = ranges[2], ranges[3]
    return starmap(lambda child, offset: (child, a[child] + offset), _cells(b - a, _ROUND_CELLS))


def right_nonextendible(index: ScerIndex) -> np.ndarray:
    """All (i, p) with T[i..i+2p) a right non-extendible square, as the
    rows of an (m, 2) int64 array sorted by (i, p) without duplicates.

    These are exactly the pairs of suffixes (i, i+p) whose longest common
    equivalent prefix is p.  Two suffixes have LCP exactly w when they lie
    in one LCP interval of weight w but in different children of it
    (Abouelhoda, Kurtz and Ohlebusch 2004), so each suffix i of every
    child except a largest one probes i-w and i+w (`_probe_ranges`).  A
    non-largest child holds at most half of its interval, so each suffix
    is probed from at most ceil(log2(n+2)) children and the pass reads
    (n+1)·ceil(log2(n+2)) cells at most.  The probes run on whole chunks
    of at most `index._ROUND_CELLS` cells, which bounds the pass's memory.
    """
    n = index.n
    order, rank = index.order, index.rank
    ranges = lo, end, a, b, w = _probe_ranges(index)
    span, size = (end - lo).view(np.uint32), (b - a).view(np.uint32)
    found = [np.zeros(0, dtype=np.int64)]
    for child, pos in _probe_chunks(ranges):
        i = order[pos]
        del pos
        cw = w[child]
        back = i - cw
        for first, partner, ok in ((back, back, back > 0), (i, i + cw, i <= n - cw)):
            # the partner lies in the interval but not in the child: the LCP is exactly w
            q = rank.take(partner, mode="clip")
            ok &= (q - lo[child]).view(np.uint32) < span[child]
            ok &= (q - a[child]).view(np.uint32) >= size[child]
            found.append(first[ok].astype(np.int64) * (n + 1) + cw[ok])
    keys = np.sort(np.concatenate(found))
    keys = keys[_run_starts(keys)]
    return np.stack(np.divmod(keys, n + 1), axis=1)


def right_nonshiftable(index: ScerIndex) -> np.ndarray:
    """Right non-extendible squares that stay squares nowhere one step right.

    A right non-extendible square T[i..i+2p) is right shiftable exactly
    when the suffixes i+1 and i+p+1 share an equivalent prefix of length p
    (it is always at least p-1).  One batch LCP query tests every pair of
    the (i, p) rows of `right_nonextendible`; the kept rows come back in
    their order.
    """
    rne = right_nonextendible(index)
    i, p = rne[:, 0], rne[:, 1]
    return rne[index.lcp_batch(i + 1, i + p + 1) == p - 1]


def _flatten(family: dict[int, np.ndarray]) -> tuple[np.ndarray, ...]:
    """(half, lo, hi) int64 arrays of every row of a family, half-period by
    half-period in key order."""
    rows = np.concatenate([np.zeros((0, 2), dtype=np.int64), *family.values()])
    half = np.fromiter(family, dtype=np.int64, count=len(family))
    return half.repeat([len(v) for v in family.values()]), rows[:, 0], rows[:, 1]


def _family(half: np.ndarray, rows: np.ndarray) -> dict[int, np.ndarray]:
    """The family whose rows are `rows`, grouped by the sorted `half`."""
    heads = _run_starts(half).nonzero()[0]
    return dict(zip(half[heads].tolist(), np.split(rows, heads[1:])))


@dataclass
class SquaresTable:
    """Interval representation of square start positions per half-period,
    with the forward index of the text it was built from.

    intervals[p] is a (k, 2) int64 array of disjoint, non-adjacent closed
    intervals [l..r] sorted by l: T[i..i+2p) is a square iff some interval
    of intervals[p] contains i.
    """

    index: ScerIndex
    intervals: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.index.n

    @property
    def relation(self) -> str:
        return self.index.relation

    @property
    def size(self) -> int:
        return sum(len(v) for v in self.intervals.values())

    def contains(self, i: int, p: int) -> bool:
        ivs = self.intervals.get(p)
        if ivs is None:
            return False
        pos = int(ivs[:, 0].searchsorted(i, side="right")) - 1
        return pos >= 0 and i <= int(ivs[pos, 1])

    def positions(self, p: int) -> list[int]:
        ivs = self.intervals.get(p)
        if ivs is None:
            return []
        return [i for lo, hi in ivs.tolist() for i in range(lo, hi + 1)]


def reversed_index(index: ScerIndex) -> ScerIndex:
    """Index of the reversed text under the relation that mirrors matches.

    Under "pal" the reversed encoder takes the text's palindrome radii,
    mirrored, in place of a second radii computation.
    """
    rev = index.text.reversed()
    if index.relation == "pal":
        return ScerIndex(rev, encoder=PalEncoder(rev, index.encoder.radii.reversed()))
    return ScerIndex(rev, REVERSED_RELATION[index.relation])


def _nonshiftable_starts(index: ScerIndex) -> tuple[np.ndarray, np.ndarray]:
    """(start, p) arrays of the left and of the right non-shiftable squares.

    The left side runs the right-side machinery on the reversed text; a
    square at i with half-period p maps to start n-i-2p+2 there.
    """
    right = right_nonshiftable(index)
    left = right_nonshiftable(reversed_index(index))
    left[:, 0] = index.n - left[:, 0] - 2 * left[:, 1] + 2
    return left, right


def nonshiftable_sets(index: ScerIndex) -> dict[int, tuple[list[int], list[int]]]:
    """Per half-period p: (left non-shiftable starts, right non-shiftable starts)."""
    left, right = _nonshiftable_starts(index)
    by_p: dict[int, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
    for i, p in right.tolist():
        by_p[p][1].append(i)
    for i, p in left.tolist():
        by_p[p][0].append(i)
    return dict(by_p)


def squares_table(index: ScerIndex) -> SquaresTable:
    """Pair sorted left/right non-shiftable starts into maximal intervals.

    Per half-period p, the k-th smallest left start pairs with the k-th
    smallest right start; both sides are sorted by (p, start) with one
    lexsort each.
    """
    left, right = _nonshiftable_starts(index)
    lo, lp = left[np.lexsort((left[:, 0], left[:, 1]))].T
    hi, rp = right[np.lexsort((right[:, 0], right[:, 1]))].T
    _check_pairing(lo, lp, hi, rp)
    return SquaresTable(index, _family(rp, np.stack((lo, hi), axis=1)))


def _check_pairing(lo: np.ndarray, lp: np.ndarray, hi: np.ndarray, rp: np.ndarray) -> None:
    """Raise AssertionError at the smallest p whose left and right starts
    differ in number or pair into a crossed interval; lp and rp are sorted."""
    m = min(len(lp), len(rp))
    differ = (lp[:m] != rp[:m]).nonzero()[0]
    k = int(differ[0]) if len(differ) else m  # the first position where the sides differ
    p = None  # the smallest unbalanced p
    if k < max(len(lp), len(rp)):
        p = min(int(v[k]) for v in (lp, rp) if k < len(v))
    # below p both sides align, so a crossing there is a real one
    upto = len(lp) if p is None else int(lp.searchsorted(p))
    crossed = (lo[:upto] > hi[:upto]).nonzero()[0]
    if len(crossed):
        c = crossed[0]
        raise AssertionError(f"crossed interval [{int(lo[c])}..{int(hi[c])}] for p={int(lp[c])}")
    if p is not None:
        nl, nr = (int(np.count_nonzero(v == p)) for v in (lp, rp))
        raise AssertionError(f"unbalanced interval endpoints for p={p}: {nl} left vs {nr} right")


def sweep_count(table: SquaresTable, lpf: np.ndarray) -> int:
    """Sum over intervals [lo..hi] of half-period p of the number of
    positions k in [lo..hi] with lpf[k] < 2p: the squares of length 2p
    whose leftmost occurrence starts at k.

    One offline dominance count: a wavelet matrix over lpf[1..n] answers
    every interval's count_less query in one batch.
    """
    half, lo, hi = _flatten(table.intervals)
    values = np.asarray(lpf[1 : table.n + 1], dtype=np.int64)
    sigma = int(values.max(initial=0)) + 1
    wm = _WaveletMatrix(values, sigma)
    return int(wm.count_less(np.minimum(2 * half, sigma), lo - 1, hi).sum())


def _check_index(t: Text, relation: str, index: ScerIndex, what: str) -> None:
    """ValueError unless index is the index of t under the relation."""
    if index.relation != relation or index.text != t:
        whose = "this" if index.text == t else "another"
        raise ValueError(
            f"need the {relation} {what} of this text, got the {index.relation} {what} of {whose} text"
        )


def _table_for(t: Text, relation: str, table: SquaresTable | None) -> SquaresTable:
    """The relation's square table of t: `table` once checked, or a new one."""
    if table is None:
        return squares_table(ScerIndex(t, relation))
    _check_index(t, relation, table.index, "square table")
    return table


def _exact_lpf(t: Text, table: SquaresTable, exact_index: ScerIndex | None) -> np.ndarray:
    """The LPF of t under equality: from `exact_index` once checked, from
    an exact table's own index, or from a new index."""
    if exact_index is not None:
        _check_index(t, "exact", exact_index, "index")
    elif table.relation == "exact":
        exact_index = table.index
    else:
        exact_index = ScerIndex(t, "exact")
    return exact_index.lpf()


def count_nonequivalent(t: Text, relation: str, *, table: SquaresTable | None = None) -> int:
    """Number of square substrings, counted up to the relation's equivalence.

    `table` is the relation's square table of t, built when not given.
    """
    table = _table_for(t, relation, table)
    return sweep_count(table, table.index.lpf())


def count_distinct(
    t: Text,
    relation: str,
    *,
    table: SquaresTable | None = None,
    exact_index: ScerIndex | None = None,
) -> int:
    """Number of square substrings under the relation, distinct as strings.

    `table` is the relation's square table of t and `exact_index` the
    exact index of t; each is built when not given.
    """
    table = _table_for(t, relation, table)
    return sweep_count(table, _exact_lpf(t, table, exact_index))
