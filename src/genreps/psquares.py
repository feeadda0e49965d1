"""Reporting parameterized squares from the square table.

The reports read the p-square starts from the param square table of
`counting.squares_table`, the count pipeline's maximal intervals per
half-length: O(n log n) rows in all.  Building it takes the param index
of the text and of its reverse, whose suffix sort reads Θ(sum of LCPs)
code cells, so periodic texts cost more.
Leftmost-occurrence reporting splits those intervals at minima of a
longest-previous-factor array, read from one sparse table over the
packed keys lpf[i]·m + i: a range's minimum key names both its smallest
LPF and the leftmost position holding it.  The split runs in rounds of
one batch query each over every live range, and a range at least halves
from one round to the next: floor(log2 m) + 1 batch queries over
#intervals + 4·#reports ranges at most, and no loop per report.  The
output is {(i, 2l) : i starts a p-square of half-length l, lpf[i] < 2l},
so any family of intervals with the same starts gives the same report.  The
non-equivalent report reads the param LPF from the table's own index,
the distinct one the exact LPF; `table=` and `exact_index=` reuse ones
already built, and must be those of the text.

The paper's O(n sigma log sigma) construction from the recency profiles
stays as the reference, checked against the table in the tests: every
p-square start of half-length l lies both in a uniform sigma-run of the
forward profile and (after mirroring) in one of the reversed backward
profile; intersecting those start intervals gives candidate intervals
that are homogeneous (either every position in one starts a p-square of
that length, or none does), and one longest-common-prefix query on the
left endpoint decides which (`candidate_intervals`, `verify_intervals`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import SquaresTable, _exact_lpf, _family, _flatten, _table_for
from .encodings import profiles
from .index import ScerIndex, _MinTable
from .repeats import uniform_start_intervals
from .text import Text, text_from_symbols


@dataclass(frozen=True)
class PSquareReport:
    """P-square start intervals per half-length, plus reported occurrences.

    periods[l] holds the maximal intervals of p-square starts of
    half-length l, the param square table's rows (disjoint, non-adjacent,
    sorted by lo).  Each occurrence (start, length) is the leftmost
    occurrence of its class: of its parameterized-equivalence class for
    the non-equivalent report, of its exact string for the distinct
    report.
    """

    periods: dict[int, np.ndarray]
    occurrences: list[tuple[int, int]]

    @property
    def count(self) -> int:
        return len(self.occurrences)


def _intersect_pieces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pieces {I ∩ J} for families a, b of disjoint closed intervals, each
    a (k, 2) array sorted by lo; adjacent pieces stay separate.

    The rows of b that meet a row I of a form one run: those with
    hi >= I.lo and lo <= I.hi.  Pairing I with each row of its run, in
    order, gives the pieces sorted by lo.
    """
    first = b[:, 1].searchsorted(a[:, 0])
    count = b[:, 0].searchsorted(a[:, 1], side="right") - first
    i = np.arange(len(a)).repeat(count)
    # piece k of row I's run pairs with row first[I] + k of b
    j = np.arange(len(i)) + (first - count.cumsum() + count).repeat(count)
    return np.array((np.maximum(a[i, 0], b[j, 0]), np.minimum(a[i, 1], b[j, 1]))).T


def candidate_intervals(t: Text) -> dict[int, np.ndarray]:
    """Per half-length l, the candidate start intervals R_l.

    Uniform sigma-run start intervals of the forward profile are
    intersected with those of the reversed backward profile mapped back
    through i -> n - i - 2l + 2.
    """
    n = t.n
    if n < 2:
        return {}
    prof = profiles(t)
    fwd = text_from_symbols(prof.forward[1:])
    back_rev = text_from_symbols(prof.backward[:0:-1])
    sigma = t.sigma
    out: dict[int, np.ndarray] = {}
    for ell in range(1, n // 2 + 1):
        f_ivs = uniform_start_intervals(fwd, ell, sigma)
        if not len(f_ivs):
            continue
        b_raw = uniform_start_intervals(back_rev, ell, sigma)
        if not len(b_raw):
            continue
        pieces = _intersect_pieces(f_ivs, (n - 2 * ell + 2) - b_raw[::-1, ::-1])
        if len(pieces):
            out[ell] = pieces
    return out


def verify_intervals(
    t: Text,
    candidates: dict[int, np.ndarray] | None = None,
    index: ScerIndex | None = None,
) -> dict[int, np.ndarray]:
    """Drop or keep each candidate interval whole, testing only its left
    endpoint against the parameterized index: one batch LCP query answers
    every piece."""
    if candidates is None:
        candidates = candidate_intervals(t)
    if index is None:
        index = ScerIndex(t, "param")
    ell, lo, hi = _flatten(candidates)
    keep = index.lcp_batch(lo, lo + ell) >= ell
    return _family(ell[keep], np.stack((lo[keep], hi[keep]), axis=1))


def _report_from_intervals(
    family: dict[int, np.ndarray], lpf: np.ndarray
) -> list[tuple[int, int]]:
    """Positions whose previous-factor length is shorter than the square,
    found in rounds of batch range-minimum queries.

    One sparse table over the packed keys lpf[i]·m + i (m = len(lpf))
    gives a range's smallest LPF and its leftmost position at once, and
    lpf[i] < 2l exactly when the key is below the bound 2l·m.  Each round
    answers every live range with one batch query: a range whose minimum
    key is not below its bound is dropped, and any other reports that
    position i and passes on the halves of its parts left and right of i.
    The first round, over the intervals themselves, drops every interval
    with no report.  Ranges at least halve per round, so a call makes at
    most floor(log2 m) + 1 batch queries over at most #intervals +
    4·#reports ranges.  One sort of the packed values 2l·m + i orders the
    reports by (2l, i).
    """
    ell, lo, hi = _flatten(family)
    m = len(lpf)
    table = _MinTable(np.asarray(lpf, dtype=np.int64) * m + np.arange(m))
    bound = ell * (2 * m)
    found = [bound[:0]]  # one array to concatenate, also with no intervals
    while len(lo):
        key = table.query_batch(lo, hi)
        hit = key < bound
        i = key[hit] % m
        lo, hi, bound = lo[hit], hi[hit], bound[hit]
        found.append(bound + i)
        # the parts left and right of i, then their halves; a part is
        # empty only as [x+1..x], and both its halves are then empty too
        lo, hi = np.concatenate((lo, i + 1)), np.concatenate((i - 1, hi))
        mid = (lo + hi) >> 1
        lo, hi = np.concatenate((lo, mid + 1)), np.concatenate((mid, hi))
        keep = lo <= hi
        lo, hi, bound = lo[keep], hi[keep], np.tile(bound, 4)[keep]
    out = np.sort(np.concatenate(found))
    return list(zip((out % m).tolist(), (out // m).tolist()))


def report_nonequivalent(t: Text, *, table: SquaresTable | None = None) -> PSquareReport:
    """All non-equivalent p-squares, each at its leftmost occurrence.

    `table` is the param square table of t, built when not given; its
    index gives the param LPF.
    """
    table = _table_for(t, "param", table)
    return PSquareReport(table.intervals, _report_from_intervals(table.intervals, table.index.lpf()))


def report_distinct(
    t: Text, *, table: SquaresTable | None = None, exact_index: ScerIndex | None = None
) -> PSquareReport:
    """All p-squares distinct as strings, each at its leftmost occurrence.

    `table` is the param square table of t and `exact_index` the exact
    index of t; each is built when not given.
    """
    table = _table_for(t, "param", table)
    lpf = _exact_lpf(t, table, exact_index)
    return PSquareReport(table.intervals, _report_from_intervals(table.intervals, lpf))
