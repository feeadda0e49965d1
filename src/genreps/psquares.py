"""Reporting parameterized squares via recency profiles.

Every p-square start of half-length l must lie both in a uniform
sigma-run of the forward profile and (after mirroring) in one of the
reversed backward profile; intersecting those start intervals gives
candidate intervals that are homogeneous: either every position in a
candidate interval starts a p-square of that length, or none does, and one
longest-common-prefix query on the left endpoint decides which.
Leftmost-occurrence reporting then splits the verified intervals
recursively at minima of a longest-previous-factor array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encodings import profiles
from .index import ScerIndex
from .repeats import KRun, UniformKRun, uniform_start_intervals
from .text import Text, text_from_symbols


@dataclass(frozen=True)
class PSquareReport:
    """Verified start intervals per half-length, plus reported occurrences.

    Each occurrence (start, length) is the leftmost occurrence of its
    class: of its parameterized-equivalence class for the non-equivalent
    report, of its exact string for the distinct report.
    """

    periods: dict[int, list[tuple[int, int]]]
    occurrences: list[tuple[int, int]]

    @property
    def count(self) -> int:
        return len(self.occurrences)


def _intersect_pieces(
    a: list[tuple[int, int]], b: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Pieces {I ∩ J} for disjoint sorted families a, b, via an endpoint
    sweep with a coverage counter; adjacent pieces stay separate."""
    events: dict[int, list[int]] = {}
    for lo, hi in a:
        events.setdefault(lo, [0, 0])[0] += 1
        events.setdefault(hi + 1, [0, 0])[1] += 1
    for lo, hi in b:
        events.setdefault(lo, [0, 0])[0] += 1
        events.setdefault(hi + 1, [0, 0])[1] += 1
    cover = 0
    open_at = None
    pieces: list[tuple[int, int]] = []
    for pos in sorted(events):
        opens, closes = events[pos]
        if open_at is not None:
            pieces.append((open_at, pos - 1))
            open_at = None
        cover += opens - closes
        if cover == 2:
            open_at = pos
    return pieces


def candidate_intervals(t: Text) -> dict[int, list[tuple[int, int]]]:
    """Per half-length l, the candidate start intervals R_l.

    Uniform sigma-run start intervals of the forward profile are
    intersected with those of the reversed backward profile mapped back
    through i -> n - i - 2l + 2.
    """
    n = t.n
    if n < 2:
        return {}
    prof = profiles(t)
    fwd = prof.forward
    back_rev = np.concatenate(([-1], prof.backward[1:][::-1]))
    sigma = t.sigma
    out: dict[int, list[tuple[int, int]]] = {}
    for ell in range(1, n // 2 + 1):
        f_ivs = uniform_start_intervals(fwd, ell, sigma)
        if not f_ivs:
            continue
        b_raw = uniform_start_intervals(back_rev, ell, sigma)
        if not b_raw:
            continue
        mapped = [(n - bw - 2 * ell + 2, n - aw - 2 * ell + 2) for aw, bw in b_raw]
        mapped.reverse()
        pieces = _intersect_pieces(f_ivs, mapped)
        if pieces:
            out[ell] = pieces
    return out


def verify_intervals(
    t: Text,
    candidates: dict[int, list[tuple[int, int]]] | None = None,
    index: ScerIndex | None = None,
) -> dict[int, list[tuple[int, int]]]:
    """Drop or keep each candidate interval whole, testing only its left
    endpoint against the parameterized index: one batch LCP query answers
    every piece."""
    if candidates is None:
        candidates = candidate_intervals(t)
    if index is None:
        index = ScerIndex(t, "param")
    pieces = [piece for ps in candidates.values() for piece in ps]
    ell = np.repeat(np.fromiter(candidates, dtype=np.int64), [len(ps) for ps in candidates.values()])
    lo = np.fromiter((piece[0] for piece in pieces), dtype=np.int64, count=len(pieces))
    out: dict[int, list[tuple[int, int]]] = {}
    for k in (index.lcp_batch(lo, lo + ell) >= ell).nonzero()[0].tolist():
        out.setdefault(int(ell[k]), []).append(pieces[k])
    return out


class _ArgMinTable:
    """Sparse table returning a position of the minimum on a range."""

    def __init__(self, values: np.ndarray):
        vals = np.asarray(values, dtype=np.int64)
        self._vals = vals
        m = len(vals)
        levels = [np.arange(m, dtype=np.int64)]
        k = 1
        while (1 << k) <= m:
            prev = levels[-1]
            half = 1 << (k - 1)
            left, right = prev[:-half], prev[half:]
            levels.append(np.where(vals[left] <= vals[right], left, right))
            k += 1
        self._levels = levels

    def argmin(self, lo: int, hi: int) -> int:
        k = (hi - lo + 1).bit_length() - 1
        lvl = self._levels[k]
        a, b = int(lvl[lo]), int(lvl[hi - (1 << k) + 1])
        return a if self._vals[a] <= self._vals[b] else b


def _report_from_intervals(
    verified: dict[int, list[tuple[int, int]]], lpf: np.ndarray
) -> list[tuple[int, int]]:
    """Positions whose previous-factor length is shorter than the square:
    recursive range-minimum splitting, one report per fresh occurrence."""
    table = _ArgMinTable(lpf)
    out: list[tuple[int, int]] = []
    for ell, pieces in verified.items():
        length = 2 * ell
        for lo, hi in pieces:
            stack = [(lo, hi)]
            while stack:
                a, b = stack.pop()
                if a > b:
                    continue
                i = table.argmin(a, b)
                if lpf[i] >= length:
                    continue
                out.append((i, length))
                stack.append((a, i - 1))
                stack.append((i + 1, b))
    out.sort(key=lambda oc: (oc[1], oc[0]))
    return out


def report_nonequivalent(t: Text, index: ScerIndex | None = None) -> PSquareReport:
    """All non-equivalent p-squares, each at its leftmost occurrence."""
    if index is None and t.n >= 2:
        index = ScerIndex(t, "param")
    if t.n < 2:
        return PSquareReport({}, [])
    verified = verify_intervals(t, index=index)
    occs = _report_from_intervals(verified, index.lpf())
    return PSquareReport(verified, occs)


def report_distinct(
    t: Text, index: ScerIndex | None = None, exact_index: ScerIndex | None = None
) -> PSquareReport:
    """All p-squares distinct as strings, each at its leftmost occurrence."""
    if t.n < 2:
        return PSquareReport({}, [])
    if index is None:
        index = ScerIndex(t, "param")
    if exact_index is None:
        exact_index = ScerIndex(t, "exact")
    verified = verify_intervals(t, index=index)
    occs = _report_from_intervals(verified, exact_index.lpf())
    return PSquareReport(verified, occs)


def partition_run(profile, run: KRun, lcp=None) -> list[UniformKRun]:
    """Split one run of the profile into its maximal uniform runs by
    kangaroo jumps: two LCP probes locate the next mismatch entering or
    leaving the window, bounding how far the current mismatch set survives.
    """
    seq = profile.padded if isinstance(profile, Text) else list(profile)
    if not (seq and seq[0] == -1):
        seq = [-1, *seq]
    n = len(seq) - 1
    if lcp is None:
        idx = ScerIndex(text_from_symbols(seq[1:]), "exact")
        lcp = idx.lcp_suffixes
    a, b, ell = run.a, run.b, run.ell
    out: list[UniformKRun] = []
    while b - a >= 2 * ell:
        lim = b - 2 * ell - a
        d1 = 1 + min(lcp(a, a + ell), lim)
        d2 = 1 + min(lcp(a + ell, a + 2 * ell), lim)
        d = min(d1, d2)
        mism = tuple(q for q in range(a, a + ell) if seq[q] != seq[q + ell])
        out.append(UniformKRun(a, a + d - 1 + 2 * ell, ell, mism, run.k))
        a += d
    return out


