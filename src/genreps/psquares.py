"""Reporting parameterized squares via recency profiles.

Every p-square start of half-length l must lie both in a uniform
sigma-run of the forward profile and (after mirroring) in one of the
reversed backward profile; intersecting those start intervals gives
candidate intervals that are homogeneous: either every position in a
candidate interval starts a p-square of that length, or none does, and one
longest-common-prefix query on the left endpoint decides which.
Leftmost-occurrence reporting then splits the verified intervals
recursively at minima of a longest-previous-factor array, read from one
sparse table over the packed keys lpf[i]·m + i: a range's minimum key
names both its smallest LPF and the leftmost position holding it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encodings import profiles
from .index import ScerIndex, _MinTable
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


def _report_from_intervals(
    verified: dict[int, list[tuple[int, int]]], lpf: np.ndarray
) -> list[tuple[int, int]]:
    """Positions whose previous-factor length is shorter than the square:
    recursive range-minimum splitting, one report per fresh occurrence.

    One sparse table over the packed keys lpf[i]·m + i (m = len(lpf))
    gives a range's smallest LPF and its leftmost position at once, and
    lpf[i] < 2l exactly when the key is below 2l·m.  One batch query drops
    every piece whose minimum is not below that; only the rest split.
    """
    pieces = [piece for ps in verified.values() for piece in ps]
    if not pieces:
        return []
    m = len(lpf)
    table = _MinTable(np.asarray(lpf, dtype=np.int64) * m + np.arange(m))
    limit = np.repeat(np.fromiter(verified, dtype=np.int64), [len(ps) for ps in verified.values()])
    limit *= 2 * m
    lo, hi = np.array(pieces, dtype=np.int64).T
    out: list[tuple[int, int]] = []
    for k in (table.query_batch(lo, hi) < limit).nonzero()[0].tolist():
        bound = limit.item(k)
        length = bound // m
        stack = [pieces[k]]
        while stack:
            a, b = stack.pop()
            if a > b:
                continue
            key = table.query(a, b)
            if key >= bound:
                continue
            i = key % m
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


