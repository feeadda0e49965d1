"""Enumeration of k-mismatch repeats: uniform k-runs, k-runs, generalised
runs and maximal gapped repeats (MGRs).

Every enumerator is one numpy scan per period l over the mismatch vector
d[q] = (T[q] != T[q+l]), after Kolpakov and Kucherov's per-period scan:

* the running count of d gives the mismatch count of every window [i..i+l)
  of a start i in [1..n-2l+1]; the k-runs are the maximal stretches of
  starts whose count is <= k;
* the mismatch set changes from start i to start i+1 exactly when position
  i leaves or position i+l enters (d[i] | d[i+l]); these cuts split the
  starts into segments, and the uniform k-runs are the segments whose
  count is <= k;
* the generalised runs of period l are the maximal equality blocks
  (runs of T[q] = T[q+l]) of length u >= l, and its MGRs those with u < l.

An enumerator filters these per-period arrays and builds record objects
only for what it returns.  Records store fragments as half-open [a..b);
reported positions are 1-based.  Functions accept a Text or any integer
sequence (a 1-based one padded with -1 at index 0 is used as is).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .text import Text


@dataclass(frozen=True)
class UniformKRun:
    a: int
    b: int  # exclusive
    ell: int
    mismatches: tuple[int, ...]
    k: int

    @property
    def start_interval(self) -> tuple[int, int]:
        """Window starts [a .. b-2l] whose squares share the mismatch set."""
        return (self.a, self.b - 2 * self.ell)


@dataclass(frozen=True)
class KRun:
    a: int
    b: int  # exclusive
    ell: int
    k: int

    @property
    def start_interval(self) -> tuple[int, int]:
        return (self.a, self.b - 2 * self.ell)


@dataclass(frozen=True)
class GeneralisedRun:
    x: int
    y: int  # exclusive
    p: int

    @property
    def period(self) -> int:
        return self.p


@dataclass(frozen=True)
class Mgr:
    x: int
    y: int  # exclusive
    ell: int
    arm_len: int

    @property
    def period(self) -> int:
        return self.ell

    @property
    def gap_ratio(self) -> Fraction:
        return Fraction(self.ell, self.arm_len)

    @property
    def weight(self) -> Fraction:
        return Fraction(self.arm_len, self.ell)


def _symbols(t) -> np.ndarray:
    """The 1-based int64 symbols of a Text or an integer sequence.

    A sequence whose index 0 already holds the -1 pad is used as is.
    """
    if isinstance(t, Text):
        return t.padded_np
    s = np.asarray(t, dtype=np.int64)
    if len(s) and s[0] == -1:
        return s
    return np.concatenate(([-1], s))


def _period_range(n: int, periods) -> Iterable[int]:
    if periods is None:
        return range(1, n // 2 + 1)
    if isinstance(periods, int):
        return (periods,) if 1 <= periods <= n // 2 else ()
    return [p for p in periods if 1 <= p <= n // 2]


def _mismatches(s: np.ndarray, ell: int) -> np.ndarray:
    """d[q] = (T[q] != T[q+l]) for q in [1..n-l], and d[0] = True for the pad.

    d[0] is set even where a symbol equals the pad value, so the pad always
    bounds the first equality block and counts as one mismatch in csum.
    """
    d = s[: len(s) - ell] != s[ell:]
    d[0] = True
    return d


def _runs(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-open index ranges [starts, stops) of the maximal True runs."""
    padded = np.zeros(len(flags) + 2, dtype=bool)
    padded[1:-1] = flags
    edges = (padded[1:] != padded[:-1]).nonzero()[0]
    return edges[::2], edges[1::2]


def _windows(s: np.ndarray, ell: int):
    """The window scan of one period l <= n/2 over its w = n-2l+1 starts.

    Returns the mismatch vector d, its running count csum (csum[q] counts
    the pad and the mismatching positions <= q) and the mismatch count
    wins[i-1] of each window [i..i+l).
    """
    d = _mismatches(s, ell)
    csum = np.add.accumulate(d, dtype=np.intp)  # half the call cost of d.cumsum()
    return d, csum, csum[ell:] - csum[: len(d) - ell]


def _cuts(d: np.ndarray, ell: int) -> np.ndarray:
    """cuts[i] for i in [0..w]: true at 0, at w, and where the mismatch set
    changes from start i to start i+1 (a mismatching position leaves or
    enters), so the uniform segments are the starts (c..c'] between cuts."""
    w = len(d) - ell
    cuts = np.empty(w + 1, dtype=bool)
    cuts[0] = cuts[w] = True
    np.bitwise_or(d[1:w], d[ell + 1 :], out=cuts[1:w])
    return cuts


def _segments(d: np.ndarray, wins: np.ndarray, ell: int, k: int):
    """The uniform segments of one period with window count <= k: their
    0-based first starts, 1-based last starts and counts."""
    bounds = _cuts(d, ell).nonzero()[0]
    firsts = bounds[:-1]
    counts = wins[firsts]
    keep = counts <= k
    return firsts[keep], bounds[1:][keep], counts[keep]


def mismatch_positions(t, ell: int) -> list[int]:
    """Ascending positions i in [1..n-l] with T[i] != T[i+l]."""
    s = _symbols(t)
    n = len(s) - 1
    if not (1 <= ell <= n):
        raise ValueError(f"period {ell} out of range for n={n}")
    return _mismatches(s, ell).nonzero()[0][1:].tolist()


def is_k_mismatch_square(t, i: int, ell: int, k: int) -> bool:
    """Is T[i..i+2l) a square of its halves with at most k mismatches?"""
    s = _symbols(t)
    n = len(s) - 1
    if ell < 1:
        raise ValueError(f"period {ell} out of range for n={n}")
    if i < 1 or i + 2 * ell - 1 > n:
        raise ValueError(f"square [{i}..{i + 2 * ell - 1}] out of range for n={n}")
    return int(np.count_nonzero(s[i : i + ell] != s[i + ell : i + 2 * ell])) <= k


def uniform_k_runs(t, k: int, periods=None) -> list[UniformKRun]:
    """All maximal uniform k-runs: stretches of equal-length squares whose
    mismatch sets coincide and have size at most k."""
    s = _symbols(t)
    out: list[UniformKRun] = []
    for ell in _period_range(len(s) - 1, periods):
        d, csum, wins = _windows(s, ell)
        firsts, lasts, counts = _segments(d, wins, ell, k)
        if not len(firsts):
            continue
        # pos[0] is the pad, so pos[csum[i-1]] is the first mismatch >= start i
        pos = d.nonzero()[0].tolist()
        out.extend(
            UniformKRun(a + 1, e + 2 * ell, ell, tuple(pos[o : o + c]), k)
            for a, e, o, c in zip(
                firsts.tolist(), lasts.tolist(), csum[firsts].tolist(), counts.tolist()
            )
        )
    return out


def count_uniform_k_runs(t, k: int, periods=None) -> int:
    """Number of maximal uniform k-runs (no records materialized).

    A uniform run begins at a cut start whose window count is <= k: a
    count changes only where the mismatch set does, so no segment
    straddles a count boundary.
    """
    s = _symbols(t)
    total = 0
    for ell in _period_range(len(s) - 1, periods):
        d, _, wins = _windows(s, ell)
        total += int(np.count_nonzero(_cuts(d, ell)[:-1] & (wins <= k)))
    return total


def uniform_start_intervals(t, ell: int, k: int) -> np.ndarray:
    """Window-start intervals [a..b-2l] of the uniform k-runs of one period,
    as the rows of a (m, 2) int64 array sorted by a."""
    s = _symbols(t)
    if not 1 <= ell <= (len(s) - 1) // 2:
        return np.zeros((0, 2), dtype=np.int64)
    d, _, wins = _windows(s, ell)
    firsts, lasts, _ = _segments(d, wins, ell, k)
    return np.array((firsts + 1, lasts), dtype=np.int64).T


def k_runs(t, k: int, periods=None) -> list[KRun]:
    """All maximal k-runs: every window of the stretch is a k-mismatch square."""
    s = _symbols(t)
    out: list[KRun] = []
    for ell in _period_range(len(s) - 1, periods):
        _, _, wins = _windows(s, ell)
        starts, stops = _runs(wins <= k)
        out.extend(
            KRun(a + 1, e + 2 * ell, ell, k) for a, e in zip(starts.tolist(), stops.tolist())
        )
    return out


def _arms(s: np.ndarray, ell: int, lo: int, hi: int | None):
    """(x, u) of the equality blocks [x..x+u) of T[q] = T[q+l] with
    lo <= u (and u < hi)."""
    starts, stops = _runs(~_mismatches(s, ell))
    arms = stops - starts
    keep = arms >= lo
    if hi is not None:
        keep &= arms < hi
    return zip(starts[keep].tolist(), arms[keep].tolist())


def generalised_runs(t, periods=None) -> list[GeneralisedRun]:
    """All maximal periodic fragments of length >= 2p per period p (0-runs)."""
    s = _symbols(t)
    out: list[GeneralisedRun] = []
    for p in _period_range(len(s) - 1, periods):
        out.extend(GeneralisedRun(x, x + u + p, p) for x, u in _arms(s, p, p, None))
    return out


def mgrs(t, alpha_max: Fraction | float | None = None, periods=None) -> list[Mgr]:
    """All maximal gapped repeats; arms strictly shorter than the period.

    Equality blocks of length u with 0 < u < period are exactly the MGRs of
    that period; blocks of length >= period are generalised runs instead.
    A gap ratio l/u <= alpha = num/den is the arm bound u >= ceil(l*den/num),
    taken in Python integers (a float alpha's den can reach 2**52).
    """
    s = _symbols(t)
    if alpha_max == math.inf:
        alpha_max = None
    if alpha_max is not None:
        alpha = Fraction(alpha_max)
        if alpha <= 0:
            return []
    out: list[Mgr] = []
    for ell in _period_range(len(s) - 1, periods):
        lo = 1 if alpha_max is None else -(-ell * alpha.denominator // alpha.numerator)
        if lo < ell:
            out.extend(Mgr(x, x + u + ell, ell, u) for x, u in _arms(s, ell, lo, ell))
    return out


def induces(rep: Mgr | GeneralisedRun, run: UniformKRun) -> bool:
    """Does the repeat's arm interval meet the run's square-start interval?

    Both intervals are taken one period short of the fragment end, exactly
    matching the defining intersection test.
    """
    ell = rep.period
    if ell != run.ell:
        raise ValueError(f"period mismatch: repeat {ell} vs run {run.ell}")
    return max(rep.x, run.a) < min(rep.y - ell, run.b - ell)
