"""Enumeration of k-mismatch repeats: uniform k-runs, k-runs, generalised
runs and maximal gapped repeats (MGRs).

For a period l let d[x] = (T[x] != T[x+l]), x in [1..n-l].  A window start
i in [1..n-2l+1] covers d[i..i+l); a k-run is a maximal stretch of starts
whose windows hold at most k mismatches, and a uniform k-run a maximal
stretch whose windows share one such mismatch set.  The equality blocks
of d (runs of T[x] = T[x+l]) of length u >= l are the generalised runs of
period l, and those with u < l its MGRs.

k-runs, uniform k-runs, generalised runs (the 0-runs) and MGRs with a
gap-ratio bound come from sampled kangaroo jumps, after Landau, Schmidt
and Sokol (J. Comput. Biol. 2001) and Kolpakov and Kucherov (TCS 2003):

* every window of period l holds exactly one sample q in {l, 2l, ...}, so
  the samples of all periods number about n ln n;
* from each sample, k+1 forward LCE jumps from (q, q+l) find its first
  mismatches f_1 < f_2 < ... at or after q, and k+1 backward jumps from
  (q-1, q+l-1) its last mismatches b_1 > b_2 > ... before q.  A jump
  round is one batch LCP query over every sample with a jump left to take,
  on one exact index of T$T^R (`jump_index`); a side stops once it
  leaves the windows holding q, so a period costs O(kn/l) queries and the
  whole enumeration O(nk log n);
* the good starts of sample q are the union over a of (b_{a+1},
  f_{k-a+1} - l], clipped to the windows holding q, and one running
  maximum over them, in sample order, merges them into k-runs;
* a start u lies in the windows of one sample only, q = l*ceil(u/l),
  whose starts are (c0..c1] with c0 = q-l and c1 = min(q, n-2l+1), so
  each uniform segment is reported by the sample that owns its first
  start: it begins after a cut at a b or an f-l in [c0..c1] (an f is at
  least q, so it falls on or past c1), its count is #{b >= u} +
  #{f <= u+l-1} at u, and a segment that reaches c1 uncut ends at the
  first cut past it, f_1 or the first f-l >= c1 (at most n-2l+1), which
  the forward jumps hold whenever the segment's count is at most k;
* an MGR with gap ratio l/u <= alpha has an arm u >= ceil(l/alpha), so it
  holds a multiple of that step: its block is [b_1+1 .. f_1-1] around
  such a sample, from a jump with k = 0 each way.

k-runs, uniform k-runs and bounded MGRs read one sampled-jump pass,
`_sampled`.  It checks or builds the jump index once and walks the
samples of every period through `index._cells`, the walk the right
non-extendible probes of `counting` take too, in chunks of at most
`_ROUND_CELLS` cells; a chunk caps k at its largest period, since a
window of period l holds at most l mismatches.  The jumps cost
O(nk log n) against the Θ(n^2) of a scan over every (period, start)
cell, so they are meant for small k, the paper's regime: its O(nk log k)
bound on the runs is informative only for k log k well below n.  Two
paths keep one numpy scan per period over d: unbounded MGRs, whose
Θ(n^2) output on random text sampling cannot beat, and
`uniform_start_intervals`, which the reference p-square construction
`psquares.candidate_intervals` calls with k = sigma (the p-square reports
read the param square table instead).  Records store
fragments as half-open [a..b); reported positions are 1-based.  Functions
take a Text, and any other input is a TypeError; k passes through
`operator.index`, so a numpy integer k is recorded as an int and a float k
is a TypeError.  The sampled functions also
take an optional `jump_index` of the text, built once per call when it is
not given and checked against the text when it is.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .index import _ROUND_CELLS, ScerIndex, _cells
from .text import Text, _dense_text


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


def _symbols(t: Text) -> np.ndarray:
    """The 1-based int64 symbols of a Text, -1 at index 0; a TypeError for
    anything else."""
    if not isinstance(t, Text):
        raise TypeError(f"expected a Text, got {type(t).__name__}")
    return t.padded_np


def _periods(n: int, periods) -> np.ndarray:
    """The distinct periods asked for (all when None) that lie in [1..n/2],
    ascending."""
    half = n // 2
    if periods is None:
        return np.arange(1, half + 1)
    if isinstance(periods, numbers.Integral):
        periods = (periods,)
    return np.array(sorted({p for p in periods if 1 <= p <= half}), dtype=np.int64)


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


def mismatch_positions(t: Text, ell: int) -> list[int]:
    """Ascending positions i in [1..n-l] with T[i] != T[i+l]."""
    s = _symbols(t)
    n = len(s) - 1
    if not (1 <= ell <= n):
        raise ValueError(f"period {ell} out of range for n={n}")
    return _mismatches(s, ell).nonzero()[0][1:].tolist()


def is_k_mismatch_square(t: Text, i: int, ell: int, k: int) -> bool:
    """Is T[i..i+2l) a square of its halves with at most k mismatches?"""
    s = _symbols(t)
    n = len(s) - 1
    if ell < 1:
        raise ValueError(f"period {ell} out of range for n={n}")
    if i < 1 or i + 2 * ell - 1 > n:
        raise ValueError(f"square [{i}..{i + 2 * ell - 1}] out of range for n={n}")
    return int(np.count_nonzero(s[i : i + ell] != s[i + ell : i + 2 * ell])) <= k


# ---------------------------------------------------------------------------
# sampled kangaroo jumps


def _joined(t: Text) -> np.ndarray:
    """The dense codes of T$T^R, $ = sigma."""
    dense = _symbols(t)[1:]
    return np.concatenate((dense, [t.sigma], dense[::-1]))


def jump_index(t: Text) -> ScerIndex:
    """The exact suffix index of T$T^R, $ a symbol not in T, that the
    sampled enumerators read their jumps from.

    Forward, the LCE of positions x, y of T is their LCP: $ ends every
    match at the end of T.  Backward, the longest common suffix of T[1..x]
    and T[1..y] is the LCP of positions 2n+2-x and 2n+2-y, in T^R, where
    the end of the text ends every match at the start of T.
    """
    joined = _joined(t)  # checks that t is a Text
    return ScerIndex(_dense_text(joined, t.sigma + 1, tuple(range(t.sigma + 1))), "exact")


def _index_for(t: Text, index: ScerIndex | None) -> ScerIndex:
    """The given jump index after checking that it is one of t, else a new one."""
    if index is None:
        return jump_index(t)
    if index.relation != "exact" or not np.array_equal(index.text.padded_np[1:], _joined(t)):
        raise ValueError("index is not the jump index of this text")
    return index


def _jumps(index: ScerIndex, n: int, ell: np.ndarray, q: np.ndarray, k: int):
    """The k+1 mismatches of each sample q on each side: (B, F), two (m, k+1)
    arrays with B[:, a] = b_{a+1} and F[:, a] = f_{a+1}.

    Both sides jump in T$T^R: forward from (q, q+l), backward from
    (2n+3-q, 2n+3-q-l), the mirror of (q-1, q+l-1).  An LCP of c from
    position x hits the mismatch at x+c, and the next jump starts at
    x+c+1, so a jump round is one `lcp_batch` over the sides that go on.  A side
    stops at its first mismatch outside [q-l..q+l], or at the end of the
    text (b = 0, f = n-l+1); its later columns repeat that value, which no
    window holding q, and no cut of its starts, can tell from the true
    ones.
    """
    m = len(q)
    end = 2 * n + 2  # T[x] sits at position end - x of T^R
    x = np.concatenate((q, end + 1 - q))
    step = np.concatenate((ell, -ell))
    hits = np.empty((k + 1, 2 * m), dtype=np.int64)
    hits[0] = hit = x + index.lcp_batch(x, x + step)
    if k:  # the sides that go on, and where they stop
        on = np.arange(2 * m)
        last = np.concatenate((np.minimum(q + ell, n - ell), np.minimum(end + ell - q, end - 1)))
    for r in range(1, k + 1):
        keep = hit <= last
        if not keep.any():
            hits[r:] = hits[r - 1]  # every side has stopped
            break
        on, x, step, last = on[keep], hit[keep] + 1, step[keep], last[keep]
        hit = x + index.lcp_batch(x, x + step)
        hits[r] = hits[r - 1]  # a side that stopped repeats its last hit
        hits[r, on] = hit
    hits = hits.T
    return end - hits[m:], hits[:m]


def _sampled(t: Text, k: int, ells: np.ndarray, steps: np.ndarray, index: ScerIndex | None, width: int):
    """The jumps from the samples q = step, 2*step, ... <= n-l of every
    period l = ells[p], step = steps[p]: per chunk of samples, in period
    order and then by q, the arrays (p, l, q, B, F) with (B, F) the k+1
    mismatches of each side (`_jumps`).

    The jump index is checked or built once.  The samples of all periods
    are one walk of `index._cells`, a sample taking 2k + width cells of the
    `_ROUND_CELLS` budget, and a chunk caps k at its largest period, since
    a window of period l holds at most l mismatches.
    """
    n = t.n
    index = _index_for(t, index)
    k = min(k, int(ells.max()))
    for p, offset in _cells((n - ells) // steps, max(1, _ROUND_CELLS // (2 * k + width))):
        ell = ells[p]
        q = (offset + 1) * steps[p]
        yield (p, ell, q, *_jumps(index, n, ell, q, min(k, int(ell.max()))))


def _good_starts(n: int, ell: np.ndarray, q: np.ndarray, B: np.ndarray, F: np.ndarray):
    """(lo, hi), two (m, k+1) arrays: column j holds the starts
    (b_{k+1-j}, f_{j+1} - l] clipped to the windows holding q, empty where
    lo > hi.  Along a row lo never falls, and the union of a row is the
    sample's good starts."""
    lo = np.maximum(B[:, ::-1] + 1, (q - ell + 1)[:, None])
    hi = np.minimum(F - ell[:, None], np.minimum(q, n - 2 * ell + 1)[:, None])
    return lo, hi


def _merge(lo: np.ndarray, hi: np.ndarray):
    """The maximal runs of the union of integer intervals [lo..hi], given
    sorted by lo: their (lo, hi) arrays."""
    if not len(lo):
        return lo, hi
    top = np.maximum.accumulate(hi)
    head = np.empty(len(lo), dtype=bool)
    head[0] = True
    np.greater(lo[1:], top[:-1] + 1, out=head[1:])
    first = head.nonzero()[0]
    return lo[first], top[np.append(first[1:], len(lo)) - 1]


def _k_run_rows(t: Text, k: int, periods, index):
    """(l, first start, last start) arrays of all maximal k-runs, in period
    order and then by start."""
    n = len(_symbols(t)) - 1
    ells = _periods(n, periods)
    if k < 0 or not len(ells):
        return ells[:0], ells[:0], ells[:0]
    span = np.int64(n + 2)  # period index p keys the starts p*span + [1..n]
    runs = []
    for p, ell, q, B, F in _sampled(t, k, ells, ells, index, 2):
        lo, hi = _good_starts(n, ell, q, B, F)
        key = (p * span)[:, None]
        ok = lo <= hi
        runs.append(_merge((lo + key)[ok], (hi + key)[ok]))
    lo, hi = runs[0]
    if len(runs) > 1:  # a run that crosses a chunk boundary merges here
        lo, hi = _merge(*map(np.concatenate, zip(*runs)))
    p = lo // span
    return ells[p], lo - p * span, hi - p * span


def k_runs(t: Text, k: int, periods=None, index: ScerIndex | None = None) -> list[KRun]:
    """All maximal k-runs: every window of the stretch is a k-mismatch square."""
    k = operator.index(k)
    ells, a, last = _k_run_rows(t, k, periods, index)
    return [
        KRun(x, y, ell, k)
        for x, y, ell in zip(a.tolist(), (last + 2 * ells).tolist(), ells.tolist())
    ]


def generalised_runs(t: Text, periods=None, index: ScerIndex | None = None) -> list[GeneralisedRun]:
    """All maximal periodic fragments of length >= 2p per period p: the
    0-runs."""
    ells, a, last = _k_run_rows(t, 0, periods, index)
    return [
        GeneralisedRun(x, y, ell)
        for x, y, ell in zip(a.tolist(), (last + 2 * ells).tolist(), ells.tolist())
    ]


def _uniform_segments(t: Text, k: int, periods, index):
    """Per chunk of samples, the uniform segments with count <= k, in period
    order and then by start: (l, first start, last start, known, row, lo,
    hi) arrays; the mismatches of a segment's first window are
    known[row, lo:hi]."""
    n = len(_symbols(t)) - 1
    ells = _periods(n, periods)
    if k < 0 or not len(ells):
        return
    for _, ell, q, B, F in _sampled(t, k, ells, ells, index, 4):
        lo, hi = _good_starts(n, ell, q, B, F)
        live = (lo <= hi).any(axis=1)  # no good start, no uniform k-run
        if not live.any():
            continue
        ell, q, B, F = ell[live], q[live], B[live], F[live]
        # a sample reports the segments whose first start lies in its
        # (c0..c1] after a cut at d[c] (the b's; an f is at least q >= c1)
        # or at d[c+l] (the f - l's): with no cut at c0, the segment from
        # c0+1 is the sample before's.  The cuts past c1 stay in place, so
        # one that reaches c1 uncut ends at the first of f_1, the f - l's
        # >= c1 and n-2l+1, and the b's below c0 move onto n-2l+1.  The
        # forward jumps hold that end when its count is at most k: with no
        # cut at c1 = q, d[q] = d[q+l] = 0, so [q..q+l] holds at most
        # min(k, l-1) mismatches and the forward side's stop, its first
        # mismatch past q+l, is in F.
        cap = (n - 2 * ell + 1)[:, None]
        c0 = (q - ell)[:, None]
        c1 = np.minimum(q[:, None], cap)
        cuts = np.concatenate((B, F - ell[:, None], F[:, :1], cap), axis=1)
        cuts = np.where(cuts < c0, cap, cuts)
        cuts.sort(axis=1)
        # a window [u..u+l) holds the known mismatches between two
        # searchsorted bounds in its sample's ascending row of b's and f's;
        # one searchsorted serves all rows, row r offset by r * (2n+2)
        off = np.arange(len(q))[:, None] * (2 * n + 2)
        known = np.concatenate((B[:, ::-1], F), axis=1)
        flat = (known + off).ravel()
        u = cuts[:, :-1] + 1
        lo = flat.searchsorted(u + off)
        hi = flat.searchsorted(u + (ell[:, None] - 1) + off, side="right")
        rows, cols = ((u <= c1) & (u <= cuts[:, 1:]) & (hi - lo <= k)).nonzero()
        if len(rows):
            base = rows * known.shape[1]
            yield (
                ell[rows], u[rows, cols], cuts[rows, cols + 1],
                known, rows, lo[rows, cols] - base, hi[rows, cols] - base,
            )


def uniform_k_runs(t: Text, k: int, periods=None, index: ScerIndex | None = None) -> list[UniformKRun]:
    """All maximal uniform k-runs: stretches of equal-length squares whose
    mismatch sets coincide and have size at most k."""
    k = operator.index(k)
    out: list[UniformKRun] = []
    ints = np.arange(len(_symbols(t)), dtype=object)  # one int object per position
    for ell, u, last, known, row, lo, hi in _uniform_segments(t, k, periods, index):
        # one gather of the rows of known that hold a segment, then one list slice each
        rows, at = np.unique(row, return_inverse=True)
        got = ints[known[rows]].tolist()
        out += [
            UniformKRun(a, b, e, tuple(got[r][x:y]), k)
            for a, b, e, r, x, y in zip(
                u.tolist(), (last + 2 * ell).tolist(), ell.tolist(), at.tolist(), lo.tolist(), hi.tolist()
            )
        ]
    return out


def count_uniform_k_runs(t: Text, k: int, periods=None, index: ScerIndex | None = None) -> int:
    """Number of maximal uniform k-runs (no records materialized): one per
    segment."""
    return sum(len(u) for _, u, *_ in _uniform_segments(t, operator.index(k), periods, index))


def mgrs(
    t: Text, alpha_max: Fraction | float | None = None, periods=None, index: ScerIndex | None = None
) -> list[Mgr]:
    """All maximal gapped repeats; arms strictly shorter than the period.

    Equality blocks of length u with 0 < u < period are exactly the MGRs of
    that period; blocks of length >= period are generalised runs instead.
    A gap ratio l/u <= alpha = num/den is the arm bound u >= step =
    ceil(l*den/num), taken in Python integers (a float alpha's den can reach
    2**52).  Such an arm holds a multiple of step: from each, one jump
    forward and one back give the block around it, and the block is kept
    at its first multiple.  Without alpha every period is scanned.
    """
    s = _symbols(t)
    n = len(s) - 1
    if alpha_max == math.inf:
        alpha_max = None
    if alpha_max is None:
        out: list[Mgr] = []
        for ell in _periods(n, periods).tolist():
            out.extend(Mgr(x, x + u + ell, ell, u) for x, u in _arms(s, ell))
        return out
    alpha = Fraction(alpha_max)
    if alpha <= 0:
        return []
    num, den = alpha.numerator, alpha.denominator
    pairs = [
        (ell, st) for ell in _periods(n, periods).tolist() if (st := -(-ell * den // num)) < ell
    ]
    if not pairs:
        return []
    ells, steps = np.array(pairs, dtype=np.int64).T
    x, arm, period = [], [], []
    for p, ell, q, B, F in _sampled(t, 0, ells, steps, index, 2):
        # the block around q is [b+1 .. f-1], b and f its nearest mismatches
        b, f = B[:, 0], F[:, 0]
        u = f - b - 1
        step = steps[p]
        keep = (f > q) & (b >= q - step) & (u >= step) & (u < ell)
        x.append(b[keep] + 1)
        arm.append(u[keep])
        period.append(ell[keep])
    x, arm, period = (np.concatenate(v) for v in (x, arm, period))
    return [
        Mgr(a, b, ell, u)
        for a, b, ell, u in zip(
            x.tolist(), (x + arm + period).tolist(), period.tolist(), arm.tolist()
        )
    ]


# ---------------------------------------------------------------------------
# per-period scans


def _arms(s: np.ndarray, ell: int):
    """(x, u) of the equality blocks [x..x+u) of T[q] = T[q+l] with
    0 < u < l."""
    starts, stops = _runs(~_mismatches(s, ell))
    arms = stops - starts
    keep = arms < ell
    return zip(starts[keep].tolist(), arms[keep].tolist())


def uniform_start_intervals(t: Text, ell: int, k: int) -> np.ndarray:
    """Window-start intervals [a..b-2l] of the uniform k-runs of one period,
    as the rows of a (m, 2) int64 array sorted by a.

    One scan of the period: the running count of d gives every window's
    mismatch count, and the mismatch set changes from start i to i+1
    exactly where d[i] | d[i+l], which cuts the starts into segments.
    """
    s = _symbols(t)
    if not 1 <= ell <= (len(s) - 1) // 2:
        return np.zeros((0, 2), dtype=np.int64)
    d = _mismatches(s, ell)
    csum = np.add.accumulate(d, dtype=np.intp)  # half the call cost of d.cumsum()
    w = len(d) - ell
    cuts = np.empty(w + 1, dtype=bool)
    cuts[0] = cuts[w] = True
    np.bitwise_or(d[1:w], d[ell + 1 :], out=cuts[1:w])
    bounds = cuts.nonzero()[0]
    firsts = bounds[:-1]
    keep = (csum[ell:] - csum[:w])[firsts] <= k
    return np.array((firsts[keep] + 1, bounds[1:][keep]), dtype=np.int64).T


def induces(rep: Mgr | GeneralisedRun, run: UniformKRun) -> bool:
    """Does the repeat's arm interval meet the run's square-start interval?

    Both intervals are taken one period short of the fragment end, exactly
    matching the defining intersection test.
    """
    ell = rep.period
    if ell != run.ell:
        raise ValueError(f"period mismatch: repeat {ell} vs run {run.ell}")
    return max(rep.x, run.a) < min(rep.y - ell, run.b - ell)
