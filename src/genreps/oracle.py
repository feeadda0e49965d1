"""Brute-force reference implementations for every enumerated or counted
object, kept independent of the efficient paths (only the Text type is
shared).  These are the source of expected values in the test suite and
the backend of the `verify` CLI subcommand.

Equivalence classes are keyed by canonical per-prefix code sequences (the
classic encodings computed literally from their definitions); the
definitional matchers below validate that keying wherever the tests
sample pairs.
"""

from __future__ import annotations

from bisect import bisect_left

from .text import Text

BRUTE_CAP = 200


def _require_cap(n: int, cap: int = BRUTE_CAP) -> None:
    if n > cap:
        raise ValueError(f"brute-force oracle capped at n={cap}, got {n}")


# ---------------------------------------------------------------------------
# definitional matchers


def exact_match(x, y) -> bool:
    return list(x) == list(y)


def param_match(x, y) -> bool:
    """Is there a bijection f on symbols with f(x) = y?"""
    if len(x) != len(y):
        return False
    fwd: dict = {}
    bwd: dict = {}
    for a, b in zip(x, y):
        if fwd.setdefault(a, b) != b or bwd.setdefault(b, a) != a:
            return False
    return True


def op_match(x, y) -> bool:
    """Is there an increasing bijection f with f(x) = y?"""
    if len(x) != len(y):
        return False
    sx = sorted(set(x))
    sy = sorted(set(y))
    if len(sx) != len(sy):
        return False
    rx = {v: r for r, v in enumerate(sx)}
    ry = {v: r for r, v in enumerate(sy)}
    return all(rx[a] == ry[b] for a, b in zip(x, y))


def _cartesian_parents(vals) -> list[int]:
    """Parent links of the Cartesian tree (leftmost minimum as root) via the
    classic rightmost-path stack construction."""
    parent = [-1] * len(vals)
    stack: list[int] = []
    for i, v in enumerate(vals):
        last = -1
        while stack and vals[stack[-1]] > v:
            last = stack.pop()
        if last != -1:
            parent[last] = i
        parent[i] = stack[-1] if stack else -1
        stack.append(i)
    return parent


def ct_match(x, y) -> bool:
    """Do x and y have Cartesian trees of the same shape?"""
    if len(x) != len(y):
        return False
    return _cartesian_parents(list(x)) == _cartesian_parents(list(y))


def _max_radii(seq) -> tuple[list[int], list[int]]:
    """Maximal palindrome radii per center, by naive expansion."""
    m = len(seq)
    odd = []
    for c in range(m):
        r = 0
        while c - r - 1 >= 0 and c + r + 1 < m and seq[c - r - 1] == seq[c + r + 1]:
            r += 1
        odd.append(r)
    even = []
    for c in range(m - 1):
        r = 0
        while c - r >= 0 and c + r + 1 < m and seq[c - r] == seq[c + r + 1]:
            r += 1
        even.append(r)
    return odd, even


def pal_match(x, y) -> bool:
    """Do x and y have palindromic substrings at exactly the same ranges?

    Equivalent to equal maximal radii at every center, since palindromes
    at one center are nested.
    """
    if len(x) != len(y):
        return False
    return _max_radii(list(x)) == _max_radii(list(y))


def _ct_suffix_match(x, y) -> bool:
    return ct_match(list(reversed(list(x))), list(reversed(list(y))))


_MATCHERS = {
    "exact": exact_match,
    "param": param_match,
    "op": op_match,
    "ct": ct_match,
    "pal": pal_match,
    "ct_suffix": _ct_suffix_match,
}


def brute_match(relation: str, x, y) -> bool:
    try:
        return _MATCHERS[relation](x, y)
    except KeyError:
        raise ValueError(f"unknown relation {relation!r}") from None


# ---------------------------------------------------------------------------
# canonical per-prefix code rows (computed literally from the definitions)


def canonical_rows(t: Text, relation: str) -> list[list[int]]:
    """rows[i] = canonical codes of the prefixes of T[i..n]; rows[0] unused.

    Two equal-length substrings are equivalent iff the corresponding row
    slices agree elementwise.
    """
    n = t.n
    s = t.padded
    rows: list[list[int]] = [[] for _ in range(n + 2)]
    if relation == "exact":
        for i in range(1, n + 1):
            rows[i] = s[i:]
        return rows
    if relation == "param":
        for i in range(1, n + 1):
            last: dict = {}
            row = []
            for j in range(i, n + 1):
                c = s[j]
                row.append(j - last[c] if c in last else 0)
                last[c] = j
            rows[i] = row
        return rows
    if relation == "op":
        for i in range(1, n + 1):
            seen: dict = {}  # value -> last position
            row = []
            for j in range(i, n + 1):
                v = s[j]
                alpha = beta = 0
                best_le = best_ge = None
                for val, pos in seen.items():
                    if val <= v and (best_le is None or val > best_le):
                        best_le, alpha = val, pos - i + 1
                    if val >= v and (best_ge is None or val < best_ge):
                        best_ge, beta = val, pos - i + 1
                row.append(alpha * (j - i + 1) + beta)
                seen[v] = j
            rows[i] = row
        return rows
    if relation in ("ct", "ct_suffix"):
        # distance to the nearest earlier symbol that is <= (ct) or < (ct_suffix)
        strict = relation == "ct_suffix"
        for i in range(1, n + 1):
            row = []
            for j in range(i, n + 1):
                d = 0
                for m in range(j - 1, i - 1, -1):
                    if s[m] < s[j] or (s[m] == s[j] and not strict):
                        d = j - m
                        break
                row.append(d)
            rows[i] = row
        return rows
    if relation == "pal":
        ends: list[list[int]] = [[] for _ in range(n + 2)]  # ends[j]: pal starts
        for c in range(1, n + 1):
            r = 0
            while c - r >= 1 and c + r <= n and s[c - r] == s[c + r]:
                ends[c + r].append(c - r)
                r += 1
            r = 0
            while c - r >= 1 and c + r + 1 <= n and s[c - r] == s[c + r + 1]:
                ends[c + r + 1].append(c - r)
                r += 1
        for j in range(1, n + 1):
            ends[j].sort()
        for i in range(1, n + 1):
            row = []
            for j in range(i, n + 1):
                pos = bisect_left(ends[j], i)
                row.append(j - ends[j][pos] + 1)
            rows[i] = row
        return rows
    raise ValueError(f"unknown relation {relation!r}")


def brute_lcp(rows: list[list[int]], i: int, j: int) -> int:
    a, b = rows[i], rows[j]
    limit = min(len(a), len(b))
    h = 0
    while h < limit and a[h] == b[h]:
        h += 1
    return h


def brute_lpf(t: Text, relation: str) -> list[int]:
    """lpf[i] = longest prefix of T[i..] equivalent to a factor starting earlier."""
    rows = canonical_rows(t, relation)
    lpf = [0] * (t.n + 1)
    for i in range(2, t.n + 1):
        lpf[i] = max(brute_lcp(rows, i, j) for j in range(1, i))
    return lpf


def brute_recency_code(t: Text, i: int, j: int) -> int:
    """Distinct symbols in the longest suffix of T[i..j) avoiding T[j]."""
    s = t.padded
    seen = set()
    for m in range(j - 1, i - 1, -1):
        if s[m] == s[j]:
            break
        seen.add(s[m])
    return len(seen)


# ---------------------------------------------------------------------------
# squares


def brute_squares_members(t: Text, relation: str, method: str = "auto") -> dict[int, list[int]]:
    """Per half-period p, the sorted start positions of squares T[i..i+2p).

    method "match" tests halves with the definitional matcher; "canon"
    compares canonical code rows; "auto" picks by size.
    """
    n = t.n
    _require_cap(n)
    if method == "auto":
        method = "match" if n <= 24 else "canon"
    out: dict[int, list[int]] = {}
    if method == "match":
        sym = t.padded
        matcher = _MATCHERS[relation]
        for p in range(1, n // 2 + 1):
            members = [
                i
                for i in range(1, n - 2 * p + 2)
                if matcher(sym[i : i + p], sym[i + p : i + 2 * p])
            ]
            if members:
                out[p] = members
        return out
    rows = canonical_rows(t, relation)
    for p in range(1, n // 2 + 1):
        members = [
            i for i in range(1, n - 2 * p + 2) if rows[i][:p] == rows[i + p][:p]
        ]
        if members:
            out[p] = members
    return out


def members_to_intervals(members: list[int]) -> list[tuple[int, int]]:
    """Maximal intervals of consecutive start positions."""
    out = []
    for i in members:
        if out and out[-1][1] == i - 1:
            out[-1] = (out[-1][0], i)
        else:
            out.append((i, i))
    return out


def brute_count_nonequivalent(t: Text, relation: str) -> int:
    """Number of equivalence classes among square substrings."""
    _require_cap(t.n)
    rows = canonical_rows(t, relation)
    classes = set()
    for p, members in brute_squares_members(t, relation, method="canon").items():
        for i in members:
            classes.add((2 * p, tuple(rows[i][: 2 * p])))
    return len(classes)


def brute_count_distinct(t: Text, relation: str) -> int:
    """Number of distinct strings among square substrings."""
    _require_cap(t.n)
    s = t.padded
    seen = set()
    for p, members in brute_squares_members(t, relation, method="canon").items():
        for i in members:
            seen.add(tuple(s[i : i + 2 * p]))
    return len(seen)


def brute_nonequivalent_leftmost(t: Text, relation: str = "param") -> list[tuple[int, int]]:
    """Leftmost occurrence (start, length) of every square class, sorted."""
    _require_cap(t.n)
    rows = canonical_rows(t, relation)
    first: dict = {}
    for p, members in brute_squares_members(t, relation, method="canon").items():
        for i in members:
            key = (2 * p, tuple(rows[i][: 2 * p]))
            if key not in first or i < first[key]:
                first[key] = i
    return sorted(((i, length) for (length, _), i in first.items()), key=lambda oc: (oc[1], oc[0]))


def brute_distinct_leftmost(t: Text, relation: str = "param") -> list[tuple[int, int]]:
    """Leftmost occurrence (start, length) of every distinct square string."""
    _require_cap(t.n)
    s = t.padded
    first: dict = {}
    for p, members in brute_squares_members(t, relation, method="canon").items():
        for i in members:
            key = tuple(s[i : i + 2 * p])
            if key not in first or i < first[key]:
                first[key] = i
    return sorted(((i, len(key)) for key, i in first.items()), key=lambda oc: (oc[1], oc[0]))


# ---------------------------------------------------------------------------
# repeats


def brute_mismatch_positions(t: Text, ell: int) -> list[int]:
    s = t.padded
    return [i for i in range(1, t.n - ell + 1) if s[i] != s[i + ell]]


def brute_uniform_segments(t: Text) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """All maximal equal-mismatch-set stretches per period, any set size.

    Returns (a, b, ell, mismatch positions) with b exclusive, recomputing
    every window's set from scratch; stretch boundaries do not depend on k.
    """
    _require_cap(t.n)
    n = t.n
    s = t.padded
    out = []
    for ell in range(1, n // 2 + 1):
        w = n - 2 * ell + 1
        sets = [
            tuple(q for q in range(i, i + ell) if s[q] != s[q + ell])
            for i in range(1, w + 1)
        ]
        i = 0
        while i < w:
            j = i
            while j + 1 < w and sets[j + 1] == sets[i]:
                j += 1
            out.append((i + 1, j + 1 + 2 * ell, ell, sets[i]))
            i = j + 1
    return out


def brute_uniform_k_runs(
    t: Text, k: int, segments=None
) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """Maximal equal-mismatch-set stretches with set size <= k, per period."""
    if segments is None:
        segments = brute_uniform_segments(t)
    return [seg for seg in segments if len(seg[3]) <= k]


def brute_window_counts(t: Text) -> list[list[int]]:
    """Per period l = 1..n/2, the mismatch count of every window start."""
    _require_cap(t.n)
    n = t.n
    s = t.padded
    return [
        [sum(1 for q in range(i, i + ell) if s[q] != s[q + ell]) for i in range(1, n - 2 * ell + 2)]
        for ell in range(1, n // 2 + 1)
    ]


def brute_k_runs(t: Text, k: int, counts=None) -> list[tuple[int, int, int]]:
    """Maximal stretches of k-mismatch-square starts, per period."""
    if counts is None:
        counts = brute_window_counts(t)
    out = []
    for ell, wins in enumerate(counts, 1):
        w = len(wins)
        ok = [c <= k for c in wins]
        i = 0
        while i < w:
            if not ok[i]:
                i += 1
                continue
            j = i
            while j + 1 < w and ok[j + 1]:
                j += 1
            out.append((i + 1, j + 1 + 2 * ell, ell))
            i = j + 1
    return out


def _brute_blocks(s, n: int, p: int):
    q = 1
    while q <= n - p:
        if s[q] != s[q + p]:
            q += 1
            continue
        e = q
        while e + 1 <= n - p and s[e + 1] == s[e + 1 + p]:
            e += 1
        yield q, e
        q = e + 2


def brute_generalised_runs(t: Text) -> list[tuple[int, int, int]]:
    """(x, y, p) with T[x..y) maximally p-periodic and y-x >= 2p."""
    _require_cap(t.n)
    s = t.padded
    out = []
    for p in range(1, t.n // 2 + 1):
        for q, e in _brute_blocks(s, t.n, p):
            if e - q + 1 >= p:
                out.append((q, e + p + 1, p))
    return out


def brute_mgrs(t: Text) -> list[tuple[int, int, int, int]]:
    """(x, y, ell, arm) for all maximal gapped repeats with arm < period."""
    _require_cap(t.n)
    s = t.padded
    out = []
    for ell in range(1, t.n // 2 + 1):
        for q, e in _brute_blocks(s, t.n, ell):
            u = e - q + 1
            if 0 < u < ell:
                out.append((q, e + ell + 1, ell, u))
    return out


# ---------------------------------------------------------------------------
# counting cross-checks


def naive_rangecount_sum(intervals: dict[int, list[tuple[int, int]]], lpf, n: int) -> int:
    """Double-loop evaluation of the interval/LPF range-count sum."""
    total = 0
    for p, ivs in intervals.items():
        for lo, hi in ivs:
            total += sum(1 for k in range(lo, hi + 1) if lpf[k] < 2 * p)
    return total


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


def cursor_sweep_count(intervals: dict[int, list[tuple[int, int]]], lpf, n: int) -> int:
    """The interval/LPF range-count sum by a left-to-right cursor sweep.

    Walks k = 1..n keeping the set of active doubled half-periods; at each
    k the cursor moves to lpf[k] and the counter reports how many active
    squares of length 2p satisfy lpf[k] < 2p, i.e. have their leftmost
    occurrence at k.
    """
    starts: dict[int, list[int]] = {}
    ends: dict[int, list[int]] = {}
    for p, ivs in intervals.items():
        for lo, hi in ivs:
            starts.setdefault(lo, []).append(2 * p)
            ends.setdefault(hi, []).append(2 * p)
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


# ---------------------------------------------------------------------------
# verification engine (backend of the `verify` subcommand)


def verify_text(t: Text, ks=(0, 1, 2, 3, 4), relations=("exact", "param", "op", "ct", "pal")) -> list[str]:
    """Compare every efficient path against its oracle on one text.

    Returns a list of human-readable failure descriptions (empty = pass).
    """
    from . import counting, psquares, repeats
    from .index import ScerIndex

    fails: list[str] = []
    n = t.n
    s = t.padded

    segments = brute_uniform_segments(t)
    counts = brute_window_counts(t)
    jumps = repeats.jump_index(t)  # one LCE index for every sampled enumerator
    for k in ks:
        got = [(r.a, r.b, r.ell, r.mismatches) for r in repeats.uniform_k_runs(t, k, index=jumps)]
        want = brute_uniform_k_runs(t, k, segments)
        if sorted(got) != sorted(want):
            fails.append(f"uniform_k_runs k={k}: {len(got)} records vs oracle {len(want)}")
        got_k = [(r.a, r.b, r.ell) for r in repeats.k_runs(t, k, index=jumps)]
        want_k = brute_k_runs(t, k, counts)
        if sorted(got_k) != sorted(want_k):
            fails.append(f"k_runs k={k}: {len(got_k)} records vs oracle {len(want_k)}")
    got_g = [(r.x, r.y, r.p) for r in repeats.generalised_runs(t, index=jumps)]
    if sorted(got_g) != sorted(brute_generalised_runs(t)):
        fails.append("generalised_runs mismatch")
    got_m = [(r.x, r.y, r.ell, r.arm_len) for r in repeats.mgrs(t)]
    if sorted(got_m) != sorted(brute_mgrs(t)):
        fails.append("mgrs mismatch")

    exact_index = ScerIndex(t, "exact")
    param_table = None
    for relation in relations:
        index = exact_index if relation == "exact" else ScerIndex(t, relation)
        try:
            table = counting.squares_table(index)
        except AssertionError as exc:
            fails.append(f"squares_table {relation}: {exc}")
            continue
        if relation == "param":
            param_table = table
        members = brute_squares_members(t, relation)
        got_members = {
            p: table.positions(p) for p in table.intervals if table.positions(p)
        }
        if got_members != members:
            fails.append(f"squares_table {relation}: membership differs")
        rows = canonical_rows(t, relation)
        want_ne = len(
            {(2 * p, tuple(rows[i][: 2 * p])) for p, mem in members.items() for i in mem}
        )
        got_ne = counting.count_nonequivalent(t, relation, table=table)
        if got_ne != want_ne:
            fails.append(f"count_nonequivalent {relation}: {got_ne} vs {want_ne}")
        want_d = len(
            {tuple(s[i : i + 2 * p]) for p, mem in members.items() for i in mem}
        )
        got_d = counting.count_distinct(t, relation, table=table, exact_index=exact_index)
        if got_d != want_d:
            fails.append(f"count_distinct {relation}: {got_d} vs {want_d}")
        if got_ne != naive_rangecount_sum(table.intervals, index.lpf(), n):
            fails.append(f"sweep {relation}: differs from naive range-count sum")

    if param_table is None and "param" in relations:
        return fails  # the failed param table is listed above
    # both reports read the param table and the exact index built above
    report = psquares.report_nonequivalent(t, table=param_table)
    if report.occurrences != brute_nonequivalent_leftmost(t, "param"):
        fails.append("report_nonequivalent(param): occurrence list differs")
    report = psquares.report_distinct(t, table=param_table, exact_index=exact_index)
    if report.occurrences != brute_distinct_leftmost(t, "param"):
        fails.append("report_distinct(param): occurrence list differs")
    return fails
