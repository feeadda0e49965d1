"""Output checks for the benchmark's CLI jobs; none of this is timed.

A job fails when its output disagrees with any applicable reference:

* the brute-force oracle (genreps.oracle), for texts with n <= BRUTE_CAP;
* another job on the same text that computes the same number by an
  independent path (count vs psquares, bounds vs uniform/gruns/psquares);
* a closed form (unary and Fibonacci texts);
* the digest of the same job's output recorded at the commit that defined
  the benchmark, ignoring count's wall-seconds column.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from jobs import K, Unit

DIGESTS = Path(__file__).with_name("digests.json")


def normalize(label: str, out: str) -> str:
    """Output with run-dependent fields removed: count's wall seconds."""
    if not label.startswith("count "):
        return out
    return "".join(line.rsplit("\t", 1)[0] + "\n" for line in out.splitlines())


def digest(label: str, out: str) -> str:
    return hashlib.sha256(normalize(label, out).encode()).hexdigest()[:16]


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def _rows(out: str) -> list[list[str]]:
    return [line.split("\t") for line in out.splitlines()]


def _ints(out: str, first: int = 0) -> list[tuple[int, ...]]:
    return [tuple(int(x) for x in row[first:]) for row in _rows(out)]


def _bounds_row(out: str) -> dict[str, str]:
    head, row = out.splitlines()[:2]
    return dict(zip(head.split(","), row.split(",")))


def _prev_encoding(sym: tuple[int, ...], start: int, length: int) -> list[int]:
    """Distance to the previous equal symbol inside T[start..start+length), 1-based."""
    last: dict[int, int] = {}
    out = []
    for j in range(start, start + length):
        c = sym[j - 1]
        out.append(j - last[c] if c in last else 0)
        last[c] = j
    return out


class Oracle:
    """Brute-force expectations per unit, computed once per pool text."""

    def __init__(self):
        self._cache: dict[str, dict[str, object]] = {}

    def expected(self, unit: Unit) -> dict[str, object]:
        got = self._cache.get(unit.key)
        if got is None:
            got = self._cache[unit.key] = self._compute(unit)
        return got

    @staticmethod
    def _compute(unit: Unit) -> dict[str, object]:
        from genreps import oracle
        from genreps.text import text_from_symbols

        t = text_from_symbols(unit.symbols)
        labels = {j.label for j in unit.jobs}
        want: dict[str, object] = {}
        table_size: dict[str, int] = {}
        for rel in ("exact", "param", "op", "ct", "pal"):
            if not any(lab.startswith(f"count --relation {rel}") for lab in labels) and not (
                rel == "param" and "bounds" in labels
            ):
                continue
            members = oracle.brute_squares_members(t, rel)
            table_size[rel] = sum(len(oracle.members_to_intervals(m)) for m in members.values())
            lpf = oracle.brute_lpf(t, rel)
            osc = sum(abs(lpf[i + 1] - lpf[i]) for i in range(1, t.n))
            for suffix, fn in (("", oracle.brute_count_nonequivalent), (" --distinct", oracle.brute_count_distinct)):
                want[f"count --relation {rel}{suffix}"] = [(rel, fn(t, rel), table_size[rel], osc)]
        sym = unit.symbols
        want["psquares --mode classes"] = [
            (s, length, ",".join(map(str, _prev_encoding(sym, s, length // 2))))
            for s, length in oracle.brute_nonequivalent_leftmost(t, "param")
        ]
        want["psquares --mode distinct"] = oracle.brute_distinct_leftmost(t, "param")
        uniform = oracle.brute_uniform_k_runs(t, K)
        grun = oracle.brute_generalised_runs(t)
        want[f"kruns -k {K}"] = sorted((a, b, ell, K) for a, b, ell in oracle.brute_k_runs(t, K))
        want[f"uniform -k {K}"] = sorted((a, b, ell, len(m)) for a, b, ell, m in uniform)
        want["mgr --alpha 3"] = sorted(
            (x, y, ell, arm) for x, y, ell, arm in oracle.brute_mgrs(t) if ell <= 3 * arm
        )
        want["gruns"] = sorted((x, y, p, 0) for x, y, p in grun)
        if "bounds" in labels:
            want["bounds"] = {
                "uniform_runs": len(uniform),
                "gruns": len(grun),
                "table_size": table_size["param"],
                "classes": oracle.brute_count_nonequivalent(t, "param"),
            }
        return want


def _oracle_errors(outputs: dict[str, str], want: dict[str, object]) -> dict[str, str]:
    bad: dict[str, str] = {}
    for label, out in outputs.items():
        exp = want.get(label)
        if exp is None:
            continue
        if label.startswith("count "):
            rows = _rows(out)
            got: object = [(r[0], int(r[1]), int(r[2]), int(r[3])) for r in rows]
        elif label == "psquares --mode classes":
            got = [(int(r[0]), int(r[1]), r[2]) for r in _rows(out)]
        elif label == "psquares --mode distinct":
            got = _ints(out)
        elif label == "bounds":
            row = _bounds_row(out)
            got = {key: int(row[key]) for key in exp}
        else:
            got = sorted(_ints(out, first=1))
        if got != exp:
            bad[label] = "differs from the brute-force oracle"
    return bad


def _count_of(out: str) -> int:
    return int(_rows(out)[0][1])


def _cross_errors(outputs: dict[str, str]) -> list[tuple[str, str, str]]:
    """(job, job, reason) for jobs that compute one number by independent
    paths and disagree."""
    pairs = []  # (label a, value a, label b, value b)
    o = outputs
    classes = "psquares --mode classes"
    distinct = "psquares --mode distinct"
    if "count --relation param" in o and classes in o:
        pairs.append(("count --relation param", _count_of(o["count --relation param"]),
                      classes, len(_rows(o[classes]))))
    if "count --relation param --distinct" in o and distinct in o:
        pairs.append(("count --relation param --distinct", _count_of(o["count --relation param --distinct"]),
                      distinct, len(_rows(o[distinct]))))
    if "bounds" in o:
        row = _bounds_row(o["bounds"])
        for col, other, value in (
            ("uniform_runs", f"uniform -k {K}", lambda out: len(_rows(out))),
            ("gruns", "gruns", lambda out: len(_rows(out))),
            ("classes", classes, lambda out: len(_rows(out))),
            ("table_size", "count --relation param", lambda out: int(_rows(out)[0][2])),
        ):
            if other in o:
                pairs.append(("bounds", int(row[col]), other, value(o[other])))
    return [(la, lb, f"{la} gives {va} but {lb} gives {vb}") for la, va, lb, vb in pairs if va != vb]


def check_unit(
    unit: Unit,
    outputs: dict[str, str],
    digests: dict[str, dict[str, str]] | None,
    oracle: Oracle,
) -> dict[str, str]:
    """Failure reason per job label, for the jobs that exited 0 with `outputs`."""
    from genreps.oracle import BRUTE_CAP

    bad: dict[str, str] = {}
    if unit.n <= BRUTE_CAP:
        bad.update(_oracle_errors(outputs, oracle.expected(unit)))
    for label, count in unit.closed.items():
        if label in outputs and _count_of(outputs[label]) != count:
            bad[label] = f"count {_count_of(outputs[label])} vs closed form {count}"
    if digests is not None:
        ref = digests.get(unit.key, {})
        for label, out in outputs.items():
            if ref.get(label) != digest(label, out):
                bad.setdefault(label, "output digest differs from the reference")
    for la, lb, why in _cross_errors(outputs):
        # a job already found wrong explains the disagreement; else blame both
        if la not in bad and lb not in bad:
            bad[la] = bad[lb] = why
    return bad
