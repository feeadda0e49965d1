"""Workloads of the genreps benchmark: pooled input texts and their CLI jobs.

Every workload is a list of slots.  A slot names one kind of input text
(size, alphabet, structure) and the CLI jobs run on it; it owns a small
fixed pool of text variants.  A run takes one variant per slot, chosen
from its seed, so the same seed always gives the same inputs while every
run has the same composition.
Pooling is also what lets every job output be compared with a digest
recorded at the commit that defined the benchmark (digests.json).

Random texts that a `bounds` job also sees are drawn with the CLI's own
`bounds` recipe (random.Random(seed * 1_000_003 + trial)), so the bounds
counts cross-check the other jobs run on the same text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

RELATIONS = ("exact", "param", "op", "ct", "pal")
K = 2  # k of the kruns/uniform/bounds jobs
BOUNDS_METRICS = "runs,gruns,table,classes"
POOL = 6  # variants per slot


@dataclass(frozen=True)
class Job:
    label: str  # subcommand and flags, without the input path
    kind: str  # metric bucket: count.<relation>, psquares, repeats or bounds
    args: tuple[str, ...]  # argv after the subcommand's input path


@dataclass(frozen=True)
class Unit:
    """One input text of one slot variant and the jobs run on it."""

    key: str  # pool identity, e.g. "count-random/large-param/3"
    symbols: tuple[int, ...]
    jobs: tuple[Job, ...]
    closed: dict[str, int] = field(default_factory=dict)  # job label -> exact count

    @property
    def n(self) -> int:
        return len(self.symbols)

    def argv(self, job: Job, path: str) -> list[str]:
        if job.kind == "bounds":
            return list(job.args)
        return [job.args[0], path, "--ints", *job.args[1:]]


def _job(kind: str, *args: str) -> Job:
    return Job(" ".join(args), kind, args)


def count_jobs(relation: str) -> list[Job]:
    return [
        _job(f"count.{relation}", "count", "--relation", relation),
        _job(f"count.{relation}", "count", "--relation", relation, "--distinct"),
    ]


PSQ_JOBS = [
    _job("psquares", "psquares", "--mode", "classes"),
    _job("psquares", "psquares", "--mode", "distinct"),
]
REPEAT_JOBS = [
    _job("repeats", "kruns", "-k", str(K)),
    _job("repeats", "uniform", "-k", str(K)),
    _job("repeats", "mgr", "--alpha", "3"),
    _job("repeats", "gruns"),
]


def bounds_job(n: int, sigma: int, seed: int) -> Job:
    args = (
        "bounds", "--n", str(n), "--k-list", str(K), "--sigma-list", str(sigma),
        "--seed", str(seed), "--trials", "1", "--metrics", BOUNDS_METRICS,
        "--threads", "1",
    )
    return Job("bounds", "bounds", args)


def bounds_text(n: int, sigma: int, seed: int) -> tuple[int, ...]:
    """The text `genreps bounds --n n --sigma-list sigma --seed seed` draws
    for trial 0."""
    rng = random.Random(seed * 1_000_003)
    return tuple(rng.randrange(sigma) for _ in range(n))


def _random_unit(key: str, n: int, sigma: int, jobs: list[Job]) -> Unit:
    rng = random.Random(key)
    return Unit(key, tuple(rng.randrange(sigma) for _ in range(n)), tuple(jobs))


def _bounds_unit(key: str, n: int, sigma: int, seed: int, jobs: list[Job]) -> Unit:
    return Unit(key, bounds_text(n, sigma, seed), (*jobs, bounds_job(n, sigma, seed)))


def full_jobs() -> list[Job]:
    """The whole CLI job set except `bounds`, which needs the bounds recipe."""
    return [j for r in RELATIONS for j in count_jobs(r)] + PSQ_JOBS + REPEAT_JOBS


# --------------------------------------------------------------------------
# periodic families


def fibonacci_word(n: int) -> list[int]:
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


FIBONACCI = [1, 2]
while FIBONACCI[-1] < 10**5:
    FIBONACCI.append(FIBONACCI[-1] + FIBONACCI[-2])


def fibonacci_counts(n: int) -> dict[str, int]:
    """Closed-form square counts of the Fibonacci word of length F_k.

    Distinct squares (exact, both modes): 2 (F_{k-2} - 1), Fraenkel and
    Simpson 1999.  Non-equivalent squares under param/op/ct/pal: 2 F_{k-2},
    a pattern checked against the brute-force oracle for F_k in 21..144.
    """
    k = FIBONACCI.index(n)
    f2 = FIBONACCI[k - 2]
    out = {
        "count --relation exact": 2 * (f2 - 1),
        "count --relation exact --distinct": 2 * (f2 - 1),
    }
    for rel in ("param", "op", "ct", "pal"):
        out[f"count --relation {rel}"] = 2 * f2
    return out


def _periodic_unit(key: str, family: str, n: int, jobs: list[Job]) -> Unit:
    """A periodic text with seeded symbol labels (labels order op/ct codes)."""
    rng = random.Random(key)
    labels = rng.sample(range(100), 3)
    if family == "unary":
        base = [0] * n
    elif family == "p2":
        base = [i % 2 for i in range(n)]
    elif family == "p3":
        base = [i % 3 for i in range(n)]
    else:
        base = fibonacci_word(n)
    closed: dict[str, int] = {}
    if family == "unary":
        closed = {j.label: n // 2 for j in jobs if j.kind.startswith("count.")}
    elif family == "fib" and n in FIBONACCI:
        closed = {lab: v for lab, v in fibonacci_counts(n).items() if lab in {j.label for j in jobs}}
    return Unit(key, tuple(labels[c] for c in base), tuple(jobs), closed=closed)


# --------------------------------------------------------------------------
# workloads
#
# Slots come in four groups, named in each unit's key.  Each workload runs
# two groups, chosen so that every end-to-end metric has real work on both
# workloads while the two stress different paths: large random texts on
# one, periodic and small texts on the other.


def _count_random():
    # exact/param/ct: "small" texts stay below counting._NUMPY_MIN_NODES
    # (20 000 tree nodes, ~1.3n..2n nodes), "large" ones sit above it for
    # their alphabet.  Large texts run count without --distinct only: both
    # modes build the same table, and --distinct's extra exact index is
    # measured on the small texts.  op/pal texts take the generic
    # comparator (n > 256).
    def rnd(name, n, sigma, jobs):
        return name, lambda v: _random_unit(f"count-random/{name}/{v}", n, sigma, jobs)

    return [
        rnd("small-exact", 5000, 4, count_jobs("exact")),
        rnd("small-param", 5000, 26, count_jobs("param")),
        rnd("small-ct", 5000, 4, count_jobs("ct")),
        rnd("large-exact", 11000, 2, count_jobs("exact")[:1]),
        rnd("large-param", 11000, 2, count_jobs("param")[:1]),
        rnd("large-ct", 13000, 2, count_jobs("ct")[:1]),
        rnd("op", 800, 26, count_jobs("op")),
        rnd("pal", 500, 4, count_jobs("pal")),
    ]


def _psq_repeats():
    # random texts where psquares, the repeat enumerators and the recency
    # profiles do most of the work; bounds runs on the same text
    def psq(name, n, sigma, seed0):
        return name, lambda v: _bounds_unit(
            f"psq-repeats/{name}/{v}", n, sigma, seed0 + v, PSQ_JOBS + REPEAT_JOBS
        )

    return [psq("sigma2", 1600, 2, 100), psq("sigma4", 1600, 4, 200)]


def _count_periodic():
    # Every text is just above index._SMALL_N, so each relation takes its
    # large-n sort: the clip-family MSD blocks for param/ct (Fibonacci:
    # F_14 = 377) and the O(LCP^2) comparator for op/pal.
    def per(name, family, n, jitter, jobs):
        def make(v):
            key = f"count-periodic/{name}/{v}"
            size = n + random.Random(key).randint(0, jitter)
            return _periodic_unit(key, family, size, jobs)

        return name, make

    big = count_jobs("exact") + count_jobs("param") + count_jobs("ct")
    slots = [per(f"{fam}-epc", fam, 380, 16, big) for fam in ("unary", "p2", "p3")]
    slots.append(per("fib-epc", "fib", 377, 0, big))
    slots += [per(f"{fam}-op", fam, 264, 8, count_jobs("op")) for fam in ("unary", "p3")]
    slots.append(per("unary-pal", "unary", 264, 8, count_jobs("pal")))
    return slots


SMALL_STRATA = 8
SMALL_SIGMAS = (2, 3, 4, 26)


def _small_batch():
    # Every job on each text.  n is uniform over [2, 401], drawn
    # stratified: slot i covers [2 + 50i, 51 + 50i], so every run spans the
    # same size range and straddles index._SMALL_N, repeats._NUMPY_MIN_N,
    # _MinTable._SCAN_MAX and encodings._SCAN_MAX_N.  Texts up to
    # oracle.BRUTE_CAP are checked against the brute-force oracle.
    def small(i):
        def make(v):
            key = f"small-batch/n{i}/{v}"
            rng = random.Random(key)
            n = rng.randint(2 + 50 * i, 51 + 50 * i)
            sigma = SMALL_SIGMAS[i % len(SMALL_SIGMAS)]
            return _bounds_unit(key, n, sigma, 10_000 + 100 * i + v, full_jobs())

        return f"n{i}", make

    return [small(i) for i in range(SMALL_STRATA)]


WORKLOADS = {
    "large-random": lambda: _count_random() + _psq_repeats(),
    "small-periodic": lambda: _count_periodic() + _small_batch(),
}


class Pool:
    """Lazily built units of one workload, with their input files."""

    def __init__(self, workload: str, workdir: Path):
        self.slots = WORKLOADS[workload]()
        self.workdir = workdir
        self._units: dict[tuple[int, int], tuple[Unit, str]] = {}

    def unit(self, slot: int, variant: int) -> tuple[Unit, str]:
        """The unit and the path of its input file."""
        got = self._units.get((slot, variant))
        if got is None:
            unit = self.slots[slot][1](variant)
            path = self.workdir / (unit.key.replace("/", "__") + ".txt")
            path.write_text(" ".join(map(str, unit.symbols)) + "\n")
            got = self._units[(slot, variant)] = (unit, str(path))
        return got

    def all_units(self):
        for s in range(len(self.slots)):
            for v in range(POOL):
                yield self.unit(s, v)


def run_plan(workload: str, seed: int) -> list[tuple[int, int]]:
    """(slot, variant) of every unit a run uses, drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [(s, rng.randrange(POOL)) for s in range(len(WORKLOADS[workload]()))]
