"""Command-line interface.

Subcommands: kruns, uniform, mgr, gruns (repeat enumeration), psquares
(p-square reporting), count (square counting per relation), bounds
(empirical count-bound harness), verify (randomized oracle comparison).
Identical configuration and seed produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error,
3 internal error (a failed invariant check).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

import numpy as np

from . import counting, oracle, psquares, repeats
from .encodings import RELATIONS, ParamEncoder
from .index import ScerIndex
from .text import Text, parse_text, text_from_symbols


def _int_list(spec: str) -> list[int]:
    return [int(x) for x in spec.split(",")]


def _parse_flag(flag: str, spec: str, convert=_int_list, what: str = "comma-separated integers"):
    """convert(spec); a usage error naming the flag if that raises ValueError,
    or divides by zero as Fraction("1/0") does."""
    try:
        return convert(spec)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} must be {what}, got {spec!r}") from None


def _positive_fraction(spec: str) -> Fraction:
    value = Fraction(spec)
    if value <= 0:
        raise ValueError(spec)
    return value


def _parse_periods(spec: str | None):
    """None, the period P or the range LO:HI; a usage error unless 1 <= P, 1 <= LO <= HI."""
    if spec is None:
        return None
    bounds = _parse_flag(
        "--period", spec, lambda s: [int(x) for x in s.split(":", 1)], "an integer P or a range LO:HI"
    )
    _check_ranges(("--period", bounds, 1), ("--period", bounds[-1:], bounds[0]))
    return bounds[0] if len(bounds) == 1 else range(bounds[0], bounds[1] + 1)


def _check_ranges(*checks) -> None:
    """Usage error naming the first (flag, values, least) with a value below least."""
    for flag, values, least in checks:
        if min(values) < least:
            raise ValueError(f"{flag} must be >= {least}, got {min(values)}")


def _threads(args) -> int:
    """--threads, else GENREPS_THREADS read now, else 1; a usage error naming
    the one that is set unless it is an integer >= 1."""
    if args.threads is not None:
        _check_ranges(("--threads", [args.threads], 1))
        return args.threads
    spec = os.environ.get("GENREPS_THREADS")
    if spec is None:
        return 1
    threads = _parse_flag("GENREPS_THREADS", spec, int, "an integer")
    _check_ranges(("GENREPS_THREADS", [threads], 1))
    return threads


def _read_text(args) -> Text:
    if args.input == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(args.input, "rb") as fh:
            data = fh.read()
    return parse_text(data, "ints" if args.ints else "bytes")


def _emit(out, fmt: str, kind: str, extra: str, rows) -> None:
    """Write one line per row (a, b, period, value) of ints, tsv or jsonl
    (the value under the key `extra`), all in one write."""
    if fmt == "tsv":
        lines = [f"{kind}\t{a}\t{b}\t{p}\t{v}\n" for a, b, p, v in rows]
    else:
        head = f'{{"v": 1, "kind": {json.dumps(kind)}, "a": '
        key = json.dumps(extra)
        lines = [f'{head}{a}, "b": {b}, "period": {p}, {key}: {v}}}\n' for a, b, p, v in rows]
    out.write("".join(lines))


def _add_common(sub, periods=True):
    sub.add_argument("input", help="input file path, or - for stdin")
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--bytes", action="store_true", help="one symbol per byte (default)")
    mode.add_argument("--ints", action="store_true", help="whitespace-separated integers")
    sub.add_argument("--format", choices=("tsv", "jsonl"), default="tsv", dest="fmt")
    if periods:
        sub.add_argument("--period", default=None, help="single period P or range LO:HI")


def cmd_kruns(args) -> int:
    _check_ranges(("-k", [args.k], 0))
    periods = _parse_periods(args.period)
    t = _read_text(args)
    recs = repeats.k_runs(t, args.k, periods)
    _emit(sys.stdout, args.fmt, "krun", "k", [(r.a, r.b, r.ell, r.k) for r in recs])
    return 0


def cmd_uniform(args) -> int:
    _check_ranges(("-k", [args.k], 0))
    periods = _parse_periods(args.period)
    t = _read_text(args)
    recs = repeats.uniform_k_runs(t, args.k, periods)
    _emit(
        sys.stdout,
        args.fmt,
        "uniform",
        "mismatches",
        [(r.a, r.b, r.ell, len(r.mismatches)) for r in recs],
    )
    return 0


def cmd_mgr(args) -> int:
    alpha = None if args.alpha is None else _parse_flag("--alpha", args.alpha, _positive_fraction, "a number > 0")
    periods = _parse_periods(args.period)
    t = _read_text(args)
    recs = repeats.mgrs(t, alpha, periods)
    _emit(sys.stdout, args.fmt, "mgr", "arm_len", [(r.x, r.y, r.ell, r.arm_len) for r in recs])
    return 0


def cmd_gruns(args) -> int:
    periods = _parse_periods(args.period)
    t = _read_text(args)
    recs = repeats.generalised_runs(t, periods)
    _emit(sys.stdout, args.fmt, "grun", "extra", [(r.x, r.y, r.p, 0) for r in recs])
    return 0


def cmd_psquares(args) -> int:
    t = _read_text(args)
    if args.mode == "classes":
        table = counting.squares_table(ScerIndex(t, encoder=ParamEncoder(t)))
        report = psquares.report_nonequivalent(t, table=table)
        enc = table.index.encoder
        # occurrences come sorted by length: one code block per length
        for length, occs in itertools.groupby(report.occurrences, key=lambda oc: oc[1]):
            starts = [start for start, _ in occs]
            block = enc.code_block(np.array(starts), 0, length // 2).tolist()
            for start, canon in zip(starts, block):
                if args.fmt == "tsv":
                    print(f"{start}\t{length}\t{','.join(map(str, canon))}")
                else:
                    print(json.dumps({"v": 1, "start": start, "length": length, "canon": canon}))
    else:
        report = psquares.report_distinct(t)
        for start, length in report.occurrences:
            if args.fmt == "tsv":
                print(f"{start}\t{length}")
            else:
                print(json.dumps({"v": 1, "start": start, "length": length}))
    return 0


def cmd_count(args) -> int:
    t = _read_text(args)
    rels = RELATIONS if args.relation == "all" else (args.relation,)
    exact_index = None  # exact comes first in RELATIONS: one exact index per run
    for relation in rels:
        t0 = time.perf_counter()
        table = counting.squares_table(ScerIndex(t, relation))
        if relation == "exact":
            exact_index = table.index
        osc = int(np.abs(np.diff(table.index.lpf()[1:])).sum())
        if args.distinct:
            cnt = counting.count_distinct(t, relation, table=table, exact_index=exact_index)
        else:
            cnt = counting.count_nonequivalent(t, relation, table=table)
        size = table.size
        wall = time.perf_counter() - t0
        if args.fmt == "tsv":
            print(f"{relation}\t{cnt}\t{size}\t{osc}\t{wall:.3f}")
        else:
            print(
                json.dumps(
                    {
                        "v": 1,
                        "relation": relation,
                        "count": cnt,
                        "table_size": size,
                        "oscillation": osc,
                        "wall_s": round(wall, 3),
                    }
                )
            )
    return 0


def _random_text(rng: random.Random, n: int, sigma: int) -> Text:
    return text_from_symbols([rng.randrange(sigma) for _ in range(n)])


def _starmap(func, jobs: list[tuple], threads: int) -> list:
    """[func(*job) for job in jobs], on a pool of at most one worker per job."""
    if threads > 1 and jobs:
        from multiprocessing import Pool

        with Pool(min(threads, len(jobs))) as pool:
            return pool.starmap(func, jobs)
    return [func(*job) for job in jobs]


def _bounds_row(n: int, k: int, sigma: int, trial: int, seed: int, metrics) -> list[str]:
    rng = random.Random(seed * 1_000_003 + trial)
    t = _random_text(rng, n, sigma)
    row: dict[str, object] = {"n": n, "k": k, "sigma": sigma, "trial": trial}
    # one jump index for every repeat metric of the row
    jumps = repeats.jump_index(t) if metrics & {"runs", "mgr", "gruns"} else None
    if "runs" in metrics:
        cnt = repeats.count_uniform_k_runs(t, k, index=jumps)
        row["uniform_runs"] = cnt
        row["uniform_ratio"] = (
            cnt / (n * k * (math.log(2 * k + 1) + 1)) if k >= 1 else ""
        )
    if "mgr" in metrics:
        recs = repeats.mgrs(t, 2 * k + 2, index=jumps)  # the largest alpha counted below
        ratios = []
        for alpha in range(2, 2 * k + 3):
            cum = sum(1 for r in recs if r.ell <= alpha * r.arm_len)
            ratios.append(cum / (13 * n * alpha))
        row["mgr_ratio_max"] = max(ratios) if ratios else ""
    if "gruns" in metrics:
        g = len(repeats.generalised_runs(t, index=jumps))
        row["gruns"] = g
        row["grun_ratio"] = g / (1.5 * n)
    if "table" in metrics or "classes" in metrics:
        table = counting.squares_table(ScerIndex(t, "param"))
        if "table" in metrics:
            row["table_size"] = table.size
            row["table_ratio"] = table.size / (n * math.log2(n)) if n > 1 else ""
        if "classes" in metrics:
            classes = counting.count_nonequivalent(t, "param", table=table)
            row["classes"] = classes
            row["class_ratio"] = classes / (n * sigma)
    return [str(row.get(col, "")) for col in _BOUNDS_COLS]


_BOUNDS_COLS = [
    "n",
    "k",
    "sigma",
    "trial",
    "uniform_runs",
    "uniform_ratio",
    "mgr_ratio_max",
    "gruns",
    "grun_ratio",
    "table_size",
    "table_ratio",
    "classes",
    "class_ratio",
]


_METRICS = ("runs", "mgr", "gruns", "table", "classes")


def _metric_set(spec: str) -> set[str]:
    metrics = set(spec.split(","))
    if not metrics <= set(_METRICS):
        raise ValueError(spec)
    return metrics


def cmd_bounds(args) -> int:
    metrics = _parse_flag(
        "--metrics", args.metrics, _metric_set, "comma-separated names from " + ",".join(_METRICS)
    )
    ns = _parse_flag("--n", args.n)
    ks = _parse_flag("--k-list", args.k_list)
    sigmas = _parse_flag("--sigma-list", args.sigma_list)
    _check_ranges(
        ("--n", ns, 1),
        ("--k-list", ks, 0),
        ("--sigma-list", sigmas, 1),
        ("--trials", [args.trials], 1),
    )
    threads = _threads(args)
    print(",".join(_BOUNDS_COLS))
    jobs = [
        (n, k, sigma, trial, args.seed, metrics)
        for n in ns
        for k in ks
        for sigma in sigmas
        for trial in range(args.trials)
    ]
    rows = _starmap(_bounds_row, jobs, threads)
    for row in rows:
        print(",".join(row))
    return 0


def _verify_trial(trial: int, seed: int, max_n: int, sigmas, ks) -> list[str]:
    rng = random.Random(seed * 7_777_777 + trial)
    n = rng.randint(0, max_n)
    sigma = rng.choice(sigmas)
    t = _random_text(rng, n, sigma)
    k = rng.choice(ks)
    return oracle.verify_text(t, ks=(k,), relations=RELATIONS)


def cmd_verify(args) -> int:
    if args.max_n > oracle.BRUTE_CAP:
        print(f"error: --max-n {args.max_n} exceeds the oracle cap {oracle.BRUTE_CAP}", file=sys.stderr)
        return 2
    sigmas = _parse_flag("--sigma-list", args.sigma_list)
    ks = _parse_flag("--k-list", args.k_list)
    _check_ranges(
        ("--trials", [args.trials], 1),
        ("--max-n", [args.max_n], 0),
        ("--sigma-list", sigmas, 1),
        ("--k-list", ks, 0),
    )
    threads = _threads(args)
    jobs = [(trial, args.seed, args.max_n, sigmas, ks) for trial in range(args.trials)]
    results = _starmap(_verify_trial, jobs, threads)
    failures = [msg for msgs in results for msg in msgs]
    suites = sorted({msg.split(":")[0] for msg in failures})
    print(f"texts\t{args.trials}")
    print(f"failures\t{len(failures)}")
    for suite in suites:
        print(f"fail\t{suite}")
    for msg in failures[:50]:
        print(f"detail\t{msg}")
    print("result\t" + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


_K_HELP = (
    "the runs come from O(nk log n) sampled LCE jumps, meant for small k: the "
    "paper's O(nk log k) bound on their number is informative only for k log k "
    "well below n (see the README for timings as k grows)"
)

_THREADS_HELP = "worker processes (default: GENREPS_THREADS when set, else 1)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genreps",
        description="Generalized repetitions: k-mismatch runs, gapped repeats, "
        "and squares under substring-consistent equivalence relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kruns", help="maximal k-runs per period")
    _add_common(p)
    p.add_argument("-k", type=int, default=0, help="mismatches allowed; " + _K_HELP)
    p.set_defaults(func=cmd_kruns)

    p = sub.add_parser("uniform", help="maximal uniform k-runs per period")
    _add_common(p)
    p.add_argument("-k", type=int, default=0, help="mismatches allowed; " + _K_HELP)
    p.set_defaults(func=cmd_uniform)

    p = sub.add_parser("mgr", help="maximal gapped repeats")
    _add_common(p)
    p.add_argument("--alpha", default=None, help="keep only gap ratio <= ALPHA")
    p.set_defaults(func=cmd_mgr)

    p = sub.add_parser("gruns", help="generalised runs")
    _add_common(p)
    p.set_defaults(func=cmd_gruns)

    p = sub.add_parser("psquares", help="report parameterized squares")
    _add_common(p, periods=False)
    p.add_argument("--mode", choices=("classes", "distinct"), default="classes")
    p.set_defaults(func=cmd_psquares)

    p = sub.add_parser("count", help="count squares under a relation")
    _add_common(p, periods=False)
    p.add_argument("--relation", choices=(*RELATIONS, "all"), default="param")
    p.add_argument("--distinct", action="store_true", help="count distinct strings")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("bounds", help="empirical count-bound harness (CSV)")
    p.add_argument("--n", default="1000", help="comma-separated text lengths")
    p.add_argument("--k-list", default="3", help="comma-separated k values; " + _K_HELP)
    p.add_argument("--sigma-list", default="4", help="comma-separated alphabet sizes")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metrics", default="runs,mgr,gruns")
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="compare efficient paths against oracles")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--max-n", type=int, default=64)
    p.add_argument("--sigma-list", default="2,3,4,5")
    p.add_argument("--k-list", default="0,1,2,3,4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    p.set_defaults(func=cmd_verify)

    return parser


# built on the first call of `main` and reused by every later one, since
# parse_args leaves a parser as it was
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc or 'failed invariant check'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
