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
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import counting, oracle, psquares, repeats
from .encodings import RELATIONS, ParamEncoder
from .index import ScerIndex
from .text import Text, parse_text, text_from_symbols


@dataclass
class RunConfig:
    """Flags shared by the analysis subcommands."""

    path: str = "-"
    mode: str = "bytes"
    relation: str = "param"
    k: int = 0
    periods: object = None
    fmt: str = "tsv"


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("GENREPS_THREADS", "1")))
    except ValueError:
        return 1


def _parse_periods(spec: str | None):
    if spec is None:
        return None
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return range(int(lo), int(hi) + 1)
    return int(spec)


def _config(args) -> RunConfig:
    cfg = RunConfig(
        path=args.input,
        mode="ints" if getattr(args, "ints", False) else "bytes",
        relation=getattr(args, "relation", "param"),
        k=getattr(args, "k", 0),
        periods=_parse_periods(getattr(args, "period", None)),
        fmt=getattr(args, "fmt", "tsv"),
    )
    if cfg.k < 0:
        raise ValueError("k must be >= 0")
    return cfg


def _read_text(cfg: RunConfig) -> Text:
    if cfg.path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(cfg.path, "rb") as fh:
            data = fh.read()
    return parse_text(data, cfg.mode)


def _emit(out, fmt: str, kind: str, rows) -> None:
    """rows: iterables of (a, b, period, extra[, extra_name])."""
    for rec in rows:
        if fmt == "tsv":
            out.write("\t".join(str(x) for x in (kind, *rec[:4])) + "\n")
        else:
            a, b, period, extra = rec[:4]
            name = rec[4] if len(rec) > 4 else "extra"
            payload = {"v": 1, "kind": kind, "a": a, "b": b, "period": period, name: extra}
            out.write(json.dumps(payload) + "\n")


def _add_common(sub, periods=True):
    sub.add_argument("input", help="input file path, or - for stdin")
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--bytes", action="store_true", help="one symbol per byte (default)")
    mode.add_argument("--ints", action="store_true", help="whitespace-separated integers")
    sub.add_argument("--format", choices=("tsv", "jsonl"), default="tsv", dest="fmt")
    if periods:
        sub.add_argument("--period", default=None, help="single period P or range LO:HI")


def cmd_kruns(args) -> int:
    cfg = _config(args)
    t = _read_text(cfg)
    recs = repeats.k_runs(t, cfg.k, cfg.periods)
    recs.sort(key=lambda r: (r.ell, r.a))
    _emit(sys.stdout, cfg.fmt, "krun", [(r.a, r.b, r.ell, r.k, "k") for r in recs])
    return 0


def cmd_uniform(args) -> int:
    cfg = _config(args)
    t = _read_text(cfg)
    recs = repeats.uniform_k_runs(t, cfg.k, cfg.periods)
    recs.sort(key=lambda r: (r.ell, r.a))
    _emit(
        sys.stdout,
        cfg.fmt,
        "uniform",
        [(r.a, r.b, r.ell, len(r.mismatches), "mismatches") for r in recs],
    )
    return 0


def cmd_mgr(args) -> int:
    cfg = _config(args)
    t = _read_text(cfg)
    alpha = Fraction(args.alpha) if args.alpha else None
    recs = repeats.mgrs(t, alpha, cfg.periods)
    recs.sort(key=lambda r: (r.ell, r.x))
    _emit(sys.stdout, cfg.fmt, "mgr", [(r.x, r.y, r.ell, r.arm_len, "arm_len") for r in recs])
    return 0


def cmd_gruns(args) -> int:
    cfg = _config(args)
    t = _read_text(cfg)
    recs = repeats.generalised_runs(t, cfg.periods)
    recs.sort(key=lambda r: (r.p, r.x))
    _emit(sys.stdout, cfg.fmt, "grun", [(r.x, r.y, r.p, 0) for r in recs])
    return 0


def cmd_psquares(args) -> int:
    cfg = _config(args)
    t = _read_text(cfg)
    if args.mode == "classes":
        report = psquares.report_nonequivalent(t)
        enc = ParamEncoder(t) if t.n else None
        for start, length in report.occurrences:
            canon = [enc.code(start, j) for j in range(start, start + length // 2)]
            if cfg.fmt == "tsv":
                print(f"{start}\t{length}\t{','.join(map(str, canon))}")
            else:
                print(json.dumps({"v": 1, "start": start, "length": length, "canon": canon}))
    else:
        report = psquares.report_distinct(t)
        for start, length in report.occurrences:
            if cfg.fmt == "tsv":
                print(f"{start}\t{length}")
            else:
                print(json.dumps({"v": 1, "start": start, "length": length}))
    return 0


def cmd_count(args) -> int:
    cfg = _config(args)
    t = _read_text(cfg)
    rels = RELATIONS if cfg.relation == "all" else (cfg.relation,)
    for relation in rels:
        t0 = time.perf_counter()
        if t.n < 2:
            cnt, size, osc = 0, 0, 0
        else:
            index = ScerIndex(t, relation)
            table = counting.squares_table(index)
            lpf = index.lpf()
            osc = int(sum(abs(int(lpf[i + 1]) - int(lpf[i])) for i in range(1, t.n)))
            if args.distinct:
                cnt = counting.count_distinct(t, relation, index=index, table=table)
            else:
                cnt = counting.count_nonequivalent(t, relation, index=index, table=table)
            size = table.size
        wall = time.perf_counter() - t0
        if cfg.fmt == "tsv":
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
    if "runs" in metrics:
        cnt = repeats.count_uniform_k_runs(t, k)
        row["uniform_runs"] = cnt
        row["uniform_ratio"] = (
            cnt / (n * k * (math.log(2 * k + 1) + 1)) if k >= 1 else ""
        )
    if "mgr" in metrics:
        recs = repeats.mgrs(t)
        ratios = []
        for alpha in range(2, 2 * k + 3):
            cum = sum(1 for r in recs if r.ell <= alpha * r.arm_len)
            ratios.append(cum / (13 * n * alpha))
        row["mgr_ratio_max"] = max(ratios) if ratios else ""
    if "gruns" in metrics:
        g = len(repeats.generalised_runs(t))
        row["gruns"] = g
        row["grun_ratio"] = g / (1.5 * n)
    if "table" in metrics or "classes" in metrics:
        index = ScerIndex(t, "param")
        table = counting.squares_table(index)
        if "table" in metrics:
            row["table_size"] = table.size
            row["table_ratio"] = table.size / (n * math.log2(n)) if n > 1 else ""
        if "classes" in metrics:
            classes = counting.count_nonequivalent(t, "param", index=index, table=table)
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


def cmd_bounds(args) -> int:
    metrics = set(args.metrics.split(","))
    ns = [int(x) for x in args.n.split(",")]
    ks = [int(x) for x in args.k_list.split(",")]
    sigmas = [int(x) for x in args.sigma_list.split(",")]
    print(",".join(_BOUNDS_COLS))
    jobs = [
        (n, k, sigma, trial, args.seed, metrics)
        for n in ns
        for k in ks
        for sigma in sigmas
        for trial in range(args.trials)
    ]
    rows = _starmap(_bounds_row, jobs, args.threads)
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
    if args.max_n > args.cap:
        print(f"error: --max-n {args.max_n} exceeds the oracle cap {args.cap}", file=sys.stderr)
        return 2
    sigmas = [int(x) for x in args.sigma_list.split(",")]
    ks = [int(x) for x in args.k_list.split(",")]
    jobs = [(trial, args.seed, args.max_n, sigmas, ks) for trial in range(args.trials)]
    results = _starmap(_verify_trial, jobs, args.threads)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genreps",
        description="Generalized repetitions: k-mismatch runs, gapped repeats, "
        "and squares under substring-consistent equivalence relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kruns", help="maximal k-runs per period")
    _add_common(p)
    p.add_argument("-k", type=int, default=0)
    p.set_defaults(func=cmd_kruns)

    p = sub.add_parser("uniform", help="maximal uniform k-runs per period")
    _add_common(p)
    p.add_argument("-k", type=int, default=0)
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
    p.add_argument("--k-list", default="3", help="comma-separated k values")
    p.add_argument("--sigma-list", default="4", help="comma-separated alphabet sizes")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metrics", default="runs,mgr,gruns")
    p.add_argument("--threads", type=int, default=_default_threads())
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="compare efficient paths against oracles")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--max-n", type=int, default=64)
    p.add_argument("--sigma-list", default="2,3,4,5")
    p.add_argument("--k-list", default="0,1,2,3,4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=oracle.BRUTE_CAP)
    p.add_argument("--threads", type=int, default=_default_threads())
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
