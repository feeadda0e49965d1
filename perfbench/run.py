"""The genreps benchmark: CLI job times per relation and subcommand.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the real CLI (genreps.cli.main, in this process) on generated input
files: one pass runs every job of the run's units (jobs.py), and passes
repeat for about S seconds.  Every job's output is checked (checks.py).
The last line of stdout is one JSON object.  With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json, built from each job's fastest time
over the passes, scaled to a reference host speed; with --trace 1 every
other pass is traced, and it reports the per-layer metrics (self times and
counts from spans.py) plus the tracing overhead.  A summary with quartiles and sample counts goes to stderr.

The benchmark imports genreps from the src/ directory next to perfbench/
and fails without a result if it is missing.  It starts no worker
processes; the only children are the short `import genreps.cli`
interpreters that time set-up, each waited for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 5

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"),
    ("count.exact_s", "s"), ("count.param_s", "s"), ("count.op_s", "s"),
    ("count.ct_s", "s"), ("count.pal_s", "s"),
    ("psquares_s", "s"), ("repeats_s", "s"),
    ("text_p50_ms", "ms"), ("text_p90_ms", "ms"), ("peak_rss_mib", "MiB"),
]


def import_genreps():
    """Import genreps from this checkout's src/, never from elsewhere."""
    if not (SRC / "genreps" / "cli.py").is_file():
        raise SystemExit(f"error: no genreps sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import genreps.cli

    if Path(genreps.cli.__file__).resolve().parent != SRC / "genreps":
        raise SystemExit(f"error: genreps imported from {genreps.cli.__file__}, not {SRC}")
    return genreps.cli


# Host speed.  On a shared host the same job's wall time swings by up to
# 2x as neighbours load the cores, in bursts within a pass and in phases
# that outlast a run.  A job's time in a run is therefore its fastest time
# over the passes, scaled to a reference host speed: multiplied by
# CAL_REF_S over the fastest time of a fixed calibration kernel, which the
# run times before and after every unit.  Across contention levels, log job
# time follows log kernel time with slope ~1, and the two minima are taken
# over the same stretch of time, so the ratio is the job's cost at the
# reference speed.
CAL_REF_S = 0.012
_rng = random.Random(0)
_CAL_LIST = [_rng.randrange(1 << 20) for _ in range(60000)]
_CAL_KEYS = [(_rng.randrange(1000), _rng.randrange(1000)) for _ in range(4000)]
_CAL_ARR = np.asarray(_CAL_LIST, dtype=np.int64)


def calibrate() -> float:
    """Wall seconds of a fixed mix of the work the CLI does: list indexing,
    dicts, sorting, many small numpy calls and one large one."""
    t0 = time.perf_counter()
    n = len(_CAL_LIST)
    acc = 0
    for i in range(0, n, 3):
        acc += _CAL_LIST[_CAL_LIST[i] % n] & 7
    counts: dict = {}
    for k in _CAL_KEYS:
        counts[k] = counts.get(k, 0) + 1
    sorted(_CAL_KEYS)
    for i in range(0, 10_000, 40):
        a = _CAL_ARR[i : i + 40]
        acc += int((a[(a > 5000) & (a < 900_000)] + 1).sum())
    np.argsort(_CAL_ARR, kind="stable")
    return time.perf_counter() - t0


def time_setup(cals: list[float]) -> list[float]:
    """Wall seconds of fresh interpreters that only `import genreps.cli`;
    appends the calibrations taken around them to `cals`."""
    env = {k: v for k, v in os.environ.items() if k != "GENREPS_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    out = []
    cals.append(calibrate())
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import genreps.cli"], env=env, cwd=ROOT, check=True)
        out.append(time.perf_counter() - t0)
        cals.append(calibrate())
    return out


def run_job(main, argv: list[str]) -> tuple[float, str | None, str]:
    """(wall seconds, failure reason or None, stdout) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    reason = None
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        rc, reason = None, f"raised {exc!r}"
    dt = time.perf_counter() - t0
    if reason is None and rc not in (0, None):
        reason = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    return dt, reason, out.getvalue()


class Pass:
    """Job times and failures of one pass over the run's units."""

    def __init__(self):
        self.times: list[list[float]] = []  # [unit][job] wall seconds
        self.cals: list[float] = []  # calibration times, before and after each unit
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []  # (unit key, job label, reason)


def run_pass(units, main, digests, oracle) -> Pass:
    from checks import check_unit

    done = Pass()
    done.cals.append(calibrate())
    for unit, path in units:
        outputs: dict[str, str] = {}
        bad: dict[str, str] = {}
        times = []
        for job in unit.jobs:
            dt, reason, out = run_job(main, unit.argv(job, path))
            times.append(dt)
            if reason is None:
                outputs[job.label] = out
            else:
                bad[job.label] = reason
        done.cals.append(calibrate())
        done.times.append(times)
        done.attempted += len(unit.jobs)
        bad.update(check_unit(unit, outputs, digests, oracle))
        done.failures += [(unit.key, label, why) for label, why in sorted(bad.items())]
    return done


def job_minima(passes: list[Pass]) -> list[list[float]]:
    """Per unit and job, its fastest wall time over the passes."""
    return [
        [min(p.times[u][j] for p in passes) for j in range(len(row))]
        for u, row in enumerate(passes[0].times)
    ]


def speed_scale(cals: list[float]) -> float:
    """Factor from this run's fastest host state to the reference speed."""
    return CAL_REF_S / min(cals)


def quantiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def summarize(name: str, unit: str, value: float, samples: list[float]) -> None:
    q1, q2, q3 = quantiles(samples)
    print(f"{name}\t{value:.6g} {unit}\tsamples: median={q2:.6g} q1={q1:.6g} q3={q3:.6g} "
          f"n={len(samples)}", file=sys.stderr)


KINDS = ("count.exact", "count.param", "count.op", "count.ct", "count.pal", "psquares", "repeats")


def end_to_end(units, passes: list[Pass], setup: list[float], scale: float) -> dict[str, float]:
    """Time metrics are sums of per-job minima, scaled to the reference speed."""

    def total(times, kind=None):
        return scale * sum(t for (unit, _), row in zip(units, times)
                           for job, t in zip(unit.jobs, row) if kind in (None, job.kind))

    best = job_minima(passes)
    print(f"speed scale\t{scale:.6g}\tunscaled wall_s {total(best) / scale:.6g} s", file=sys.stderr)
    metrics = {"setup_s": scale * statistics.median(setup), "wall_s": total(best)}
    summarize("setup_s", "s", metrics["setup_s"], [scale * t for t in setup])
    summarize("wall_s", "s", metrics["wall_s"], [total(p.times) for p in passes])
    for kind in KINDS:
        metrics[f"{kind}_s"] = total(best, kind)
        summarize(f"{kind}_s", "s", metrics[f"{kind}_s"], [total(p.times, kind) for p in passes])
    texts = [scale * sum(row) * 1000 for row in best]
    metrics["text_p50_ms"] = percentile(texts, 50)
    metrics["text_p90_ms"] = percentile(texts, 90)
    print(f"text_ms\tp50={metrics['text_p50_ms']:.6g} p90={metrics['text_p90_ms']:.6g} "
          f"q1={percentile(texts, 25):.6g} q3={percentile(texts, 75):.6g} texts={len(texts)}",
          file=sys.stderr)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_layer(traced: list[dict[str, float]], overhead: float) -> dict[str, float]:
    from spans import RATIOS, layer_names

    metrics: dict[str, float] = {}
    for name, _ in layer_names():
        if name in RATIOS:
            num, den = RATIOS[name]
            total_den = sum(t.get(den, 0.0) for t in traced)
            metrics[name] = sum(t.get(num, 0.0) for t in traced) / total_den if total_den else 0.0
        elif name == "trace.overhead_s":
            metrics[name] = overhead
        else:
            metrics[name] = statistics.median(t.get(name, 0.0) for t in traced)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("GENREPS_THREADS", None)  # bounds gets --threads 1 as well
    cli = import_genreps()
    from checks import Oracle, load_digests
    from jobs import WORKLOADS, Pool, run_plan
    from spans import Tracer, layer_names, layer_totals

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    t_setup = time.perf_counter()
    cals: list[float] = []
    setup = time_setup(cals)
    inputs = WORKDIR / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    pool = Pool(args.workload, inputs)
    digests = load_digests()
    oracle = Oracle()
    units = [pool.unit(slot, variant) for slot, variant in run_plan(args.workload, args.seed)]
    print(f"set-up {time.perf_counter() - t_setup:.2f} s", file=sys.stderr)
    gc.freeze()  # run_job's collections then only walk objects the jobs made

    # Passes repeat the same units until the time is up; with --trace 1
    # every other pass is traced.
    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict[str, float]] = []
    tracer = Tracer()
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # Passes take turns on the cores: a neighbour slowing one core then
        # slows only some executions of a job, and job_minima drops those.
        os.sched_setaffinity(0, {cpus[(len(plain) + len(traced)) % len(cpus)]})
        if args.trace and len(traced) < len(plain):
            first = len(tracer.spans)
            tracer.install()
            try:
                traced.append(run_pass(units, tracer.cli_main(cli.main), digests, oracle))
            finally:
                tracer.uninstall()
            layers.append(layer_totals(tracer.spans[first:]))
        else:
            plain.append(run_pass(units, cli.main, digests, oracle))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > args.seconds and len(traced) >= args.trace:
            break
    os.sched_setaffinity(0, cpus)
    scale = speed_scale(cals + [c for p in plain + traced for c in p.cals])
    print(f"passes {len(plain) + len(traced)} in {time.perf_counter() - start:.2f} s",
          file=sys.stderr)

    attempted = sum(p.attempted for p in plain + traced)
    failures = [f for p in plain + traced for f in p.failures]
    for key, label, why in failures[:20]:
        print(f"FAIL {key}: {label}: {why}", file=sys.stderr)
    print(f"fail_frac\t{len(failures) / attempted:.6g}\t({len(failures)} of {attempted} jobs)",
          file=sys.stderr)
    if args.trace:
        tracer.write(WORKDIR / f"spans-{args.workload}-{args.seed}.tsv")
        overhead = scale * (sum(map(sum, job_minima(traced))) - sum(map(sum, job_minima(plain))))
        print(f"trace.overhead_s\t{overhead:.6g} s", file=sys.stderr)
        metrics = per_layer(layers, overhead)
        names = dict(layer_names())
    else:
        metrics = end_to_end(units, plain, setup, scale)
        names = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
