"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/baseline.py [--runs 10] [--seed0 1] [--trace 0|1]
                                  [--out FILE] [WORKLOAD ...]

For every workload it runs `run.py` once per seed, one run at a time, and
prints per metric the median, the quartiles and the spread (quartile
distance over median, as statistics.quantiles(values, n=4) gives them),
next to the metric's bound from BENCHMARK.json.  With --out it writes the
same summary as JSON (perfbench/baseline.json holds the one taken at the
commit that defined the benchmark).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    for wl in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = attempted = 0
        for seed in range(args.seed0, args.seed0 + args.runs):
            cmd = [*spec["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        rows = {}
        print(f"{wl}: {failed} of {attempted} jobs failed")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": units[name], "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None else f"bound {bound}" + ("  OVER" if spread > bound else "")
            print(f"  {name:34s} {med:12.6g} {units[name]:6s} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.3f} {flag}")
        summary[wl] = {"failed": failed, "attempted": attempted, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
