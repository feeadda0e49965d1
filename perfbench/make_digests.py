"""Record the output digest of every pooled job: perfbench/digests.json.

    python3 perfbench/make_digests.py [WORKLOAD ...]

Run once, at the commit whose outputs are the reference.  Every output is
first checked against the oracle, cross-checks and closed forms; the
script refuses to write digests for outputs that fail them.
"""

from __future__ import annotations

import json
import sys
import time

from checks import DIGESTS, Oracle, check_unit, digest
from jobs import WORKLOADS, Pool
from run import WORKDIR, import_genreps, run_job


def main(argv: list[str]) -> int:
    cli = import_genreps()
    names = argv or list(WORKLOADS)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    oracle = Oracle()
    failed = 0
    inputs = WORKDIR / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name in names:
        t0 = time.perf_counter()
        for unit, path in Pool(name, inputs).all_units():
            outputs = {}
            for job in unit.jobs:
                _, reason, out = run_job(cli.main, unit.argv(job, path))
                if reason:
                    print(f"FAIL {unit.key}: {job.label}: {reason}", file=sys.stderr)
                    failed += 1
                outputs[job.label] = out
            for label, why in check_unit(unit, outputs, None, oracle).items():
                print(f"FAIL {unit.key}: {label}: {why}", file=sys.stderr)
                failed += 1
            table[unit.key] = {label: digest(label, out) for label, out in outputs.items()}
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    if failed:
        print(f"{failed} failed jobs; digests not written", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
