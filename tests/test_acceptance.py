"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The randomized corpus is
seeded and shared by the oracle-equivalence, structural-property, and
count-bound criteria.
"""

import itertools
import multiprocessing
import os
import random
import resource
import subprocess
import sys
import time

import pytest

from conftest import GRUN_WORD, RUNS_WORD, random_text
from genreps import cli, oracle
from genreps.counting import squares_table
from genreps.encodings import RELATIONS, make_encoder, profiles, scer_match
from genreps.index import ScerIndex
from genreps.psquares import report_nonequivalent
from genreps.repeats import generalised_runs, induces, mgrs, uniform_k_runs
from genreps.text import parse_text, text_from_symbols

CORPUS_SEED = 20240811
CORPUS_SIZE = 510


def _corpus_params(rng):
    bucket = rng.random()
    if bucket < 0.60:
        n = rng.randint(0, 60)
    elif bucket < 0.85:
        n = rng.randint(61, 110)
    else:
        n = rng.randint(111, 150)
    return n, rng.choice([2, 3, 4, 5]), rng.randint(0, 4)


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(CORPUS_SIZE):
        n, sigma, k = _corpus_params(rng)
        out.append((random_text(rng, n, sigma), k))
    return out


def _run_cli(args, capsys) -> str:
    rc = cli.main(args)
    assert rc == 0, f"cli {args} exited {rc}"
    return capsys.readouterr().out


def test_criterion_1_worked_example_fidelity(tmp_path, capsys):
    t0 = time.perf_counter()
    f12 = tmp_path / "runs.txt"
    f12.write_bytes(RUNS_WORD)
    out = _run_cli(["kruns", str(f12), "-k", "2", "--period", "8"], capsys)
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert rows == [
        ["krun", "1", "19", "8", "2"],
        ["krun", "5", "25", "8", "2"],
    ], "k-runs of period 8 must be exactly T[1..18] and T[5..24]"
    out = _run_cli(["uniform", str(f12), "-k", "2", "--period", "8"], capsys)
    rows = [line.split("\t")[:4] for line in out.strip().split("\n")]
    assert rows == [
        ["uniform", "1", "19", "8"],
        ["uniform", "5", "23", "8"],
        ["uniform", "8", "25", "8"],
    ], "uniform 2-runs must be exactly T[1..18], T[5..22], T[8..24]"
    t12 = parse_text(RUNS_WORD)
    mgr = [m for m in mgrs(t12, periods=8) if m.x == 8][0]
    assert (mgr.ell, mgr.arm_len) == (8, 3)
    uruns = uniform_k_runs(t12, 2, 8)
    assert len(uruns) == 3 and all(induces(mgr, r) for r in uruns)
    t3 = parse_text(GRUN_WORD)
    grun = [g for g in generalised_runs(t3, 6) if g.x == 6][0]
    assert (grun.x, grun.y, grun.p) == (6, 22, 6)
    uruns3 = uniform_k_runs(t3, 2, 6)
    induced = [r for r in uruns3 if induces(grun, r)]
    assert len(induced) == 5 and len(uruns3) == 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"worked-example checks took {elapsed:.2f}s"
    print(f"criterion 1 PASS: worked-example fidelity exact, {elapsed * 1000:.0f} ms")


def test_criterion_2_prefix_codes():
    t = text_from_symbols([1, 2, 1, 1, 2, 3, 2, 1, 4])
    got = profiles(t).forward[1:].tolist()
    assert got == [0, 1, 1, 0, 1, 2, 1, 2, 3]
    print("criterion 2 PASS: recency prefix codes match the worked example")


def test_criterion_3_square_classification(sq_text):
    via_match = {}
    via_table = {}
    for rel in RELATIONS:
        enc = make_encoder(sq_text, rel)
        table = squares_table(ScerIndex(sq_text, rel))
        via_match[rel] = {
            "X": scer_match(enc, 1, 3, 4, 6),
            "Y": scer_match(enc, 3, 6, 7, 10),
            "Z": scer_match(enc, 8, 10, 11, 13),
        }
        via_table[rel] = {
            "X": table.contains(1, 3),
            "Y": table.contains(3, 4),
            "Z": table.contains(8, 3),
        }
    for got in (via_match, via_table):
        assert got["op"]["X"] and got["param"]["X"] and got["ct"]["X"] and got["pal"]["X"]
        assert got["param"]["Y"] and not got["op"]["Y"]
        assert got["ct"]["Z"] and not got["pal"]["Z"]
    print("criterion 3 PASS: X/Y/Z classified identically by matcher and table")


EXHAUSTIVE_MAX_N = 10
EXHAUSTIVE_SIGMA = 3


def _verify_words(n: int, prefix: tuple[int, ...]) -> tuple[int, list[str]]:
    """Verify every ternary word of length n that starts with prefix."""
    failures = []
    count = 0
    for tail in itertools.product(range(EXHAUSTIVE_SIGMA), repeat=n - len(prefix)):
        word = prefix + tail
        failures += [f"{word}: {f}" for f in oracle.verify_text(text_from_symbols(word))]
        count += 1
    return count, failures


def test_criterion_4_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    failures = []
    for t, k in corpus:
        failures += oracle.verify_text(t, ks=(k,))
    n_random = len(corpus)
    # every ternary word with n <= 10, split by prefix into jobs of at most
    # 3**6 words that run on one worker process per available CPU (at most 4)
    jobs = [
        (n, prefix)
        for n in range(EXHAUSTIVE_MAX_N + 1)
        for prefix in itertools.product(range(EXHAUSTIVE_SIGMA), repeat=max(0, n - 6))
    ]
    workers = min(4, len(os.sched_getaffinity(0)))
    if workers > 1:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            done = pool.starmap(_verify_words, jobs, chunksize=1)
    else:
        done = [_verify_words(*job) for job in jobs]
    exhaustive = sum(count for count, _ in done)
    for _, fails in done:
        failures += fails
    elapsed = time.perf_counter() - t0
    assert exhaustive == sum(EXHAUSTIVE_SIGMA**n for n in range(EXHAUSTIVE_MAX_N + 1))
    assert not failures, failures[:10]
    print(
        f"criterion 4 PASS: {n_random} random + {exhaustive} exhaustive texts "
        f"match oracles exactly in {elapsed:.0f}s"
    )


def test_criterion_5_structural_properties(corpus):
    checked_induction = checked_coverage = 0
    for t, k in corpus:
        runs_by_p = {}
        for r in uniform_k_runs(t, k):
            runs_by_p.setdefault(r.ell, []).append(r)
        all_mgrs = mgrs(t)
        all_gruns = generalised_runs(t)
        for rep in all_mgrs + all_gruns:
            same = runs_by_p.get(rep.period, [])
            induced = sum(1 for r in same if induces(rep, r))
            assert induced <= 2 * k + 1, (t.symbols, k, rep)
            checked_induction += 1
        gruns_by_p = {}
        for g in all_gruns:
            gruns_by_p.setdefault(g.p, []).append(g)
        mgrs_by_p = {}
        for m in all_mgrs:
            mgrs_by_p.setdefault(m.ell, []).append(m)
        for runs in runs_by_p.values():
            for r in runs:
                if r.ell < 4 * k:
                    continue
                checked_coverage += 1
                if any(induces(g, r) for g in gruns_by_p.get(r.ell, [])):
                    continue
                arms = sum(
                    m.arm_len
                    for m in mgrs_by_p.get(r.ell, [])
                    if m.ell <= (2 * k + 2) * m.arm_len and induces(m, r)
                )
                assert 4 * arms >= r.ell, (t.symbols, k, r)
    oscillation_checked = 0
    for t, _ in corpus:
        if t.n < 2:
            continue
        for rel in RELATIONS:
            lpf = ScerIndex(t, rel).lpf()
            osc = sum(abs(int(lpf[i + 1]) - int(lpf[i])) for i in range(1, t.n))
            assert osc < 3 * t.n, (t.symbols, rel)
            oscillation_checked += 1
    print(
        f"criterion 5 PASS: {checked_induction} induction bounds, "
        f"{checked_coverage} coverage cases, {oscillation_checked} oscillation checks, "
        "zero violations"
    )


def test_criterion_6_hard_count_bounds(corpus):
    for t, k in corpus:
        n = t.n
        if n == 0:
            continue
        assert len(generalised_runs(t)) < 1.5 * n
        all_m = mgrs(t)
        for alpha in range(2, 2 * k + 3):
            cum = sum(1 for m in all_m if m.ell <= alpha * m.arm_len)
            assert cum < 13 * n * alpha
        classes = report_nonequivalent(t).count
        assert classes < max(1, n * t.sigma)
    print("criterion 6 PASS: generalised-run, alpha-MGR and class-count bounds hold")


def test_criterion_7_asymptotic_ratios(capsys):
    out = _run_cli(
        [
            "bounds",
            "--n",
            "1000,10000,100000",
            "--k-list",
            "3",
            "--sigma-list",
            "4",
            "--seed",
            "6",
            "--metrics",
            "runs,table",
        ],
        capsys,
    )
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    rows.sort(key=lambda r: int(r["n"]))
    run_ratios = [float(r["uniform_ratio"]) for r in rows]
    table_ratios = [float(r["table_ratio"]) for r in rows]
    assert run_ratios[0] >= run_ratios[1] >= run_ratios[2], run_ratios
    assert table_ratios[0] >= table_ratios[1] >= table_ratios[2], table_ratios
    assert all(r <= 200 for r in run_ratios)
    assert all(r <= 10 for r in table_ratios)
    print(
        "criterion 7 PASS: uniform-run ratios "
        + "/".join(f"{r:.3f}" for r in run_ratios)
        + " and table ratios "
        + "/".join(f"{r:.4f}" for r in table_ratios)
        + " non-increasing and bounded"
    )


def test_criterion_8_sweep_equivalence(corpus):
    # the sweep/naive comparison also runs inside verify_text for every
    # corpus and exhaustive text; spot-check here on the heaviest texts
    checked = 0
    for t, _ in corpus:
        if t.n < 100:
            continue
        for rel in ("param", "exact"):
            idx = ScerIndex(t, rel)
            table = squares_table(idx)
            lpf = idx.lpf()
            from genreps.counting import sweep_count

            got = sweep_count(table, lpf)
            assert got == oracle.naive_rangecount_sum(table.intervals, lpf, t.n)
            assert got == oracle.cursor_sweep_count(table.intervals, lpf, t.n)
            checked += 1
    # randomized counting-structure ops against a definitional recount
    from genreps.oracle import CursorCounter

    rng = random.Random(99)
    n = 64
    c = CursorCounter(n)
    present: set[int] = set()
    cursor = 0
    ops = 0
    for _ in range(10_000):
        choices = []
        if len(present) < n:
            choices.append("ins")
        if present:
            choices.append("del")
        if cursor < n:
            choices.append("inc")
        if cursor > 0:
            choices.append("dec")
        op = rng.choice(choices)
        if op == "ins":
            x = rng.choice([v for v in range(1, n + 1) if v not in present])
            got = c.insert(x)
            present.add(x)
        elif op == "del":
            x = rng.choice(sorted(present))
            got = c.delete(x)
            present.remove(x)
        elif op == "inc":
            got = c.inc()
            cursor += 1
        else:
            got = c.dec()
            cursor -= 1
        assert got == sum(1 for v in present if v > cursor)
        ops += 1
    print(
        f"criterion 8 PASS: sweep equals naive range-count and the cursor sweep ({checked} spot checks, "
        f"plus every corpus text via the oracle harness); {ops} structure ops match recounts"
    )


def test_criterion_9_scale_smoke(tmp_path):
    rng = random.Random(424242)
    path = tmp_path / "big.txt"
    path.write_text(" ".join(str(rng.randrange(4)) for _ in range(100_000)))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "genreps.cli",
            "count",
            str(path),
            "--ints",
            "--relation",
            "param",
        ],
        capture_output=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr.decode()
    fields = proc.stdout.decode().strip().split("\t")
    assert fields[0] == "param" and int(fields[1]) > 0
    maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    assert maxrss_kb < 4 * 1024 * 1024, f"child peak RSS {maxrss_kb} kB"
    print(
        f"criterion 9 PASS: n=100000 param count={fields[1]} in {elapsed:.1f}s, "
        f"peak RSS {maxrss_kb / 1024:.0f} MiB"
    )
