import json
import subprocess
import sys

import pytest

from conftest import GRUN_WORD, RUNS_WORD


def run_cli(args, data=None):
    proc = subprocess.run(
        [sys.executable, "-m", "genreps.cli", *args],
        input=data,
        capture_output=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


@pytest.fixture(scope="module")
def runs_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "runs.txt"
    p.write_bytes(RUNS_WORD)
    return str(p)


def test_kruns_known_rows(runs_file):
    code, out, _ = run_cli(["kruns", runs_file, "-k", "2", "--period", "8"])
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert rows == [["krun", "1", "19", "8", "2"], ["krun", "5", "25", "8", "2"]]


def test_uniform_known_rows(runs_file):
    code, out, _ = run_cli(["uniform", runs_file, "-k", "2", "--period", "8"])
    assert code == 0
    rows = [line.split("\t")[:3] for line in out.strip().split("\n")]
    assert rows == [["uniform", "1", "19"], ["uniform", "5", "23"], ["uniform", "8", "25"]]


def test_empty_input_no_rows():
    code, out, _ = run_cli(["kruns", "-", "-k", "1"], data=b"")
    assert code == 0 and out == ""


def test_gruns_jsonl():
    code, out, _ = run_cli(["gruns", "-", "--format", "jsonl"], data=GRUN_WORD)
    assert code == 0
    recs = [json.loads(line) for line in out.strip().split("\n")]
    assert all(r["v"] == 1 and r["kind"] == "grun" for r in recs)
    assert any(r["a"] == 6 and r["b"] == 22 and r["period"] == 6 for r in recs)


def test_psquares_classes():
    code, out, _ = run_cli(["psquares", "-"], data=b"aa")
    assert code == 0
    # canonical prev-encoded form of the first half ("a" -> [0])
    assert out.strip().split("\t") == ["1", "2", "0"]


def test_psquares_contains_known_class():
    code, out, _ = run_cli(
        ["psquares", "-", "--ints"], data=b"1 3 2 2 4 3 4 4 1 2 3 2 3"
    )
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert ["3", "8", "0,1,0,0"] in rows  # the half-length-4 square at position 3
    assert ["1", "6", "0,0,0"] in rows


def test_psquares_distinct_mode():
    code, out, _ = run_cli(["psquares", "-", "--mode", "distinct"], data=b"abab")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert rows == [["1", "2"], ["2", "2"], ["1", "4"]]


def test_count_exact():
    code, out, _ = run_cli(["count", "-", "--relation", "exact"], data=b"aaaa")
    assert code == 0
    fields = out.strip().split("\t")
    assert fields[0] == "exact" and fields[1] == "2"


def test_count_all_relations():
    code, out, _ = run_cli(["count", "-", "--relation", "all"], data=b"abacabad")
    assert code == 0
    assert len(out.strip().split("\n")) == 5


def test_count_ints_mode():
    code, out, _ = run_cli(
        ["count", "-", "--ints", "--relation", "param"], data=b"1 3 2 2 4 3 4 4 1 2 3 2 3"
    )
    assert code == 0
    assert out.split("\t")[0] == "param"


def test_missing_file_is_io_error():
    code, _, err = run_cli(["count", "/nonexistent/file"])
    assert code == 2
    assert "error" in err


def test_usage_error():
    code, _, _ = run_cli(["count", "-", "--relation", "bogus"], data=b"")
    assert code == 2


def test_verify_passes_and_deterministic():
    args = ["verify", "--trials", "12", "--max-n", "34", "--seed", "5"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "result\tPASS" in out1


def test_verify_cap_exceeded():
    code, _, err = run_cli(["verify", "--max-n", "500", "--cap", "200"])
    assert code == 2
    assert "cap" in err


def test_bounds_deterministic_and_ratios():
    args = [
        "bounds",
        "--n",
        "200,400",
        "--k-list",
        "2",
        "--sigma-list",
        "3",
        "--seed",
        "1",
        "--metrics",
        "runs,mgr,gruns",
    ]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 2
    for row in rows:
        assert float(row["grun_ratio"]) < 1.0
        assert float(row["mgr_ratio_max"]) < 1.0
        assert float(row["uniform_ratio"]) < 200.0


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    from genreps import cli, counting

    def broken(index, rev_index=None):
        raise AssertionError("interval table out of order")

    monkeypatch.setattr(counting, "squares_table", broken)
    path = tmp_path / "t.txt"
    path.write_bytes(b"abab")
    assert cli.main(["count", str(path), "--relation", "exact"]) == 3
    err = capsys.readouterr().err
    assert "internal error: interval table out of order" in err
    assert "Traceback" not in err


def test_pool_capped_at_job_count(monkeypatch, capsys):
    import multiprocessing

    from genreps import cli

    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, jobs):
            return [func(*job) for job in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    args = ["bounds", "--n", "50", "--trials", "1", "--threads", "4"]
    assert cli.main(args) == 0
    assert sizes == [1]
    assert len(capsys.readouterr().out.strip().split("\n")) == 2
