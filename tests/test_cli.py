import json
import random
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


def test_parser_built_once_per_process(runs_file, capsys):
    """main reuses one parser, and no flag of one call carries into the next."""
    from genreps import cli

    assert cli._parser() is cli._parser()
    for argv in (["kruns", runs_file, "--period", "8", "--format", "jsonl"], ["kruns", runs_file, "--period", "8"]):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == run_cli(argv)[1]


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


def test_psquares_classes_encodes_the_text_twice(tmp_path, monkeypatch, capsys):
    """The canon column reads the forward param index's encoder: a classes
    run builds one ParamEncoder for that index and one for the reversed
    index, and no third for the column."""
    from genreps import cli, encodings

    path = tmp_path / "t.txt"
    path.write_bytes(b"abaabbababcabcab")
    built = []
    init = encodings.ParamEncoder.__init__

    def counted(self, text):
        built.append(text.symbols)
        init(self, text)

    monkeypatch.setattr(encodings.ParamEncoder, "__init__", counted)
    assert cli.main(["psquares", str(path), "--mode", "classes"]) == 0
    assert len(built) == 2
    assert capsys.readouterr().out.count("\n") > 0


def test_count_exact():
    code, out, _ = run_cli(["count", "-", "--relation", "exact"], data=b"aaaa")
    assert code == 0
    fields = out.strip().split("\t")
    assert fields[0] == "exact" and fields[1] == "2"


def test_count_all_relations():
    code, out, _ = run_cli(["count", "-", "--relation", "all"], data=b"abacabad")
    assert code == 0
    assert len(out.strip().split("\n")) == 5


def test_count_all_distinct_builds_one_exact_index(tmp_path, monkeypatch, capsys):
    """Every relation's distinct count reuses the exact relation's index,
    with the same rows (apart from wall time) as one relation per run."""
    from genreps import cli, index
    from genreps.text import parse_text

    path = tmp_path / "t.txt"
    path.write_bytes(b"abacabadabacabaab")
    built = []
    init = index.ScerIndex.__init__

    def counted(self, text, relation="exact", encoder=None):
        built.append((relation, text.symbols))
        init(self, text, relation, encoder)

    monkeypatch.setattr(index.ScerIndex, "__init__", counted)
    assert cli.main(["count", str(path), "--relation", "all", "--distinct"]) == 0
    forward = parse_text(path.read_bytes()).symbols
    assert built.count(("exact", forward)) == 1
    rows = [line.split("\t")[:4] for line in capsys.readouterr().out.splitlines()]
    single = []
    for relation in ("exact", "param", "op", "ct", "pal"):
        assert cli.main(["count", str(path), "--relation", relation, "--distinct"]) == 0
        single += [line.split("\t")[:4] for line in capsys.readouterr().out.splitlines()]
    assert rows == single and len(rows) == 5


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


def test_ints_token_too_large_is_usage_error():
    """A token past the int64 range is a usage error naming it, not a traceback."""
    for token in ("99999999999999999999", "9223372036854775808", "-9223372036854775809"):
        code, out, err = run_cli(["count", "-", "--ints"], data=f"1 {token} 2".encode())
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and token in err
        assert "Traceback" not in err


@pytest.mark.parametrize("token", ["1_0", "+5", "-5", "0x1f", "1e3", "\u0663"])
def test_ints_token_must_be_ascii_digits(token, tmp_path, capsys):
    """A token int() would also read (1_0, +5, a non-ASCII digit) is no
    symbol: it is a usage error naming the token, not a silent 10 or 5."""
    from genreps import cli

    path = tmp_path / "ints.txt"
    path.write_bytes(f"{token} 10 5".encode())
    assert cli.main(["count", str(path), "--ints"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and repr(token) in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("bounds", "--n", "0"),
        ("bounds", "--n", "50,-3"),
        ("bounds", "--sigma-list", "0"),
        ("bounds", "--k-list", "-1"),
        ("bounds", "--trials", "-1"),
        ("verify", "--trials", "-3"),
        ("verify", "--max-n", "-5"),
        ("verify", "--sigma-list", "0"),
        ("verify", "--k-list", "-1"),
        ("bounds", "--threads", "0"),
        ("bounds", "--threads", "-2"),
        ("verify", "--threads", "0"),
        ("verify", "--threads", "-2"),
        ("bounds", "--n", "10,x"),
        ("bounds", "--k-list", "1,a"),
        ("bounds", "--sigma-list", ""),
        ("verify", "--k-list", "1,a"),
        ("verify", "--sigma-list", "2,"),
        ("bounds", "--metrics", "foo,runs"),
        ("bounds", "--metrics", ""),
        ("bounds", "--metrics", "runs,"),
    ],
)
def test_rejects_out_of_range_values(command, flag, value, capsys):
    """Rejected before any output, with the flag named and no traceback."""
    from genreps import cli

    assert cli.main([command, "--sigma-list", "2", "--k-list", "1", flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {flag} ")


@pytest.mark.parametrize("command", ["kruns", "uniform"])
def test_negative_k_rejected(command):
    code, out, err = run_cli([command, "-", "-k", "-1"], data=b"abab")
    assert code == 2
    assert out == ""
    assert err.startswith("error: -k ")


@pytest.mark.parametrize("alpha", ["foo", "-1", "0", "1/0", ""])
def test_bad_alpha_rejected(alpha, capsys):
    """Rejected before any output, with the flag named and no traceback."""
    from genreps import cli

    assert cli.main(["mgr", "-", f"--alpha={alpha}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --alpha ")


@pytest.mark.parametrize("command", ["kruns", "uniform", "mgr", "gruns"])
@pytest.mark.parametrize("period", ["0", "-3", "5:2", "x"])
def test_bad_period_rejected(command, period, capsys):
    """Rejected before any output, with the flag named and no traceback."""
    from genreps import cli

    assert cli.main([command, "-", f"--period={period}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --period ")


def test_verify_passes_and_deterministic():
    args = ["verify", "--trials", "12", "--max-n", "34", "--seed", "5"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "result\tPASS" in out1


def test_verify_cap_exceeded():
    # rejected before any trial runs: nothing on stdout
    for max_n in ("500", "201"):
        code, out, err = run_cli(["verify", "--max-n", max_n])
        assert code == 2
        assert "cap" in err
        assert out == ""


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


def test_bounds_mgr_row_matches_unbounded_records():
    """The mgr ratio from records bounded by the largest alpha equals the one
    counted over every MGR."""
    from genreps import cli, repeats

    ns, ks, sigmas, seed = (30, 200, 600), (0, 1, 3), (2, 4), 5
    args = ["bounds", "--n", ",".join(map(str, ns)), "--k-list", ",".join(map(str, ks))]
    args += ["--sigma-list", "2,4", "--seed", str(seed), "--metrics", "mgr", "--threads", "1"]
    code, out, _ = run_cli(args)
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == len(ns) * len(ks) * len(sigmas)
    for row in rows:
        n, k, sigma = int(row["n"]), int(row["k"]), int(row["sigma"])
        t = cli._random_text(random.Random(seed * 1_000_003), n, sigma)
        recs = repeats.mgrs(t)
        ratios = [
            sum(1 for r in recs if r.ell <= alpha * r.arm_len) / (13 * n * alpha)
            for alpha in range(2, 2 * k + 3)
        ]
        assert row["mgr_ratio_max"] == (str(max(ratios)) if ratios else "")
    assert any(row["mgr_ratio_max"] not in ("", "0.0") for row in rows)


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    from genreps import cli, counting

    def broken(index):
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


@pytest.mark.parametrize("command", ["bounds", "verify"])
@pytest.mark.parametrize("value", ["0", "-4", "abc", "2.5", ""])
def test_bad_threads_env_rejected(command, value, monkeypatch, capsys):
    """A set GENREPS_THREADS that is not an integer >= 1 is a usage error
    naming it, as a bad --threads is, before any output."""
    from genreps import cli

    monkeypatch.setenv("GENREPS_THREADS", value)
    assert cli.main([command, "--sigma-list", "2", "--k-list", "1", "--trials", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: GENREPS_THREADS ")


def test_threads_env_read_when_command_runs(monkeypatch, capsys):
    """GENREPS_THREADS is read when the command runs, not when the parser
    is built, and --threads overrides it."""
    from genreps import cli

    monkeypatch.delenv("GENREPS_THREADS", raising=False)
    parser = cli.build_parser()
    monkeypatch.setenv("GENREPS_THREADS", "3")
    assert cli._threads(parser.parse_args(["verify"])) == 3
    assert cli._threads(parser.parse_args(["bounds", "--threads", "2"])) == 2
    monkeypatch.setenv("GENREPS_THREADS", "abc")
    assert cli._threads(parser.parse_args(["verify", "--threads", "1"])) == 1
    monkeypatch.delenv("GENREPS_THREADS")
    assert cli._threads(parser.parse_args(["bounds"])) == 1
