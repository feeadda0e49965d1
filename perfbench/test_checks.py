"""Self-test of the benchmark's output check.

A wrong count and a raised exception must each register as failed jobs,
and an unmodified genreps must pass.  Runs one oracle-checked small-batch
text through the same pass the benchmark times.
"""

import pytest

import run
from checks import Oracle, load_digests
from jobs import Pool


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    cli = run.import_genreps()
    pool = Pool("small-periodic", tmp_path_factory.mktemp("inputs"))
    unit, path = pool.unit([name for name, _ in pool.slots].index("n1"), 0)
    assert unit.n <= 200  # checked against genreps.oracle as well as digests
    return cli, (unit, path), load_digests(), Oracle()


def failed_labels(bench) -> set[str]:
    cli, item, digests, oracle = bench
    done = run.run_pass([item], cli.main, digests, oracle)
    assert done.attempted == len(item[0].jobs)
    return {label for _, label, _ in done.failures}


def test_unmodified_genreps_passes(bench):
    assert failed_labels(bench) == set()


def test_off_by_one_count_fails(bench, monkeypatch):
    from genreps import counting

    count = counting.count_nonequivalent
    monkeypatch.setattr(counting, "count_nonequivalent", lambda *a, **kw: count(*a, **kw) + 1)
    # every non-distinct count, and bounds' classes column, which counts the same way
    assert failed_labels(bench) == {
        "count --relation exact", "count --relation param", "count --relation op",
        "count --relation ct", "count --relation pal", "bounds",
    }


def test_raised_exception_fails(bench, monkeypatch):
    from genreps import repeats

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(repeats, "generalised_runs", broken)
    # the gruns job, and bounds, whose gruns column calls the same function
    assert failed_labels(bench) == {"gruns", "bounds"}
