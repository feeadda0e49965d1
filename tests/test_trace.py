"""The benchmark's span tracer (perfbench/spans.py) looks up library names
by module and attribute; a rename in genreps that it does not follow breaks
`perfbench/run.py --trace 1`.  This installs the tracer, runs one traced
CLI job and uninstalls it, so such a rename fails here too."""

from pathlib import Path

from genreps import cli, counting, index

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_traces_one_cli_job(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer, layer_totals

    path = tmp_path / "text"
    path.write_bytes(b"abaababaababaab")
    table, init = counting.squares_table, index.ScerIndex.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert counting.squares_table is not table
        code = tracer.cli_main(cli.main)(["count", str(path), "--relation", "all"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert counting.squares_table is table and index.ScerIndex.__init__ is init
    names = {span.name for span in tracer.spans}
    assert {"cli", "text.parse", "index.build", "index.build_rev", "index.tree", "counting.table"} <= names
    totals = layer_totals(tracer.spans)
    assert totals["counting.table_size.param"] > 0 and totals["cli.self_s"] > 0
    assert totals["index.tree_nodes.param"] > 0
