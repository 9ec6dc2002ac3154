import dataclasses
import json

from liftforge import cli
from liftforge.catalog import ClosureResult


def test_closure_json_reports_every_result_field(capsys):
    rc = cli.main(["--format", "json", "closure", "--diameter", "6", "--budget", "2000"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert {f.name for f in dataclasses.fields(ClosureResult)} <= set(doc)
    assert doc["max_diameter"] == 6
    assert doc["compositions"] <= 2000
    assert isinstance(doc["exhausted"], bool)
    assert doc["found_classes"] <= doc["discovered_classes"]


def test_closure_text_output(capsys):
    rc = cli.main(["closure", "--diameter", "6", "--budget", "2000"])
    assert rc == 0
    lines = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert {f.name for f in dataclasses.fields(ClosureResult)} <= set(lines)
    assert lines["max_diameter"] == "6"


def test_search6_requires_long(capsys):
    assert cli.main(["search6"]) == 2
    assert "--long" in capsys.readouterr().err


def test_search6_json_rows(capsys):
    rc = cli.main(["--long", "--format", "json", "search6"])
    assert rc == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 152
    assert len({row["class"] for row in rows}) == 40
    assert {row["s"] for row in rows} == {2, 3, 4, 5}


def test_search6_text_summary(capsys):
    rc = cli.main(["--long", "search6"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "functions=152 classes=40" in captured.err
    assert len(captured.out.splitlines()) == 152
