import csv
import dataclasses
import io
import json
import tracemalloc

import pytest

import liftforge as lf
from liftforge import cli, diffunif, landscape
from liftforge.catalog import ClosureResult
from liftforge.corefn import array_to_table
from liftforge.exprlang import eval_expr, parse_expr

L14 = "0★----------10"  # landscapes of diameter 14 and 17
L17 = "0★-------------10"


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


def test_closure_defaults_reach_the_d7_fixpoint():
    args = cli.build_parser().parse_args(["closure"])
    assert args.diameter == 7
    assert args.budget >= 502_792  # compositions the D=7 closure spends to its fixpoint


def test_closure_exhausted_notes_lower_bound(capsys):
    rc = cli.main(["--format", "json", "closure", "--diameter", "6", "--budget", "2000"])
    assert rc == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["exhausted"] is True
    assert "lower bound" in captured.err


def test_closure_at_max_diameter_holds_only_the_widths_it_keeps(capsys):
    tracemalloc.start()
    try:
        rc = cli.main(["--format", "json", "closure", "--diameter", "24", "--budget", "100"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["max_diameter"], doc["compositions"], doc["exhausted"]) == (24, 100, True)
    assert peak < 16 << 20


def test_closure_past_max_diameter_exits_2_before_the_generators(capsys, monkeypatch):
    # no class wider than a Rule holds: refused before any generator is built
    def unreachable(*args, **kwargs):
        raise AssertionError("generators built for a refused diameter")

    monkeypatch.setattr(cli.catalog_mod, "default_generators", unreachable)
    tracemalloc.start()
    try:
        rc = cli.main(["--format", "json", "closure", "--diameter", "25", "--budget", "2000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "diameter 25 outside 1..24" in captured.err
    assert peak < 1 << 20


def test_closure_negative_budget_exits_2(capsys):
    assert cli.main(["--format", "json", "closure", "--diameter", "6", "--budget", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "budget" in captured.err


def test_search6_runs_without_long(capsys):
    # the whole search takes a fraction of a second
    assert cli.main(["search6"]) == 0
    captured = capsys.readouterr()
    assert "functions=152 classes=40" in captured.err and "--long" not in captured.err


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


# a highlighted catalog row: (0★10)∘(0★110)
ROW = "6:F0F093F0C3F093F0"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_compose_formats(capsys, fmt):
    rc = cli.main(["--format", fmt, "compose", "0★10", "0★110"])
    assert rc == 0
    out = capsys.readouterr().out
    if fmt == "json":
        doc = json.loads(out)
    else:
        sep = "\t" if fmt == "text" else ","
        doc = dict(line.split(sep, 1) for line in out.splitlines())
    assert set(doc) == {"rule", "k", "shift", "anf"}
    assert doc["rule"] == ROW == eval_expr(parse_expr("(0★10)∘(0★110)")).text()
    assert str(doc["k"]) == "6" and str(doc["shift"]) == "0"
    assert lf.rule_from_anf_text(doc["anf"]).same_function(lf.rule_from_text(ROW))


def test_compose_patt_twice_is_a_shift(capsys):
    assert cli.main(["--format", "json", "compose", "0★10", "0★10"]) == 0
    assert json.loads(capsys.readouterr().out) == {"rule": "1:2", "k": 1, "shift": -2, "anf": "x1"}


def test_expand_stride3(capsys):
    assert cli.main(["--format", "json", "expand", "--stride", "3", "0★10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    patt = eval_expr(parse_expr("0★10"))
    assert doc["k"] == 3 * (patt.k - 1) + 1 == 10
    assert doc["rule"] == lf.expand(patt, 3).text()


def test_verify_proper(capsys):
    assert cli.main(["verify", "0★10"]) == 0
    assert capsys.readouterr().out.splitlines() == ["proper"]


def test_verify_improper_prints_collision(capsys):
    assert cli.main(["verify", "1★1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["not-proper", "collision at n=3: 000 and 111"]


def test_verify_scan(capsys):
    assert cli.main(["--format", "json", "verify", "--scan", "0★10"]) == 0
    assert json.loads(capsys.readouterr().out) == {"decision": "proper", "method": "finite-scan"}
    assert cli.main(["--format", "json", "verify", "--scan", "1★1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["decision"], doc["method"]) == ("not-proper", "finite-scan")
    assert cli.main(["--format", "json", "verify", "0★10"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "pair-graph"


def test_verify_scan_below_the_diameter_exits_2(capsys):
    # the scan limit (16) below the diameter (17) leaves no length to scan:
    # refused, not "proper"
    assert cli.main(["verify", "--scan", L17]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "below diameter 17" in captured.err


def test_arity_cap_is_a_usage_error(capsys):
    rc = cli.main(["compose", L14, L14])  # 27 variables
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "cap is 26" in captured.err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_landscapes_counts(capsys, fmt):
    assert cli.main(["--format", fmt, "landscapes", "--k", "8"]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out) == {"k": 8, "count": 1160, "classes": 290}
    elif fmt == "csv":
        assert _csv(out) == [["k", "count", "classes"], ["8", "1160", "290"]]
    else:
        assert out.splitlines() == ["count=1160 classes=290"]


def test_landscapes_list(capsys):
    assert cli.main(["landscapes", "--k", "8", "--list"]) == 0
    *listed, summary = capsys.readouterr().out.splitlines()
    assert summary == "count=1160 classes=290"
    assert len(listed) == len(set(listed)) == 1160
    assert all(lf.is_conserved(lf.parse_landscape(s)) and len(s) == 8 for s in listed)


def test_landscapes_list_csv(capsys):
    assert cli.main(["--format", "csv", "--ascii", "landscapes", "--k", "8", "--list"]) == 0
    header, *rows = _csv(capsys.readouterr().out)
    assert header == ["landscape"] and all(len(row) == 1 for row in rows)
    listing = landscape.enumerate_conserved(8).landscapes
    assert [row[0] for row in rows] == [l.symbols.replace("★", "*") for l in listing]


def test_landscapes_k13_requires_long(capsys, monkeypatch):
    # listings past k = 12 and counts past k = 15 need --long
    _no_enumeration(monkeypatch)
    for argv in (["landscapes", "--k", "13", "--list"], ["landscapes", "--k", "16"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--long" in captured.err


def test_landscapes_counts_to_k15_and_lists_to_k12_without_long(capsys, monkeypatch):
    calls = []
    enumerate_conserved = landscape.enumerate_conserved

    def small(k, include_list=False):
        calls.append((k, include_list))
        return enumerate_conserved(4, include_list=include_list)

    monkeypatch.setattr(landscape, "enumerate_conserved", small)
    assert cli.main(["landscapes", "--k", "15"]) == 0
    assert cli.main(["landscapes", "--k", "12", "--list"]) == 0
    assert calls == [(15, False), (12, True)]


# (0★110)∘(0★10), diameter 5; its DU row is pinned in test_diffunif
DU_EXPR = "(0★110)∘(0★10)"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("scaled", [False, True])
def test_du_formats(capsys, fmt, scaled):
    argv = ["--format", fmt, "du", DU_EXPR, "--n", "5..8"] + (["--scaled"] if scaled else [])
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    raw, scaled_vals = ["8", "18", "36", "68"], ["128", "144", "144", "136"]
    if fmt == "json":
        doc = json.loads(out)
        assert [(e["n"], str(e["raw"]), e["scaled"]) for e in doc["entries"]] == list(
            zip(range(5, 9), raw, scaled_vals)
        )
    elif fmt == "csv":
        assert out.splitlines() == ["n,raw,scaled"] + [
            f"{n},{r},{s}" for n, r, s in zip(range(5, 9), raw, scaled_vals)
        ]
    else:
        assert out.splitlines() == [" ".join(scaled_vals if scaled else raw)]


@pytest.mark.parametrize(
    "spec, message",
    [
        ("15", "n <= 14"),  # the DU cap
        ("6..x", "bad length range"),
        ("6..", "bad length range"),
        ("9..6", "empty length range"),
        ("2..4", "diameter 5"),  # wholly below the diameter
    ],
)
def test_du_bad_ranges_are_usage_errors(capsys, spec, message):
    assert cli.main(["du", DU_EXPR, "--n", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def test_du_past_the_cap_fails_before_any_ddt(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("ddt_max reached past the DU cap")

    monkeypatch.setattr(diffunif, "ddt_max", unreachable)
    monkeypatch.setattr(diffunif, "_ddt_maxima", unreachable)
    assert cli.main(["du", DU_EXPR, "--n", "6..15"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "n <= 14" in captured.err


# two Appendix A rows at n = 9..12: a highlighted entry, whose witness at
# n = 12 has a = 1, and one whose witness has a = 1365.  n = 9 reads the
# 9-bit window table and n = 10..12 the 10-bit one, both from one build
@pytest.mark.parametrize(
    "expr, raw, highlight, a12",
    [
        ("(0★10)∘(0★110)∘(01★00)", [72, 144, 288, 576], True, 1),
        ("(10★111)∘(00★101)∘(01★000)", [224, 464, 728, 1600], False, 1365),
    ],
)
def test_du_prints_stated_catalog_rows(monkeypatch, capsys, catalog_entries, expr, raw, highlight, a12):
    (entry,) = [e for e in catalog_entries if e.text == expr]
    assert list(entry.stated_du[-4:]) == raw and entry.highlight == highlight
    builds, window_row_max = [], diffunif._window_row_max
    monkeypatch.setattr(diffunif, "_window_row_max", lambda k, t: builds.append(array_to_table(t)) or window_row_max(k, t))
    assert cli.main(["du", expr, "--n", "9..12"]) == 0
    assert capsys.readouterr().out.splitlines() == [" ".join(map(str, raw))]
    assert builds == [entry.rule().table]
    assert cli.main(["--format", "json", "du", expr, "--n", "9..12"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"][-1]["a"] == a12


def test_catalog_list(capsys):
    assert cli.main(["catalog", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 120
    assert all(len(line.split("\t")) == 3 for line in lines)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_catalog_du_clean(capsys, fmt):
    assert cli.main(["--format", fmt, "catalog", "--du"]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out) == {"ok": True, "problems": []}
    else:
        assert out.splitlines() == ["catalog verification clean"]


def _csv(out):
    return list(csv.reader(io.StringIO(out)))


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_catalog_formats(capsys, fmt):
    assert cli.main(["--format", fmt, "catalog"]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out) == {"ok": True, "problems": []}
    elif fmt == "csv":
        assert _csv(out) == [["index", "kind", "detail"]]  # no problem rows
    else:
        assert out.splitlines() == ["catalog verification clean"]


def test_catalog_list_json(capsys, catalog_entries):
    assert cli.main(["--format", "json", "catalog", "--list"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert [(d["expr"], d["degree"], tuple(d["du"])) for d in entries] == [
        (e.text, e.stated_degree, e.stated_du) for e in catalog_entries
    ]


def test_catalog_list_csv(capsys, catalog_entries):
    assert cli.main(["--format", "csv", "catalog", "--list"]) == 0
    header, *rows = _csv(capsys.readouterr().out)
    assert header == ["expr", "degree"] + [f"du{n}" for n in range(6, 13)]
    assert rows == [[e.text, str(e.stated_degree)] + [str(v) for v in e.stated_du] for e in catalog_entries]


def test_catalog_du_mismatch_exits_1(capsys, monkeypatch, catalog_entries):
    entry = catalog_entries[0]
    wrong = dataclasses.replace(entry, stated_du=(entry.stated_du[0] + 2,) + entry.stated_du[1:])
    monkeypatch.setattr(lf.catalog, "load_catalog", lambda: [wrong])
    assert cli.main(["--format", "json", "catalog", "--du"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["problems"] == [f"entry 0: du: n=6: stated {wrong.stated_du[0]}, computed {entry.stated_du[0]}"]


def test_catalog_du_checks_n12_without_long(capsys, monkeypatch, catalog_entries):
    entry = catalog_entries[0]
    wrong = dataclasses.replace(entry, stated_du=entry.stated_du[:-1] + (entry.stated_du[-1] + 2,))
    monkeypatch.setattr(lf.catalog, "load_catalog", lambda: [wrong])
    assert cli.main(["--format", "json", "catalog", "--du"]) == 1
    assert json.loads(capsys.readouterr().out)["problems"] == [
        f"entry 0: du: n=12: stated {wrong.stated_du[-1]}, computed {entry.stated_du[-1]}"
    ]


def test_catalog_du_mismatch_csv_row(capsys, monkeypatch, catalog_entries):
    entry = catalog_entries[0]
    wrong = dataclasses.replace(entry, stated_du=(entry.stated_du[0] + 2,) + entry.stated_du[1:])
    monkeypatch.setattr(lf.catalog, "load_catalog", lambda: [wrong])
    assert cli.main(["--format", "csv", "catalog", "--du"]) == 1
    assert _csv(capsys.readouterr().out) == [
        ["index", "kind", "detail"],
        ["0", "du", f"n=6: stated {wrong.stated_du[0]}, computed {entry.stated_du[0]}"],
    ]


def _no_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("the listing cap must be checked before any enumeration work")

    monkeypatch.setattr(landscape, "_conserved_counts_for_star", refuse)


def test_landscapes_list_above_cap_exits_2(capsys, monkeypatch):
    _no_enumeration(monkeypatch)
    assert cli.main(["--long", "landscapes", "--k", "16", "--list"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "k <= 15" in captured.err


# parse: (0★10)∘(0★110), the highlighted catalog row ROW above
PARSE_EXPR = "(0★10)∘(0★110)"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_parse_formats(capsys, fmt):
    assert cli.main(["--format", fmt, "parse", PARSE_EXPR]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        doc = {k: str(v) for k, v in json.loads(out).items()}
    elif fmt == "csv":
        doc = dict(_csv(out))
    else:
        doc = dict(line.split("\t", 1) for line in out.splitlines())
    rule = lf.rule_from_text(ROW)
    assert doc == {
        "expr": PARSE_EXPR,
        "rule": ROW,
        "k": "6",
        "degree": str(lf.degree(rule)),
        "balanced": "True",
        "anf": lf.render_anf(lf.to_anf(rule)),
        "class": lf.canonicalize(rule).text(),
    }


def test_parse_ascii(capsys):
    assert cli.main(["--ascii", "--format", "json", "parse", PARSE_EXPR]) == 0
    assert json.loads(capsys.readouterr().out)["expr"] == "(0*10)o(0*110)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["parse", f"({L14})∘({L14})"], "cap is 26"),  # the composite has 27 variables
        (["parse", "0★1x"], "trailing input"),
    ],
)
def test_parse_usage_errors(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


FAMILY_KEYS = {"family", "rule", "k", "anf", "proper", "order_power", "order_verified"}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_families_chain_formats(capsys, fmt):
    assert cli.main(["--format", fmt, "families", "--r", "3"]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        doc = {k: str(v) for k, v in json.loads(out).items()}
    elif fmt == "csv":
        doc = dict(_csv(out))
    else:
        doc = dict(line.split("\t", 1) for line in out.splitlines())
    assert set(doc) == FAMILY_KEYS
    assert (doc["family"], doc["k"], doc["order_power"]) == ("chain", "6", "3")
    assert (doc["proper"], doc["order_verified"]) == ("True", "True")
    assert lf.rule_from_anf_text(doc["anf"]).same_function(lf.rule_from_text(doc["rule"]))


def test_families_symmetric(capsys):
    assert cli.main(["--format", "json", "families", "--k", "6", "--j", "3", "--set", "1,6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["family"], doc["k"], doc["order_power"], doc["order_verified"], doc["proper"]) == (
        "symmetric",
        6,
        4,
        True,
        True,
    )


def test_families_order_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli.families, "verify_order_claim", lambda *args, **kwargs: False)
    assert cli.main(["--format", "json", "families", "--r", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["order_verified"] is False and doc["proper"] is True


@pytest.mark.parametrize(
    "argv, message",
    [
        (["families", "--k", "6", "--j", "3"], "need either --r"),  # no --set
        (["families"], "need either --r"),
        (["families", "--r", "1"], "r-range"),
        (["families", "--k", "6", "--j", "3", "--set", "1,2"], "asymmetric"),
        (["families", "--r", "7"], "cap is 26"),  # r=7 squares to 27 variables
        (["families", "--k", "12", "--j", "6", "--set", "1,12"], "cap is 26"),  # power 8: its sixth power needs 27
        (["families", "--k", "14", "--j", "7", "--set", "1,14"], "cap is 26"),  # k=14 squares to 27 variables
        (["families", "--k", "26", "--j", "13", "--set", "1,26"], "outside 1..24"),  # the rule itself is too wide
        (["families", "--k", "6", "--j", "3", "--set", "a"], "bad --set 'a'"),
        (["families", "--k", "6", "--j", "3", "--set", "1,,6"], "bad --set '1,,6'"),
    ],
)
def test_families_usage_errors(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# ---------------------------------------------------------------------------
# stdout parses in the format asked for; formulas past the width cap fail at once


@pytest.mark.parametrize(
    "expr, rc, row",
    [
        ("0★10", 0, ["proper", "pair-graph", "", "", ""]),
        ("1★1", 1, ["not-proper", "pair-graph", "3", "000", "111"]),
    ],
)
def test_verify_csv(capsys, expr, rc, row):
    assert cli.main(["--format", "csv", "verify", expr]) == rc
    assert _csv(capsys.readouterr().out) == [["decision", "method", "n", "x", "y"], row]


def test_search6_csv_matches_json(capsys):
    assert cli.main(["--long", "--format", "csv", "search6"]) == 0
    header, *rows = _csv(capsys.readouterr().out)
    assert header == ["s", "rule", "class", "anf"] and len(rows) == 152
    assert cli.main(["--long", "--format", "json", "search6"]) == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows == [[str(d[f]) for f in header] for d in docs]


def test_landscapes_list_json(capsys):
    assert cli.main(["--format", "json", "landscapes", "--k", "8", "--list"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["k"], doc["count"], doc["classes"]) == (8, 1160, 290)
    assert doc["landscapes"] == [l.symbols for l in landscape.enumerate_conserved(8).landscapes]


@pytest.mark.parametrize("argv", [["parse", "0★" + "-" * 23 + "1"], ["families", "--r", "13"]])
def test_formula_past_max_diameter_exits_2_at_once(capsys, argv):
    tracemalloc.start()
    try:
        rc = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "diameter 26 outside 1..24" in captured.err
    assert peak < 1 << 20
