"""Command-line exit-code contract.

Each documented exit code is driven through `cli.main` on a plan document
written to a temporary file; failures must also name their kind in the
single-line JSON record on stderr.
"""

import json

import pytest

from a3d import cli
from a3d.algebra import Schema
from a3d.planner import optimize

CATALOG = {"relations": {
    "R": {"scalars": ["k", "x"], "arrays": ["v"]},
    "S": {"scalars": ["y"]},
}}


def _rel(name):
    return {"op": "relVar", "name": name}


def _cmp(op, col, value):
    return {"pred": "cmp", "op": op, "lhs": {"expr": "col", "name": col},
            "rhs": {"expr": "lit", "value": value}}


def _main(tmp_path, capsys, term, *flags, options=None):
    doc = {"a3d_plan": 1, "catalog": CATALOG, "term": term}
    if options is not None:
        doc["options"] = options
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    code = cli.main(["--plan", str(plan), *flags])
    out, err = capsys.readouterr()
    return code, out, err


def _run(tmp_path, capsys, term, *flags, options=None):
    code, out, err = _main(tmp_path, capsys, term, *flags, options=options)
    errors = [json.loads(line)["error"] for line in err.splitlines()]
    return code, out, errors


def test_sql_output_exits_zero(tmp_path, capsys):
    term = {"op": "filter", "pred": _cmp("<", "x", 5), "input": _rel("R")}
    code, out, errors = _run(tmp_path, capsys, term, "--emit",
                             "sql-clickhouse")
    assert (code, errors) == (0, [])
    assert out.startswith("SELECT ") and "WHERE x < 5" in out


@pytest.mark.parametrize("term, flags, code, kind", [
    ({"op": "filter", "pred": _cmp("~", "x", 5), "input": _rel("R")},
     (), 1, "parse"),
    ({"op": "filter", "pred": _cmp("<", "nope", 5), "input": _rel("R")},
     (), 2, "schema"),
    ({"op": "join", "left": _rel("R"), "right": _rel("S")},
     (), 3, "infeasible"),
    ({"op": "arrayFilter", "targets": [["v", "e"]],
      "pred": _cmp(">", "e", 3), "input": _rel("R")},
     ("--emit", "sql-generic"), 4, "dialect"),
], ids=["parse", "schema", "infeasible", "dialect"])
def test_failures_exit_with_their_code_and_kind(tmp_path, capsys, term,
                                                flags, code, kind):
    got, out, errors = _run(tmp_path, capsys, term, *flags)
    assert (got, errors) == (code, [kind])
    assert out == ""


@pytest.mark.parametrize("options", [{"mode": "bogus"}, {"emit": "bogus"}],
                         ids=["mode", "emit"])
def test_unknown_option_in_plan_document_is_a_parse_error(tmp_path, capsys,
                                                          options):
    term = {"op": "filter", "pred": _cmp("<", "x", 5), "input": _rel("R")}
    code, out, errors = _run(tmp_path, capsys, term, options=options)
    assert (code, errors, out) == (1, ["parse"], "")


def test_trace_writes_one_json_line_per_rewrite(tmp_path, capsys):
    # σ(x < 5, π(k, x, e, μ(v -> e, R))): the projection is pulled up and
    # the filter pushed below the arrayJoin
    term = {"op": "filter", "pred": _cmp("<", "x", 5),
            "input": {"op": "project", "cols": ["k", "x", "e"],
                      "input": {"op": "arrayJoin", "targets": [["v", "e"]],
                                "input": _rel("R")}}}
    code, _, err = _main(tmp_path, capsys, term, "--trace")
    assert code == 0
    schemas = {name: Schema(frozenset(rel.get("scalars", ())),
                            frozenset(rel.get("arrays", ())))
               for name, rel in CATALOG["relations"].items()}
    want = optimize(cli.term_from_json(term), schemas, trace=True).trace
    assert len(want) == 2
    assert [json.loads(line) for line in err.splitlines()] == [
        {"rule_id": rec["rule"], "path": rec["path"],
         "before_cost": rec["before_cost"], "after_cost": rec["after_cost"]}
        for rec in want]
