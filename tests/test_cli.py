"""Command-line exit-code contract.

Each documented exit code is driven through `cli.main` on a plan document
written to a temporary file; failures must also name their kind in the
single-line JSON record on stderr.
"""

import json

import pytest

from a3d import cli

CATALOG = {"relations": {
    "R": {"scalars": ["k", "x"], "arrays": ["v"]},
    "S": {"scalars": ["y"]},
}}


def _rel(name):
    return {"op": "relVar", "name": name}


def _cmp(op, col, value):
    return {"pred": "cmp", "op": op, "lhs": {"expr": "col", "name": col},
            "rhs": {"expr": "lit", "value": value}}


def _run(tmp_path, capsys, term, *flags):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"a3d_plan": 1, "catalog": CATALOG,
                                "term": term}))
    code = cli.main(["--plan", str(plan), *flags])
    out, err = capsys.readouterr()
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
