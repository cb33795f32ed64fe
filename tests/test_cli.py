"""Command-line exit-code contract and document codecs.

Each documented exit code is driven through `cli.main` on a plan document
written to a temporary file; failures must also name their kind in the
single-line JSON record on stderr.  The term codec must round-trip every
term the optimizer takes or returns, and the statistics and generation
documents are parsed from files the tests write.
"""

import json
import random
import re
from pathlib import Path

import pytest

from a3d import cli
from a3d.algebra import Relation, Schema, evaluate
from a3d.planner import MODES, optimize
from a3d.stats import ArrayStats, ScalarStats, TableStats
from a3d.testkit import generate, genspec_from_json
from a3d.translate import DIALECTS

from gen_utils import default_relation, random_term
from golden_queries import CASES
from naive_interp import rows_equal_bag

SAMPLE_PLAN = Path(__file__).parent / "data" / "unnest_filter_plan.json"
JOIN_CHAIN_PLAN = Path(__file__).parent / "data" / "join_chain3_plan.json"
EITHER_SIDE_PLAN = Path(__file__).parent / "data" / \
    "either_side_join_plan.json"
OVERWRITTEN_KEY_PLAN = Path(__file__).parent / "data" / \
    "overwritten_key_plan.json"
CAPTURE_PLAN = Path(__file__).parent / "data" / "capture_plan.json"
# documents each reader must reject; CI also runs them through the console
# script, plan documents as --plan and statistics as --stats
MALFORMED = Path(__file__).parent / "data" / "malformed"
INVALID = Path(__file__).parent / "data" / "invalid"

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


def test_every_dialect_is_an_emit_target():
    assert cli.EMIT_TARGETS == ("plan", "sql-clickhouse", "sql-generic",
                                "dot")
    assert {f"sql-{name}" for name in DIALECTS} <= set(cli.EMIT_TARGETS)


@pytest.mark.parametrize("dialect", sorted(DIALECTS))
def test_every_dialect_renders_the_sample_plan(capsys, dialect):
    # the plan document the CI workflow runs through the console script
    code = cli.main(["--plan", str(SAMPLE_PLAN), "--emit", f"sql-{dialect}"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.startswith("SELECT ") and "WHERE x < 5" in out


def test_enumerate_plans_the_join_chain_document(capsys):
    # the three-relation chain the CI workflow plans through the console
    # script: the enumerator drops dominated plans and says how many
    code = cli.main(["--plan", str(JOIN_CHAIN_PLAN), "--mode", "enumerate",
                     "--counters", "--emit", "sql-clickhouse"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out.startswith("SELECT ") and out.count("INNER JOIN") == 2
    [line] = err.splitlines()
    counters = json.loads(line)
    assert counters["relations"] == 3 and counters["dominated"] > 0


def test_enumerate_runs_an_either_side_filter_once(capsys):
    # the two-relation join the CI workflow plans through the console
    # script: k >= 5 above the join reads only the join key, so it may run
    # on either side, but on one side only
    code = cli.main(["--plan", str(EITHER_SIDE_PLAN), "--mode",
                     "enumerate", "--counters", "--emit", "sql-clickhouse"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.startswith("SELECT ") and out.count("k >= 5") == 1


@pytest.mark.parametrize("mode", ("greedy", "enumerate", "oracle"))
def test_an_overwritten_join_key_is_derived_above_the_join(capsys, mode):
    # the document the CI workflow plans through the console script: the
    # derive k := neg(k) above the join rewrites its key, so it must stay
    # the plan's root in every mode
    code = cli.main(["--plan", str(OVERWRITTEN_KEY_PLAN), "--mode", mode])
    out, _ = capsys.readouterr()
    assert code == 0
    term = json.loads(out)["term"]
    assert term["op"] == "derive"
    assert (term["output"], term["input"]["op"]) == ("k", "join")


@pytest.mark.parametrize("mode", ("greedy", "enumerate", "oracle"))
def test_a_derive_that_would_capture_a_join_column_plans_equal(capsys, mode):
    # the document the CI workflow plans through the console script:
    # δ[x := neg(a)](r(k, a) ⋈ s(k, x)).  On r's side of the join the
    # derive's x would meet s's x, and the join would match on it by
    # accident: enumerate skips that one candidate (a capture skip), and
    # every mode's plan evaluates equal to the input
    code = cli.main(["--plan", str(CAPTURE_PLAN), "--mode", mode,
                     "--counters"])
    out, err = capsys.readouterr()
    assert code == 0
    term, schemas, _, _ = cli.parse_plan_document(
        json.loads(CAPTURE_PLAN.read_text()))
    db = {"r": Relation.build(schemas["r"], [
              {"k": i % 3, "a": i} for i in range(5)]),
          "s": Relation.build(schemas["s"], [
              {"k": j % 2, "x": 10 + j} for j in range(4)])}
    want = list(evaluate(term, db).rows)
    got = list(evaluate(cli.term_from_json(json.loads(out)["term"]),
                        db).rows)
    assert want and rows_equal_bag(want, got)
    if mode == "enumerate":
        assert json.loads(err)["capture_skips"] == 1


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


@pytest.mark.parametrize("options", [
    {"mode": "bogus"}, {"emit": "bogus"}, {"preagg_alpha": "x"},
    {"preagg_alpha": [1]},
], ids=["mode", "emit", "preagg-alpha-string", "preagg-alpha-list"])
def test_unknown_option_in_plan_document_is_a_parse_error(tmp_path, capsys,
                                                          options):
    term = {"op": "filter", "pred": _cmp("<", "x", 5), "input": _rel("R")}
    code, out, errors = _run(tmp_path, capsys, term, options=options)
    assert (code, errors, out) == (1, ["parse"], "")


def test_preagg_alpha_flag_must_be_finite(tmp_path, capsys):
    # a NaN threshold turned pre-aggregation off without a word, because
    # no group count is below NaN
    term = {"op": "filter", "pred": _cmp("<", "x", 5), "input": _rel("R")}
    code, out, errors = _run(tmp_path, capsys, term, "--preagg-alpha", "nan")
    assert (code, errors, out) == (1, ["parse"], "")


@pytest.mark.parametrize("plan", sorted(MALFORMED.glob("*_plan.json")),
                         ids=lambda path: path.stem)
def test_malformed_plan_document_exits_with_one_parse_record(capsys, plan):
    # each planned with exit 0 or ended in a traceback: a literal that is an
    # object or NaN, an affine parameter that is a string or missing, a
    # flag that is a string, correspondences that are not a list
    code = cli.main(["--plan", str(plan), "--emit", "sql-generic"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "parse"


# how the message of each invalid plan document ends
INVALID_MESSAGES = {
    "array_filter_apply_arity_plan": ": wrong arity",
    "filter_apply_arity_plan": ": wrong arity",
    # the smallest mixed column, whatever order hashing puts the sets in
    "join_mixed_kinds_plan": "join column 'a' has mixed kinds",
}


@pytest.mark.parametrize("emit", ["plan", "sql-generic", "sql-clickhouse"])
@pytest.mark.parametrize("plan", sorted(INVALID.glob("*_plan.json")),
                         ids=lambda path: path.stem)
def test_invalid_plan_exits_with_one_schema_record(capsys, plan, emit):
    # an `apply` with the wrong number of arguments in a filter or an
    # arrayFilter predicate planned, then ended in a traceback from the
    # SQL emitter; a join of a scalar and an array column named whichever
    # mixed column its set iteration met first
    code = cli.main(["--plan", str(plan), "--emit", emit])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    record = json.loads(line)
    assert record["error"] == "schema"
    assert record["message"].endswith(INVALID_MESSAGES[plan.stem])


def test_parse_error_names_the_path_to_the_bad_value():
    doc = json.loads((MALFORMED / "lit_nan_plan.json").read_text())
    with pytest.raises(cli.PlanParseError) as bad:
        cli.parse_plan_document(doc)
    assert str(bad.value).startswith("term['pred']['rhs']['value']: ")
    doc["term"]["pred"] = {"pred": "and", "parts": [
        _cmp("<", "x", 5), {"pred": "not", "part": {"pred": "cmp"}}]}
    with pytest.raises(cli.PlanParseError) as bad:
        cli.parse_plan_document(doc)
    assert str(bad.value) == "term['pred']['parts'][1]['part']['op']: " \
                             "is missing"


def test_trace_writes_one_json_line_per_rewrite(tmp_path, capsys):
    # σ(x < 5, π(k, x, e, μ(v -> e, R))): the projection is pulled up and
    # the filter pushed below the arrayJoin
    term = {"op": "filter", "pred": _cmp("<", "x", 5),
            "input": {"op": "project", "cols": ["k", "x", "e"],
                      "input": {"op": "arrayJoin", "targets": [["v", "e"]],
                                "input": _rel("R")}}}
    code, _, err = _main(tmp_path, capsys, term, "--trace")
    assert code == 0
    want = optimize(cli.term_from_json(term), _schemas(), trace=True).trace
    assert len(want) == 2
    assert [json.loads(line) for line in err.splitlines()] == [
        {"rule_id": rec["rule"], "path": rec["path"],
         "before_cost": rec["before_cost"], "after_cost": rec["after_cost"]}
        for rec in want]


@pytest.mark.parametrize("mode", MODES)
def test_counters_go_to_stderr_as_one_json_object(tmp_path, capsys, mode):
    term = {"op": "filter", "pred": _cmp("<", "x", 5),
            "input": {"op": "project", "cols": ["k", "x", "e"],
                      "input": {"op": "arrayJoin", "targets": [["v", "e"]],
                                "input": _rel("R")}}}
    flags = ("--mode", mode, "--emit", "sql-clickhouse")
    code, plain, err = _main(tmp_path, capsys, term, *flags)
    assert (code, err) == (0, "")
    code, out, err = _main(tmp_path, capsys, term, *flags, "--counters")
    assert (code, out) == (0, plain)
    [line] = err.splitlines()
    counters = json.loads(line)
    want = optimize(cli.term_from_json(term), _schemas(), mode=mode).counters
    assert counters == json.loads(json.dumps(want))
    assert counters["rules"] and all(
        0 <= fires <= attempts for attempts, fires in
        counters["rules"].values())


############################################################
# term codec
############################################################

def _round_trip(term):
    return cli.term_from_json(json.loads(json.dumps(cli.term_to_json(term))))


def test_term_codec_round_trips_golden_and_random_terms_and_plans():
    terms = []
    for case in CASES.values():
        term, schemas, stats, corr, opt_kw, _ = case()
        terms += [term, optimize(term, schemas, stats=stats,
                                 correspondences=corr, **opt_kw).term]
    for seed in range(400):
        rng = random.Random(5000 + seed)
        nrel = rng.choice((1, 2))
        rels = [default_relation(rng, "r%d" % i, with_key=(nrel > 1))
                for i in range(nrel)]
        term = random_term(rng, rels, n_ops=rng.randint(1, 5))
        schemas = {tr.name: tr.schema for tr in rels}
        mode = ("greedy", "enumerate")[seed % 2]
        terms += [term, optimize(term, schemas, mode=mode).term]
    for term in terms:
        assert _round_trip(term) == term
    # every node, predicate and expression type, a map derive, function
    # parameters and an array literal were round-tripped
    seen = "\n".join(map(repr, terms))
    for shape in ("RelVar", "Filter", "Project", "Join", "ArrayJoin",
                  "ArrayFilter", "Derive", "Aggregate", "And", "Or", "Not",
                  "Apply"):
        assert re.search(rf"\b{shape}\(", seen), shape
    for detail in ("is_map=True", "params=((", "Lit(value=())"):
        assert detail in seen, detail


def test_correspondences_reach_the_plan_document():
    doc = {"a3d_plan": 1, "term": _rel("R"), "catalog": {
        "relations": {"R": {"scalars": ["k"], "arrays": ["u", "v"]}},
        "correspondences": [["u", "v"]]}}
    _, schemas, corr, options = cli.parse_plan_document(doc)
    assert (corr, options) == ((("u", "v"),), {})
    assert schemas["R"] == Schema.of(scalars=["k"], arrays=["u", "v"])
    doc["catalog"]["correspondences"] = [["u", "k"]]
    with pytest.raises(cli.SchemaError):
        cli.parse_plan_document(doc)


############################################################
# statistics document
############################################################

STATS_DOC = {
    "R.k": {"kind": "exact", "row_count": 10, "ndv": 2,
            "freq": [[1, 0.6], [2, 0.4]]},
    "R.x": {"kind": "uniform", "row_count": 10, "ndv": 5, "lo": 0, "hi": 9,
            "null_fraction": 0.1},
    "S.y": {"kind": "clustered", "row_count": 4,
            "clusters": [[0, 5, 0.5, 3], [10, 20, 0.5, 4]]},
    "R.v": {"kind": "array", "row_count": 10, "avg_array_len": 2.5,
            "empty_fraction": 0.2,
            "row_stats": {"kind": "uniform", "ndv": 7, "lo": 1, "hi": 7}},
}


def _schemas():
    return {name: Schema(frozenset(rel.get("scalars", ())),
                         frozenset(rel.get("arrays", ())))
            for name, rel in CATALOG["relations"].items()}


def test_stats_document_parses_every_kind():
    got = cli.parse_stats_document(STATS_DOC, _schemas())
    assert got == {
        "R": TableStats(10, {
            "k": ScalarStats("exact", 2, 0.0, freqs=((1, 0.6), (2, 0.4)),
                             lo=1, hi=2, numeric=True),
            "x": ScalarStats("uniform", 5, 0.1, lo=0, hi=9, numeric=True),
        }, {"v": ArrayStats(2.5, 0.2, ScalarStats("uniform", 7, 0.0, lo=1,
                                                  hi=7, numeric=True))}),
        "S": TableStats(4, {"y": ScalarStats(
            "clustered", 7, 0.0, lo=0.0, hi=20.0,
            clusters=((0.0, 5.0, 0.5, 3), (10.0, 20.0, 0.5, 4)),
            numeric=True)}, {}),
    }


def test_stats_flag_plans_with_the_parsed_statistics(tmp_path, capsys):
    term = {"op": "filter", "pred": _cmp("<", "x", 5), "input": _rel("R")}
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps(STATS_DOC))
    code, out, errors = _run(tmp_path, capsys, term, "--stats", str(stats),
                             "--emit", "dot")
    assert (code, errors) == (0, [])
    assert out.startswith("digraph")


def test_dot_is_annotated_with_estimates_without_statistics(capsys):
    code = cli.main(["--plan", str(SAMPLE_PLAN), "--emit", "dot"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    labels = [line for line in out.splitlines() if "[label=" in line]
    assert labels and all("rows\u2248" in line and "cost\u2248" in line
                          for line in labels)


@pytest.mark.parametrize("doc", [
    [],
    {"Rk": STATS_DOC["R.k"]},
    {"T.k": STATS_DOC["R.k"]},
    {"R.k": 3},
    {"R.k": {"kind": "exact", "row_count": -1}},
    {"R.k": STATS_DOC["R.k"], "R.x": dict(STATS_DOC["R.x"], row_count=11)},
    {"R.x": dict(STATS_DOC["R.v"])},
    {"R.v": dict(STATS_DOC["R.v"], lo=0)},
    {"R.v": STATS_DOC["R.x"]},
    {"R.x": dict(STATS_DOC["R.x"], avg_array_len=1)},
    {"R.x": {"kind": "normal", "row_count": 10}},
    {"R.k": {"kind": "exact", "row_count": 10, "freq": 3}},
    {"R.x": {"kind": "uniform", "row_count": 10}},
    {"S.y": {"kind": "clustered", "row_count": 4, "clusters": []}},
    {"R.x": dict(STATS_DOC["R.x"], null_fraction="lots")},
    {"R.x": dict(STATS_DOC["R.x"], ndv="three")},
    {"R.k": dict(STATS_DOC["R.k"], freq=[[1]])},
    {"S.y": dict(STATS_DOC["S.y"], clusters=[[1, 2]])},
    {"R.v": dict(STATS_DOC["R.v"], avg_array_len="long")},
    {"R.v": dict(STATS_DOC["R.v"], row_stats=5)},
    {"R.v": dict(STATS_DOC["R.v"], row_stats=dict(
        STATS_DOC["R.v"]["row_stats"], row_count=10))},
    {"R.x": dict(STATS_DOC["R.x"], lo="a")},
    {"R.x": dict(STATS_DOC["R.x"], hi=[9])},
    *(json.loads(path.read_text())
      for path in sorted(MALFORMED.glob("*_stats.json"))),
], ids=["not-an-object", "no-dot", "unknown-relation", "entry-not-object",
        "bad-row-count", "row-count-disagrees", "array-on-scalar",
        "unknown-array-key", "scalar-on-array", "unknown-scalar-key",
        "unknown-kind", "freq-not-list", "uniform-without-ndv",
        "clustered-without-clusters", "null-fraction-not-a-number",
        "ndv-not-a-number", "freq-not-pairs", "clusters-not-quadruples",
        "avg-array-len-not-a-number", "row-stats-not-an-object",
        "row-count-in-row-stats",
        "lo-not-a-number", "hi-not-a-number",
        *(path.stem for path in sorted(MALFORMED.glob("*_stats.json")))])
def test_bad_stats_document_exits_with_parse_error(tmp_path, capsys, doc):
    term = {"op": "filter", "pred": _cmp("<", "x", 5), "input": _rel("R")}
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps(doc))
    code, out, errors = _run(tmp_path, capsys, term, "--stats", str(stats))
    assert (code, errors, out) == (1, ["parse"], "")


@pytest.mark.parametrize("field,value", [
    ("null_fraction", float("nan")),
    ("null_fraction", float("inf")),
    ("lo", float("-inf")),
    ("ndv", 3.9),
], ids=["nan", "infinity", "minus-infinity", "fractional-ndv"])
def test_non_finite_or_fractional_stats_number_exits_with_parse_error(
        tmp_path, capsys, field, value):
    # Python's json reads NaN and Infinity.  With a NaN null fraction this
    # document planned the sample plan with exit 0, estimating x < 5 at 0
    # rows, and an ndv of 3.9 was read as 3
    entry = {"kind": "uniform", "row_count": 10, "ndv": 5, "lo": 0,
             "hi": 9, "null_fraction": 0.0}
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({"R.x": dict(entry, **{field: value})}))
    code = cli.main(["--plan", str(SAMPLE_PLAN), "--stats", str(stats)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert [json.loads(line)["error"] for line in err.splitlines()] == \
        ["parse"]


@pytest.mark.parametrize("text", [None, "{not json"],
                         ids=["missing", "not-json"])
def test_unreadable_stats_file_exits_with_parse_error(tmp_path, capsys,
                                                      text):
    term = _rel("R")
    stats = tmp_path / "stats.json"
    if text is not None:
        stats.write_text(text)
    code, out, errors = _run(tmp_path, capsys, term, "--stats", str(stats))
    assert (code, errors, out) == (1, ["parse"], "")


############################################################
# a3d gen
############################################################

GEN_SPEC = {"row_count": 25, "seed": 3, "columns": {
    "k": {"kind": "scalar", "dist": {"name": "uniform", "ndv": 4}},
    "vals": {"kind": "array", "elem": {"name": "zipf", "s": 1.1, "ndv": 9},
             "length": {"name": "uniform", "ndv": 4},
             "empty_probability": 0.2},
}}


def test_gen_writes_the_generated_relation(tmp_path, capsys):
    spec, out = tmp_path / "spec.json", tmp_path / "rel.json"
    spec.write_text(json.dumps(GEN_SPEC))
    assert cli.main(["gen", "--spec", str(spec), "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    doc = json.loads(out.read_text())
    want = generate(genspec_from_json(GEN_SPEC))
    assert doc["a3d_relation"] == 1
    assert doc["schema"] == {"scalars": ["k"], "arrays": ["vals"]}
    assert [{c: tuple(v) if isinstance(v, list) else v
             for c, v in row.items()} for row in doc["rows"]] \
        == list(want.rows)
    assert len(doc["rows"]) == 25


def test_gen_rejects_a_bad_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    for doc in ({"columns": {}},
                dict(GEN_SPEC, row_count=None),
                dict(GEN_SPEC, columns={"k": {
                    "kind": "scalar",
                    "dist": {"name": "uniform", "ndv": [1]}}}),
                dict(GEN_SPEC, columns={"k": {
                    "kind": "scalar",
                    "dist": {"name": "uniform", "ndv": True}}}),
                dict(GEN_SPEC, columns={"k": dict(GEN_SPEC["columns"]["k"],
                                                  null_probability=None)}),
                dict(GEN_SPEC, columns=["x"])):
        spec.write_text(json.dumps(doc))
        assert cli.main(["gen", "--spec", str(spec)]) == 1, doc
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "parse", doc
