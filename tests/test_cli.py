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
from a3d.algebra import Derive, Filter, RelVar, Relation, Schema, evaluate
from a3d.functions import ScalarFn
from a3d.planner import MODES, optimize
from a3d.stats import ArrayStats, ScalarStats, TableStats
from a3d.predicates import Cmp, Col, Lit
from a3d.testkit import generate, make_pattern, pattern_schemas
from a3d.translate import DIALECTS

from gen_utils import default_relation, random_term
from golden_queries import CASES
from naive_interp import rows_equal_bag

SAMPLE_PLAN = Path(__file__).parent / "data" / "unnest_filter_plan.json"
SAMPLE_STATS = Path(__file__).parent / "data" / "unnest_filter_stats.json"
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
GEN_SPEC_FILE = Path(__file__).parent / "data" / "gen_spec.json"

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


@pytest.mark.parametrize("argv", [
    ("--plan", str(SAMPLE_PLAN), "--preagg-alpha", "1"),
    ("--plan", str(SAMPLE_PLAN), "--preagg-alpha"),
    ("--plan", str(SAMPLE_PLAN), "--bogus"),
    ("--plan", str(SAMPLE_PLAN), "--mode", "bogus"),
    ("--emit", "sql-generic"),
    ("gen", "--spec", "spec.json", "--bogus"),
    ("gen",),
], ids=["preagg-alpha", "preagg-alpha-without-value", "unknown-flag",
        "unknown-mode", "no-plan", "gen-unknown-flag", "gen-no-spec"])
def test_usage_error_exits_with_one_parse_record(capsys, argv):
    # argparse exited 2, the schema error's code, with a usage text and no
    # record.  --preagg-alpha went with pre-aggregation's condensation
    # threshold: the cost guard alone decides
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    record = json.loads(line)
    assert record["error"] == "parse"
    assert record["message"].startswith("a3d gen: " if argv[0] == "gen"
                                        else "a3d: ")


@pytest.mark.parametrize("argv", [("--help",), ("gen", "--help")],
                         ids=["a3d", "a3d-gen"])
def test_help_prints_the_usage_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as done:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (done.value.code, err) == (0, "")
    assert out.startswith("usage: a3d")


@pytest.mark.parametrize("plan", sorted(MALFORMED.glob("*_plan.json")),
                         ids=lambda path: path.stem)
def test_malformed_plan_document_exits_with_one_parse_record(capsys, plan):
    # each planned with exit 0 or ended in a traceback: a literal that is an
    # object or NaN, an affine parameter that is a string or missing, a
    # flag that is a string, correspondences that are not a list, and a
    # key that the format does not list in any object that names its keys
    code = cli.main(["--plan", str(plan), "--emit", "sql-generic"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "parse"


def _deepened(term, depth):
    """The JSON of `term` under filters on its column ``y1``, added until
    it nests exactly `depth` levels."""
    doc = cli.term_to_json(term)
    while cli._nesting(doc) < depth:
        doc = {"op": "filter", "pred": _cmp(">", "y1", 0), "input": doc}
    assert cli._nesting(doc) == depth
    return doc


def _derive_stack(n):
    """`n` scalar derives ``y<i> = 2 * y<i-1> + 1`` over R(y0)."""
    term = RelVar("R")
    for i in range(1, n + 1):
        term = Derive(f"y{i}", ScalarFn.of("affine", a=2, b=1),
                      (f"y{i - 1}",), term)
    return term, {"R": {"scalars": ["y0"]}}


# the deepest terms a plan document may hold: make_pattern A, whose
# ClickHouse SQL was the first to end in a RecursionError (at 496 unary
# operators), and a stack of scalar derives that every target can emit;
# the generic dialect cannot express pattern A's element filters
DEEP_TERMS = {
    "pattern-A": (make_pattern("A", 132), {"R": {
        "arrays": sorted(pattern_schemas("A", 132)["R"].arrays)}}),
    "derives": _derive_stack(390),
}


@pytest.mark.parametrize("mode", ["greedy", "enumerate"])
@pytest.mark.parametrize("shape", sorted(DEEP_TERMS))
def test_the_deepest_term_plans_and_emits_in_every_target(
        tmp_path, capsys, shape, mode):
    # a term nesting MAX_TERM_DEPTH levels plans and emits, or meets the
    # dialect's own limit, without a RecursionError; one level deeper is
    # a parse error, read without recursion
    term, relations = DEEP_TERMS[shape]
    plan = tmp_path / "plan.json"
    for depth in (cli.MAX_TERM_DEPTH, cli.MAX_TERM_DEPTH + 1):
        plan.write_text(json.dumps({
            "a3d_plan": 1, "catalog": {"relations": relations},
            "term": _deepened(term, depth), "options": {"mode": mode}}))
        for emit in cli.EMIT_TARGETS:
            code = cli.main(["--plan", str(plan), "--emit", emit])
            out, err = capsys.readouterr()
            errors = [json.loads(line)["error"] for line in err.splitlines()]
            if depth > cli.MAX_TERM_DEPTH:
                assert (code, out, errors) == (1, "", ["parse"])
            elif shape == "pattern-A" and emit == "sql-generic":
                assert (code, out, errors) == (4, "", ["dialect"])
            else:
                assert (code, errors) == (0, []) and out


@pytest.mark.parametrize("conjuncts", [500, 1000])
def test_a_wide_conjunction_ends_in_one_infeasible_record(
        tmp_path, capsys, monkeypatch, conjuncts):
    # σ(x > 0 ∧ … ∧ x > n-1)(R) nests five JSON levels, but preprocess
    # makes one filter of each conjunct, and planning the stack ended in a
    # RecursionError traceback: at 500 conjuncts in greedy and enumerate
    # mode, at 1,000 in every mode.  The oracle refuses 500 operators.
    # Preprocess splits a conjunction in its rounds, not by recursion, so
    # greedy and enumerate plan 500 conjuncts and emit them as a plan
    # document; the SQL and dot emitters still recurse too deeply
    pred = {"pred": "and", "parts": [_cmp(">", "x", i)
                                     for i in range(conjuncts)]}
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "a3d_plan": 1, "catalog": CATALOG,
        "term": {"op": "filter", "pred": pred, "input": _rel("R")}}))
    planned = []
    for mode in MODES:
        for emit in cli.EMIT_TARGETS:
            code = cli.main(["--plan", str(plan), "--mode", mode,
                             "--emit", emit])
            out, err = capsys.readouterr()
            if conjuncts == 500 and mode != "oracle" and emit == "plan":
                assert (code, err) == (0, ""), mode
                planned.append(out)
                continue
            assert (code, out) == (3, ""), (mode, emit)
            [line] = err.splitlines()
            assert json.loads(line)["error"] == "infeasible", (mode, emit)
    assert len(planned) == (2 if conjuncts == 500 else 0)
    # a stack of 500 filters nests deeper than a term may: the strict
    # reader refuses it with one parse record, and reads it back as it was
    # written once its bound admits that depth
    bound = cli.MAX_TERM_DEPTH
    for out in planned:
        plan.write_text(out)
        assert cli.main(["--plan", str(plan), "--emit", "plan"]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "parse"
        with monkeypatch.context() as patched:
            patched.setattr(cli, "MAX_TERM_DEPTH", 2 * bound)
            code = cli.main(["--plan", str(plan), "--mode", "greedy",
                             "--emit", "plan"])
        again, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert json.loads(again)["term"] == json.loads(out)["term"]


def test_a_recursion_error_while_emitting_is_one_infeasible_record(
        capsys, monkeypatch):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "to_sql", too_deep)
    code = cli.main(["--plan", str(SAMPLE_PLAN), "--emit", "sql-generic"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    assert json.loads(line) == {
        "error": "infeasible",
        "message": "the plan nests too deeply to emit as sql-generic within "
                   "Python's recursion limit"}


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
    # the filter pushed below the arrayJoin, and the search places the plan
    term = {"op": "filter", "pred": _cmp("<", "x", 5),
            "input": {"op": "project", "cols": ["k", "x", "e"],
                      "input": {"op": "arrayJoin", "targets": [["v", "e"]],
                                "input": _rel("R")}}}
    code, _, err = _main(tmp_path, capsys, term, "--trace")
    assert code == 0
    want = optimize(cli.term_from_json(term), _schemas(), trace=True).trace
    assert [rec["rule"] for rec in want] == ["project-pull", "R2.1",
                                              "placement"]
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

# a statistics document over CATALOG, one entry of each kind; CI plans the
# sample plan with it
STATS_DOC = json.loads(SAMPLE_STATS.read_text())


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
    {"R.x": dict(STATS_DOC["R.x"], null_fraction=1.5)},
    {"R.x": dict(STATS_DOC["R.x"], null_fraction=-0.1)},
    {"R.v": dict(STATS_DOC["R.v"], empty_fraction=1.2)},
    {"R.v": dict(STATS_DOC["R.v"], empty_fraction=-0.2)},
    {"R.v": dict(STATS_DOC["R.v"], row_stats=dict(
        STATS_DOC["R.v"]["row_stats"], null_fraction=2.0))},
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
        "null-fraction-above-one", "negative-null-fraction",
        "empty-fraction-above-one", "negative-empty-fraction",
        "row-stats-null-fraction-above-one",
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
    want = generate(cli.genspec_from_json(GEN_SPEC))
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
                dict(GEN_SPEC, columns=["x"]),
                # each generated rows with an empty schema
                {"row_count": 3},
                dict(GEN_SPEC, columns=None),
                dict(GEN_SPEC, columns=[])):
        spec.write_text(json.dumps(doc))
        assert cli.main(["gen", "--spec", str(spec)]) == 1, doc
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "parse", doc


@pytest.mark.parametrize("doc", [{"row_count": 3},
                                 dict(GEN_SPEC, columns=None),
                                 dict(GEN_SPEC, columns=[])],
                         ids=["missing", "null", "list"])
def test_gen_spec_columns_must_be_an_object(doc):
    with pytest.raises(cli.PlanParseError) as bad:
        cli.genspec_from_json(doc)
    assert str(bad.value) == "columns: must be an object"


def test_gen_spec_names_at_least_one_column():
    # an empty object made ``a3d gen`` write rows with an empty schema
    with pytest.raises(cli.PlanParseError) as bad:
        cli.genspec_from_json({"row_count": 2, "columns": {}})
    assert str(bad.value) == "columns: must name at least one column"


@pytest.mark.parametrize("spec", sorted(MALFORMED.glob("*_spec.json")),
                         ids=lambda path: path.stem)
def test_malformed_gen_spec_exits_with_one_parse_record(capsys, spec):
    code = cli.main(["gen", "--spec", str(spec)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "parse"


def test_sample_gen_spec_generates_its_relation(capsys):
    assert cli.main(["gen", "--spec", str(GEN_SPEC_FILE)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    want = generate(cli.genspec_from_json(
        json.loads(GEN_SPEC_FILE.read_text())))
    assert len(json.loads(out)["rows"]) == len(want.rows) > 0


@pytest.mark.parametrize("doc, message", [
    ({"row_count": 25, "colums": GEN_SPEC["columns"]},
     "unknown keys ['colums']"),
    (dict(GEN_SPEC, columns={"k": dict(GEN_SPEC["columns"]["k"],
                                       null_prob=0.5)}),
     "columns['k']: unknown keys ['null_prob']"),
    (dict(GEN_SPEC, columns={"vals": dict(GEN_SPEC["columns"]["vals"],
                                          empty_prob=0.5)}),
     "columns['vals']: unknown keys ['empty_prob']"),
], ids=["spec", "scalar-column", "array-column"])
def test_gen_rejects_a_key_the_spec_does_not_list(tmp_path, capsys, doc,
                                                  message):
    # a misspelt "columns" generated rows with no columns, and a misspelt
    # probability was left at its default
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert cli.main(["gen", "--spec", str(spec)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "parse", "message": message}


############################################################
# every object of the three documents
############################################################

def _every_object_plan():
    """A plan document with an object of each type the format names."""
    scan = {"op": "arrayJoin", "targets": [["f", "e"]],
            "input": {"op": "arrayFilter", "targets": [["v", "f"]],
                      "pred": {"pred": "not", "part": _cmp("<", "f", 3)},
                      "input": _rel("R")}}
    neg_y = {"pred": "cmp", "op": ">",
             "lhs": {"expr": "apply", "fn": {"name": "neg"},
                     "args": [{"expr": "col", "name": "y"}]},
             "rhs": {"expr": "lit", "value": 0}}
    term = {"op": "filter",
            "pred": {"pred": "and", "parts": [
                _cmp("<", "x", 5),
                {"pred": "or", "parts": [neg_y, _cmp("=", "k", 1)]}]},
            "input": {"op": "join", "left": scan, "right": _rel("S")}}
    term = {"op": "derive", "output": "z",
            "fn": {"name": "affine", "params": {"a": 2, "b": 1}},
            "args": ["x"], "input": term}
    term = {"op": "aggregate", "keys": ["k"],
            "aggs": [{"fn": "sum", "arg": "z", "alias": "s"}],
            "input": {"op": "project", "cols": ["k", "z"], "input": term}}
    return {"a3d_plan": 1, "catalog": dict(CATALOG, correspondences=[]),
            "options": {"mode": "greedy"}, "term": term}


def _with_row_stats(kind):
    """STATS_DOC with the elements of ``R.v`` described as `kind`."""
    entry = {"uniform": STATS_DOC["R.v"]["row_stats"],
             "exact": {"kind": "exact", "freq": [[1, 0.5], [2, 0.5]]},
             "clustered": {"kind": "clustered",
                           "clusters": [[0, 5, 1.0, 3]]}}[kind]
    return dict(STATS_DOC, **{"R.v": dict(STATS_DOC["R.v"],
                                          row_stats=entry)})


_DERIVE = ["term", "input", "input"]
_FILTER = _DERIVE + ["input"]
_SCAN = _FILTER + ["input", "left"]
# (document, the document, the path of keys from its root to one object)
EVERY_OBJECT = {
    "envelope": ("plan", _every_object_plan(), []),
    "catalog": ("plan", _every_object_plan(), ["catalog"]),
    "relation": ("plan", _every_object_plan(), ["catalog", "relations", "R"]),
    "options": ("plan", _every_object_plan(), ["options"]),
    "aggregate": ("plan", _every_object_plan(), ["term"]),
    "agg-spec": ("plan", _every_object_plan(), ["term", "aggs", 0]),
    "project": ("plan", _every_object_plan(), ["term", "input"]),
    "derive": ("plan", _every_object_plan(), _DERIVE),
    "function": ("plan", _every_object_plan(), _DERIVE + ["fn"]),
    "filter": ("plan", _every_object_plan(), _FILTER),
    "and": ("plan", _every_object_plan(), _FILTER + ["pred"]),
    "cmp": ("plan", _every_object_plan(), _FILTER + ["pred", "parts", 0]),
    "col": ("plan", _every_object_plan(),
            _FILTER + ["pred", "parts", 0, "lhs"]),
    "lit": ("plan", _every_object_plan(),
            _FILTER + ["pred", "parts", 0, "rhs"]),
    "or": ("plan", _every_object_plan(), _FILTER + ["pred", "parts", 1]),
    "apply": ("plan", _every_object_plan(),
              _FILTER + ["pred", "parts", 1, "parts", 0, "lhs"]),
    "join": ("plan", _every_object_plan(), _FILTER + ["input"]),
    "arrayJoin": ("plan", _every_object_plan(), _SCAN),
    "arrayFilter": ("plan", _every_object_plan(), _SCAN + ["input"]),
    "not": ("plan", _every_object_plan(), _SCAN + ["input", "pred"]),
    "relVar": ("plan", _every_object_plan(), _SCAN + ["input", "input"]),
    "exact-stats": ("stats", STATS_DOC, ["R.k"]),
    "uniform-stats": ("stats", STATS_DOC, ["R.x"]),
    "clustered-stats": ("stats", STATS_DOC, ["S.y"]),
    "array-stats": ("stats", STATS_DOC, ["R.v"]),
    **{f"{kind}-row-stats": ("stats", _with_row_stats(kind),
                             ["R.v", "row_stats"])
       for kind in ("exact", "uniform", "clustered")},
    "gen-spec": ("spec", GEN_SPEC, []),
    "scalar-column": ("spec", GEN_SPEC, ["columns", "k"]),
    "dist": ("spec", GEN_SPEC, ["columns", "k", "dist"]),
    "array-column": ("spec", GEN_SPEC, ["columns", "vals"]),
    "elem": ("spec", GEN_SPEC, ["columns", "vals", "elem"]),
    "length": ("spec", GEN_SPEC, ["columns", "vals", "length"]),
}


def _run_document(tmp_path, capsys, kind, doc):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    argv = {"plan": ["--plan", str(path)],
            "stats": ["--plan", str(SAMPLE_PLAN), "--stats", str(path)],
            "spec": ["gen", "--spec", str(path)]}[kind]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", sorted(EVERY_OBJECT))
def test_an_unknown_key_in_any_object_is_one_parse_record_at_its_path(
        tmp_path, capsys, name):
    kind, doc, at = EVERY_OBJECT[name]
    doc = json.loads(json.dumps(doc))
    code, _, err = _run_document(tmp_path, capsys, kind, doc)
    assert (code, err) == (0, ""), err  # the document itself is good
    obj = doc
    for key in at:
        obj = obj[key]
    obj["bogus"] = 1
    code, out, err = _run_document(tmp_path, capsys, kind, doc)
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    record = json.loads(line)
    where = (["stats"] if kind == "stats" else []) + at
    assert record == {"error": "parse", "message": str(cli.PlanParseError(
        "unknown keys ['bogus']", *where))}
