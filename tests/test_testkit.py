"""Tests for deterministic data generation and the scaling pattern builders."""

import json
from pathlib import Path

import pytest

from a3d.algebra import (
    ArrayJoin, Derive, Filter, RelVar, Schema, output_schema, walk,
)
from a3d.cli import genspec_from_json
from a3d.planner import optimize
from a3d.predicates import And, Cmp
from a3d.stats import build_table_stats
from a3d.testkit import (
    ArrayColumn, Dist, GenSpec, ScalarColumn, SplitMix64, generate,
    make_pattern, pattern_schemas,
)

from naive_interp import naive_eval

DATA = Path(__file__).parent / "data"


############################################################
# PRNG
############################################################

def test_splitmix64_reference_vectors():
    doc = json.loads((DATA / "splitmix64.json").read_text())
    assert doc["generator"] == "splitmix64"
    for vec in doc["vectors"]:
        rng = SplitMix64(vec["seed"])
        got = [f"0x{rng.next_u64():016x}" for _ in vec["outputs"]]
        assert got == vec["outputs"]


def test_splitmix64_known_first_output():
    # the widely published first output for seed 0
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_splitmix64_float_range():
    rng = SplitMix64(7)
    for _ in range(1000):
        f = rng.next_float()
        assert 0.0 <= f < 1.0


############################################################
# relation generation
############################################################

def _basic_spec(seed=0, rows=200):
    return GenSpec(rows, {
        "k": ScalarColumn(Dist("uniform", ndv=10)),
        "x": ScalarColumn(Dist("normal", mu=50, sigma=10)),
        "vals": ArrayColumn(Dist("zipf", s=1.2, ndv=20),
                            Dist("uniform", ndv=6),
                            empty_probability=0.2),
    }, seed=seed)


def test_generate_is_deterministic():
    a = generate(_basic_spec(seed=11))
    b = generate(_basic_spec(seed=11))
    assert a.schema == b.schema
    assert a.rows == b.rows


def test_generate_seed_changes_data():
    a = generate(_basic_spec(seed=1))
    b = generate(_basic_spec(seed=2))
    assert a.rows != b.rows


def test_generate_zero_rows_keeps_schema():
    rel = generate(_basic_spec(rows=0))
    assert rel.schema == Schema(frozenset({"k", "x"}), frozenset({"vals"}))
    assert rel.rows == ()


def test_uniform_frequencies_balanced():
    spec = GenSpec(10_000, {"u": ScalarColumn(Dist("uniform", ndv=10))},
                   seed=3)
    rel = generate(spec)
    counts = {}
    for r in rel.rows:
        counts[r["u"]] = counts.get(r["u"], 0) + 1
    assert set(counts) == set(range(10))
    for v in range(10):
        assert abs(counts[v] / 10_000 - 0.1) < 0.02


def test_empty_fraction_tracks_probability():
    spec = GenSpec(10_000, {
        "a": ArrayColumn(Dist("uniform", ndv=5), Dist("uniform", ndv=4),
                         empty_probability=0.6)}, seed=4)
    rel = generate(spec)
    frac = sum(1 for r in rel.rows if r["a"] == ()) / 10_000
    assert abs(frac - 0.6) < 0.05


def test_nonempty_arrays_have_positive_length():
    rel = generate(_basic_spec(rows=2_000))
    assert all(r["vals"] == () or len(r["vals"]) >= 1 for r in rel.rows)
    assert any(r["vals"] == () for r in rel.rows)


def test_null_fraction_tracks_probability():
    spec = GenSpec(10_000, {
        "s": ScalarColumn(Dist("uniform", ndv=5), null_probability=0.3)},
        seed=5)
    rel = generate(spec)
    frac = sum(1 for r in rel.rows if r["s"] is None) / 10_000
    assert abs(frac - 0.3) < 0.05


def test_zipf_ranks_by_frequency():
    spec = GenSpec(20_000, {"z": ScalarColumn(Dist("zipf", s=1.2, ndv=20))},
                   seed=6)
    rel = generate(spec)
    counts = [0] * 20
    for r in rel.rows:
        counts[r["z"]] += 1
    assert counts[0] > counts[4] > counts[19]
    assert counts[0] > 3 * counts[19]


def test_normal_centres_on_mu():
    spec = GenSpec(10_000, {
        "n": ScalarColumn(Dist("normal", mu=100, sigma=5))}, seed=7)
    rel = generate(spec)
    vals = [r["n"] for r in rel.rows]
    assert all(isinstance(v, int) for v in vals)
    mean = sum(vals) / len(vals)
    assert abs(mean - 100) < 0.5
    assert any(v != 100 for v in vals)


############################################################
# distribution classification by the statistics builder
############################################################

def test_build_stats_classifies_uniform():
    spec = GenSpec(50_000, {"u": ScalarColumn(Dist("uniform", ndv=100))},
                   seed=8)
    st = build_table_stats(generate(spec))
    assert st.scalars["u"].kind == "uniform"


def test_build_stats_classifies_zipf_as_clustered():
    spec = GenSpec(50_000, {"z": ScalarColumn(Dist("zipf", s=1.1, ndv=100))},
                   seed=9)
    st = build_table_stats(generate(spec))
    assert st.scalars["z"].kind == "clustered"


############################################################
# scaling patterns
############################################################

def test_pattern_a_single_block_shape():
    term = make_pattern("A", 1)
    assert isinstance(term, Filter)
    assert isinstance(term.child, Derive)
    assert isinstance(term.child.child, ArrayJoin)
    assert isinstance(term.child.child.child, RelVar)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_pattern_a_operator_count(n):
    term = make_pattern("A", n)
    assert sum(1 for _ in walk(term)) == 3 * n + 1  # 3n unary ops + scan


def test_pattern_b_shape():
    term = make_pattern("B", 2)
    assert isinstance(term, Filter)
    assert isinstance(term.pred, And) and len(term.pred.parts) == 2
    mu = term.child
    assert isinstance(mu, ArrayJoin) and len(mu.targets) == 2

    single = make_pattern("B", 1)
    assert isinstance(single.pred, Cmp)


@pytest.mark.parametrize("kind,n", [("A", 3), ("B", 4)])
def test_patterns_are_schema_checkable(kind, n):
    term = make_pattern(kind, n)
    schemas = pattern_schemas(kind, n)
    output_schema(term, schemas)  # raises if inconsistent


def test_pattern_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_pattern("A", 0)
    with pytest.raises(ValueError):
        make_pattern("C", 3)
    with pytest.raises(ValueError):
        pattern_schemas("Z", 1)


def test_pattern_a_optimizes_end_to_end():
    term = make_pattern("A", 4)
    schemas = pattern_schemas("A", 4)
    res = optimize(term, schemas, mode="enumerate")
    assert res.cost > 0


def test_generated_data_evaluates_under_pattern():
    n = 2
    spec = GenSpec(60, {
        f"a{i}": ArrayColumn(Dist("uniform", ndv=40), Dist("uniform", ndv=4),
                             empty_probability=0.2)
        for i in range(1, n + 1)}, seed=10)
    rel = generate(spec)
    term = make_pattern("A", n)
    rows = naive_eval(term, {"R": rel})
    assert rows  # some elements pass both filters
    for row in rows:
        assert row["y1"] == 2 * row["e1"] + 1 and row["y1"] > 41
        assert row["y2"] == 2 * row["e2"] + 1 and row["y2"] > 42


############################################################
# JSON spec parsing
############################################################

def test_genspec_from_json_round_trip():
    doc = {
        "row_count": 50,
        "seed": 3,
        "columns": {
            "k": {"kind": "scalar", "dist": {"name": "uniform", "ndv": 4}},
            "v": {"kind": "array",
                  "elem": {"name": "zipf", "s": 1.5, "ndv": 9},
                  "length": {"name": "uniform", "ndv": 5},
                  "empty_probability": 0.25},
        },
    }
    spec = genspec_from_json(doc)
    assert spec == GenSpec(50, {
        "k": ScalarColumn(Dist("uniform", ndv=4)),
        "v": ArrayColumn(Dist("zipf", s=1.5, ndv=9),
                         Dist("uniform", ndv=5), 0.25),
    }, seed=3)
    generate(spec)  # and it actually runs


@pytest.mark.parametrize("doc", [
    "not an object",
    {},  # no row_count
    {"row_count": 5, "columns": {"c": {"kind": "matrix"}}},
    {"row_count": 5,
     "columns": {"c": {"kind": "scalar", "dist": {"name": "poisson"}}}},
    {"row_count": 5,
     "columns": {"c": {"kind": "scalar",
                       "dist": {"name": "uniform", "ndv": 0}}}},
    {"row_count": 5,
     "columns": {"c": {"kind": "scalar",
                       "dist": {"name": "uniform", "ndv": 3},
                       "null_probability": 1.5}}},
    {"row_count": -1, "columns": {}},
])
def test_genspec_from_json_rejects_bad_docs(doc):
    with pytest.raises(ValueError):
        genspec_from_json(doc)


@pytest.mark.parametrize("doc", [
    {"row_count": 2.7, "columns": {"k": {
        "kind": "scalar", "dist": {"name": "uniform", "ndv": 3.9}}}},
    {"row_count": 3, "columns": {"k": {
        "kind": "scalar", "dist": {"name": "uniform", "ndv": 3.9}}}},
    {"row_count": 3, "columns": {"z": {
        "kind": "scalar", "dist": {"name": "zipf", "s": float("inf"),
                                   "ndv": 5}}}},
    {"row_count": 3, "columns": {"k": {
        "kind": "scalar", "dist": {"name": "uniform", "ndv": 3},
        "null_probability": float("nan")}}},
], ids=["fractional-row-count", "fractional-ndv", "infinite-zipf-s",
        "nan-null-probability"])
def test_genspec_from_json_rejects_non_finite_or_fractional_numbers(doc):
    # the first document made ``a3d gen`` emit 2 rows with values from
    # ndv 3; Python's json reads NaN and Infinity
    with pytest.raises(ValueError, match="must be a finite"):
        genspec_from_json(json.loads(json.dumps(doc)))


def test_zipf_s_must_be_positive():
    with pytest.raises(ValueError):
        generate(GenSpec(5, {"z": ScalarColumn(Dist("zipf", s=0.0, ndv=5))}))
