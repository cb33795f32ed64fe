"""Seeded inputs for the three benchmark workloads.

A workload is a fixed set of queries plus a data spec.  ``--seed`` drives
every generated value: relation contents (SplitMix64 through
``testkit.generate``) and, where the workload uses them, the statistics built
from that data.  The query terms themselves are fixed per workload, so the
same seed always gives byte-identical plan documents, data and statistics,
and different seeds give statistically alike data of the same size.

The optimizer sees only what a CLI user would hand it: a plan document per
(query, mode) and, on ``exec_quality``, a statistics document.
"""

import json
from dataclasses import dataclass
from typing import Optional

from a3d import predicates

# a3d.cli imports the comparison-operator tuple as COMPARISONS, but
# a3d.predicates defines it as CMP_OPS, so at this commit the CLI module
# fails to import.  The benchmark plans through the CLI's parsers, so it
# supplies the name when it is missing and records that it did; once
# src/a3d defines it, this does nothing.
CLI_SHIMMED = not hasattr(predicates, "COMPARISONS")
if CLI_SHIMMED:
    predicates.COMPARISONS = predicates.CMP_OPS

from a3d import algebra, cli, stats, testkit  # noqa: E402
from a3d.algebra import (  # noqa: E402
    Aggregate, AggSpec, ArrayJoin, Derive, Filter, Join, RelVar, Term,
)
from a3d.functions import ScalarFn  # noqa: E402
from a3d.predicates import Cmp, Col, Lit  # noqa: E402
from a3d.testkit import (  # noqa: E402
    ArrayColumn, Dist, GenSpec, ScalarColumn, SplitMix64,
)


@dataclass(frozen=True)
class Query:
    name: str
    term: Term
    modes: tuple
    # plan samples per mode in one timed round; chosen so that neither
    # plan_ms_p50 nor plan_ms_p90 falls on the boundary between two
    # queries' latency clusters (see README)
    weights: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    relations: dict          # name -> (row_count, {column: spec})
    queries: tuple
    with_stats: bool
    plan_share: float        # share of --seconds spent on the plan loop


@dataclass(frozen=True)
class Pair:
    """One (query, mode) planned as a CLI user would: a plan document."""
    query: Query
    mode: str
    weight: int
    plan_text: str

    @property
    def name(self) -> str:
        return f"{self.query.name}/{self.mode}"


@dataclass
class Inputs:
    db: dict                 # relation name -> algebra.Relation
    stats_text: Optional[str]
    pairs: list
    reference: dict          # query name -> Relation of the input term


############################################################
# join_enum: 4-relation join graphs, enumerate mode, no stats
############################################################

def _join_edges(shape: str, k: int) -> list:
    if shape == "chain":
        return [(i, i + 1) for i in range(k - 1)]
    if shape == "star":
        return [(0, i) for i in range(1, k)]
    if shape == "cycle":
        return [(i, (i + 1) % k) for i in range(k)]
    raise ValueError(f"unknown join shape {shape!r}")


def _join_key(a: int, b: int) -> str:
    return f"k{a}_{b}"


JOIN_SHAPES = {"chain": "C", "star": "S", "cycle": "Y"}
JOIN_ROWS = 800
# about one row per key value, so joined sizes stay near JOIN_ROWS and the
# input plans (which join before filtering) stay cheap to execute
JOIN_KEY_NDV = JOIN_ROWS


def join_query(shape: str, k: int = 4) -> Term:
    """Left-deep join of k relations; every relation is unnested once and
    filtered twice above the joins (the ROADMAP Baseline shape)."""
    rel = JOIN_SHAPES[shape]
    term: Term = RelVar(f"{rel}0")
    for i in range(1, k):
        term = Join(term, RelVar(f"{rel}{i}"))
    for i in range(k):
        term = ArrayJoin(((f"a{i}", f"e{i}"),), term)
        term = Filter(Cmp(">", Col(f"e{i}"), Lit(1)), term)
        term = Filter(Cmp("<", Col(f"x{i}"), Lit(80)), term)
    return term


def _join_relations(k: int = 4) -> dict:
    """Each shape gets its own relations, whose only shared columns are
    that shape's join keys (joins are natural)."""
    rels = {}
    for shape, rel in JOIN_SHAPES.items():
        edges = _join_edges(shape, k)
        for i in range(k):
            key = ScalarColumn(Dist("uniform", ndv=JOIN_KEY_NDV))
            cols = {_join_key(a, b): key for a, b in edges if i in (a, b)}
            cols[f"x{i}"] = ScalarColumn(Dist("uniform", ndv=100))
            cols[f"a{i}"] = ArrayColumn(Dist("uniform", ndv=10),
                                        Dist("uniform", ndv=3))
            rels[f"{rel}{i}"] = (JOIN_ROWS, cols)
    return rels


# The enumerator's operator-prefix cross products dominate planning.
JOIN_ENUM = Workload(
    name="join_enum",
    relations=_join_relations(),
    queries=tuple(Query(f"{shape}4", join_query(shape), ("enumerate",), (1,))
                  for shape in ("chain", "star", "cycle")),
    with_stats=False,
    plan_share=0.85,
)


############################################################
# rewrite_fixpoint: testkit patterns A and B at n = 16, no stats
############################################################

PATTERN_N = 16

# One relation: time sits in the rewrite engine and preprocess, and the
# enumerator has nothing to do.  Pattern B unnests all arrays jointly, so
# they all have length 2.
REWRITE_FIXPOINT = Workload(
    name="rewrite_fixpoint",
    relations={"R": (400, {
        f"a{i}": ArrayColumn(Dist("uniform", ndv=32),
                             Dist("normal", mu=2, sigma=0))
        for i in range(1, PATTERN_N + 1)})},
    queries=(
        # latencies at seed: A/greedy >> B/greedy > A/enumerate ~ B/enumerate
        Query("A16", testkit.make_pattern("A", PATTERN_N),
              ("greedy", "enumerate"), (2, 1)),
        Query("B16", testkit.make_pattern("B", PATTERN_N),
              ("greedy", "enumerate"), (2, 1)),
    ),
    with_stats=False,
    plan_share=0.85,
)


############################################################
# exec_quality: small queries, real statistics, plans executed
############################################################

def _exec_queries() -> tuple:
    a3 = testkit.make_pattern("A", 3)
    join_agg = Aggregate(("y",), (AggSpec("sum", "x", "sx"),),
                         Join(RelVar("F"), RelVar("D")))
    foreach = Aggregate(("g",), (AggSpec("sum", "e", "se"),),
                        ArrayJoin((("a", "e"),), RelVar("S")))
    map_filter = Filter(
        Cmp(">", Col("v"), Lit(100)),
        ArrayJoin((("b", "v"),), Derive(
            "b", ScalarFn.of("affine", a=3, b=-2), ("a",),
            Filter(Cmp("<", Col("g"), Lit(15)), RelVar("S")), is_map=True)))
    modes = ("enumerate", "greedy")
    return (
        # the ROADMAP Baseline cost-model regression case
        Query("A3", a3, modes, (4, 3)),
        # postprocess pushes a partial aggregate below the join
        Query("join_agg", join_agg, modes, (1, 1)),
        # per-key aggregate over unnested elements: sumForEach
        Query("foreach_agg", foreach, modes, (1, 1)),
        # map-derive whose unnested filter becomes an arrayFilter
        Query("map_filter", map_filter, modes, (1, 1)),
    )


# Real statistics and executed plans: cost-model quality and
# pre-aggregation show as cheaper execution.
EXEC_QUALITY = Workload(
    name="exec_quality",
    relations={
        "R": (2000, {f"a{i}": ArrayColumn(Dist("normal", mu=30, sigma=10),
                                          Dist("uniform", ndv=4))
                     for i in (1, 2, 3)}),
        "F": (2000, {"k": ScalarColumn(Dist("uniform", ndv=50)),
                     "x": ScalarColumn(Dist("zipf", s=1.1, ndv=1000))}),
        "D": (50, {"k": ScalarColumn(Dist("uniform", ndv=50)),
                   "y": ScalarColumn(Dist("uniform", ndv=10))}),
        "S": (2000, {"g": ScalarColumn(Dist("uniform", ndv=20)),
                     "a": ArrayColumn(Dist("zipf", s=1.0, ndv=100),
                                      Dist("uniform", ndv=6), 0.1)}),
    },
    queries=_exec_queries(),
    with_stats=True,
    plan_share=0.5,
)


WORKLOADS = {w.name: w for w in (JOIN_ENUM, REWRITE_FIXPOINT, EXEC_QUALITY)}


############################################################
# documents a CLI user would write
############################################################

def _scalar_stats_doc(st: stats.ScalarStats) -> dict:
    doc = {"kind": st.kind, "ndv": st.ndv, "null_fraction": st.null_fraction}
    if st.kind == "exact":
        doc["freq"] = [[v, f] for v, f in st.freqs]
    elif st.kind == "uniform":
        doc["lo"], doc["hi"] = st.lo, st.hi
    else:
        doc["clusters"] = [list(c) for c in st.clusters]
    return doc


def stats_document(table_stats: dict) -> dict:
    """Inverse of ``cli.parse_stats_document`` for built statistics."""
    doc = {}
    for rel in sorted(table_stats):
        ts = table_stats[rel]
        for col in sorted(ts.scalars):
            entry = _scalar_stats_doc(ts.scalars[col])
            entry["row_count"] = ts.rows
            doc[f"{rel}.{col}"] = entry
        for col in sorted(ts.arrays):
            ast = ts.arrays[col]
            entry = {"kind": "array", "row_count": ts.rows,
                     "avg_array_len": ast.avg_len,
                     "empty_fraction": ast.empty_fraction}
            if ast.elem is not None:
                entry["row_stats"] = _scalar_stats_doc(ast.elem)
            doc[f"{rel}.{col}"] = entry
    return doc


def catalog_of(schemas: dict) -> dict:
    return {"relations": {
        name: {"scalars": sorted(s.scalars), "arrays": sorted(s.arrays)}
        for name, s in sorted(schemas.items())}}


def plan_text(term: Term, schemas: dict, mode: str) -> str:
    doc = cli.plan_document(term, catalog_of(schemas))
    doc["options"] = {"mode": mode}
    return json.dumps(doc, sort_keys=True)


############################################################
# set-up
############################################################

def generate_db(workload: Workload, seed: int) -> dict:
    """Relations for `workload`; each draws its own SplitMix64 sub-seed."""
    master = SplitMix64(seed)
    db = {}
    for name in sorted(workload.relations):
        rows, cols = workload.relations[name]
        db[name] = testkit.generate(GenSpec(rows, cols, master.next_u64()))
    return db


def setup(workload: Workload, seed: int, run_capped) -> Inputs:
    """Data, statistics, plan documents and reference results.

    `run_capped(fn, *args)` runs one program call under the per-query cap.
    """
    db = generate_db(workload, seed)
    schemas = {name: rel.schema for name, rel in db.items()}
    stats_text = None
    if workload.with_stats:
        built = {name: stats.build_table_stats(rel)
                 for name, rel in sorted(db.items())}
        stats_text = json.dumps(stats_document(built), sort_keys=True)
    pairs = []
    reference = {}
    for q in workload.queries:
        for mode, weight in zip(q.modes, q.weights):
            pairs.append(Pair(q, mode, weight,
                              plan_text(q.term, schemas, mode)))
        reference[q.name] = run_capped(algebra.evaluate, q.term, db)
    return Inputs(db, stats_text, pairs, reference)
