"""Print one digest per plan, to compare the planner's output across commits.

Run from the repository root, once per checkout, and diff the outputs:

    PYTHONPATH=src python3 tests/plan_digest.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tests/plan_digest.py \\
        > old.txt
    diff old.txt new.txt

Each line reads ``<corpus>/<seed>/<mode> <plan digest> <rules digest>
<fires digest> <work digest> <trace digest>``.  The plan digest covers the
plan's term, cost, counters other than the rule and search-work counters
and ClickHouse SQL, or the type and message of the exception planning
raised.  The rules digest covers ``counters["rules"]``, each rule's attempts
and fires; the fires digest covers ``{rule: fires}`` over the rules that
fired, so a change that only moves attempt counts changes rules digests and
no fires digest.  The work digest covers the search-work counters
(``WORK_COUNTERS``: the enumerator's and the oracle's), so a change that
only moves search work changes work digests and no plan digest.  The trace
digest covers the trace records, so a change that only adds or reorders
records changes trace digests and no plan digest.  The rules, fires and
work digests are ``-`` where planning raised or the planner does not report
the counters, and the trace digest is ``-`` where planning raised.

The digests depend on the script as well as on the planner, so compare two
commits with one script: run this file against each checkout's ``src``
through ``PYTHONPATH``, as above.

Corpora, each planned in every mode but ``joins`` and ``chains``:

``random``  1,200 ``gen_utils.random_query`` queries (seeds 0-1199), with
            ``build_table_stats`` statistics on odd seeds;
``inner``   1,000 ``gen_utils.inner_query`` queries, which put a projection
            below the root (seeds 6000-6999);
``bench``   every pair of the benchmark workloads at data seeds 1 and 2,
            planned from its plan document as the benchmark does;
``joins``   the benchmark's chain, star and cycle join queries at 5 and 6
            relations (``workloads.join_query``), in enumerate mode only,
            without and with ``build_table_stats`` statistics of their
            relations generated at data seed 1;
``chains``  ``testkit.make_pattern`` A and B at 8, 32 and 64, without
            statistics, in greedy and enumerate mode only: long stacks of
            unary operators over one relation.

The file is not named ``test_*``, so pytest does not collect it.
"""

import dataclasses
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "bench")]

import workloads  # noqa: E402
from a3d import cli, planner, testkit, translate  # noqa: E402
from a3d.stats import build_table_stats  # noqa: E402

from gen_utils import inner_query, random_query  # noqa: E402

RANDOM_SEEDS = range(1200)
INNER_SEEDS = range(6000, 7000)
BENCH_DATA_SEEDS = (1, 2)
JOIN_SIZES = (5, 6)
JOIN_DATA_SEED = 1
CHAIN_SIZES = (8, 32, 64)
CHAIN_MODES = ("greedy", "enumerate")
# counters of how much searching planning did, not of what it planned
WORK_COUNTERS = ("entries", "partitions", "candidates", "capture_skips",
                 "dominated", "finished", "finish_ops", "states",
                 "orderings")


def bench_queries(data_seed: int):
    """Yield (pair name, term, schemas, correspondences, mode, statistics)
    for every benchmark pair, parsed from its documents as the CLI does."""
    for wl in workloads.WORKLOADS.values():
        inputs = workloads.setup(wl, data_seed, lambda fn, *args: fn(*args))
        for pair in inputs.pairs:
            term, schemas, corr, options = cli.parse_plan_document(
                json.loads(pair.plan_text))
            stats = None
            if inputs.stats_text is not None:
                stats = cli.parse_stats_document(
                    json.loads(inputs.stats_text), schemas)
            yield (f"{wl.name}:{pair.name}", term, schemas, corr,
                   options["mode"], stats)


def join_queries(k: int):
    """Yield (name, term, schemas, statistics) for each benchmark join
    shape over `k` relations, without and then with statistics."""
    workload = dataclasses.replace(workloads.JOIN_ENUM,
                                   relations=workloads._join_relations(k))
    db = workloads.generate_db(workload, JOIN_DATA_SEED)
    for shape, rel in workloads.JOIN_SHAPES.items():
        names = [f"{rel}{i}" for i in range(k)]
        schemas = {name: db[name].schema for name in names}
        term = workloads.join_query(shape, k)
        yield f"{shape}{k}", term, schemas, None
        yield f"{shape}{k}-stats", term, schemas, {
            name: build_table_stats(db[name]) for name in names}


def plan(term, schemas, stats, mode, corr=None) -> tuple:
    """(traced OptimizeResult, ClickHouse SQL) of one query."""
    res = planner.optimize(term, schemas, stats=stats, correspondences=corr,
                           mode=mode, trace=True)
    return res, translate.to_sql(res.term, "clickhouse", schemas)


def cases():
    """Yield (name, thunk) per plan; the thunk plans it."""
    for seed in RANDOM_SEEDS:
        term, schemas, stats = random_query(seed)
        for mode in planner.MODES:
            yield (f"random/{seed}/{mode}",
                   lambda t=term, s=schemas, st=stats, m=mode:
                   plan(t, s, st, m))
    for seed in INNER_SEEDS:
        term, schemas, stats = inner_query(seed)
        for mode in planner.MODES:
            yield (f"inner/{seed}/{mode}",
                   lambda t=term, s=schemas, st=stats, m=mode:
                   plan(t, s, st, m))
    for data_seed in BENCH_DATA_SEEDS:
        for name, term, schemas, corr, mode, stats in \
                bench_queries(data_seed):
            yield (f"bench/{data_seed}/{name}",
                   lambda t=term, s=schemas, st=stats, m=mode, c=corr:
                   plan(t, s, st, m, c))
    for k in JOIN_SIZES:
        for name, term, schemas, stats in join_queries(k):
            yield (f"joins/{name}/enumerate",
                   lambda t=term, s=schemas, st=stats:
                   plan(t, s, st, "enumerate"))
    for kind in "AB":
        for n in CHAIN_SIZES:
            term = testkit.make_pattern(kind, n)
            schemas = testkit.pattern_schemas(kind, n)
            for mode in CHAIN_MODES:
                yield (f"chains/{kind}{n}/{mode}",
                       lambda t=term, s=schemas, m=mode:
                       plan(t, s, None, m))


def _hash(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(thunk) -> tuple:
    """(plan digest, rules digest, fires digest, work digest, trace
    digest) of one planning call."""
    try:
        res, sql = thunk()
    except Exception as exc:  # the error is part of the output
        return _hash([type(exc).__name__, str(exc)]), "-", "-", "-", "-"
    counters = dict(res.counters)
    rules = counters.pop("rules", None)
    work = {name: counters.pop(name) for name in WORK_COUNTERS
            if name in counters}
    plan_digest = _hash([repr(res.term), repr(res.cost), counters, sql])
    work_digest = _hash(work) if work else "-"
    trace_digest = _hash(res.trace)
    if rules is None:
        return plan_digest, "-", "-", work_digest, trace_digest
    fires = {rule: n[1] for rule, n in rules.items() if n[1]}
    return (plan_digest, _hash(rules), _hash(fires), work_digest,
            trace_digest)


def main() -> None:
    for name, thunk in cases():
        print(name, *digest(thunk), flush=True)


if __name__ == "__main__":
    main()
