"""One benchmark run: set-up, correctness gate, timed loops, metrics.

The run is a single process with one thread and a closed loop with one
client: each query starts after the previous one finishes, because a3d is a
batch optimizer.  A query is planned the way the CLI plans it —
``json.loads`` → ``cli.parse_plan_document`` (and ``cli.parse_stats_document``
when the workload has statistics) → ``planner.optimize`` →
``translate.to_sql`` — and executed with ``algebra.evaluate``.

Untraced runs (``--trace 0``) report the end-to-end metrics.  Traced runs
(``--trace 1``) wrap the layers' public functions in spans (see
``tracing.py``) and report the per-layer metrics.
"""

import gc
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy

import tracing
import workloads
from a3d import algebra, cli, planner, stats, translate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")

QUERY_CAP_S = 10.0       # per planning or evaluation call
MEMORY_CAP_S = 50.0      # per planning call under tracemalloc, ~5x slower
SETUP_REPEATS = 5        # setup_s is the median of these, spread over a run
PROBE_REF_MS = 1.0       # nominal time of one speed probe
PROBE_REPEATS = 3        # probes per speed reading
PROBE_FRESH_S = 0.001    # a reading this recent counts as "just before"

# name -> (unit, better); the end-to-end metrics of an untraced run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "plan_qps": ("1/s", "higher"),
    "plan_ms_p50": ("ms", "lower"),
    "plan_ms_p90": ("ms", "lower"),
    "plan_cost_ratio": ("ratio", "lower"),
    "exec_ms_p50": ("ms", "lower"),
    "exec_speedup": ("ratio", "higher"),
    "exec_work_ratio": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "plan_peak_mb": ("MB", "lower"),
}

# name -> (unit, better); the per-layer metrics of a traced run
PER_LAYER = {
    "enum.entries": ("count", "lower"),
    "enum.candidates": ("count", "lower"),
    "enum.capture_skips": ("count", "lower"),
    "enum.useful_ratio": ("ratio", "higher"),
    "enumeration.apply_op.calls": ("count", "lower"),
    "enumeration.apply_op.self_ms": ("ms", "lower"),
    "enumeration.join_entries.calls": ("count", "lower"),
    "enumeration.join_entries.self_ms": ("ms", "lower"),
    "enumeration.prefixes.calls": ("count", "lower"),
    "planner.enumerate_plans.ms": ("ms", "lower"),
    "rewrite.try_apply.calls": ("count", "lower"),
    "rewrite.try_apply.hit_ratio": ("ratio", "higher"),
    "rewrite.collect_names.calls": ("count", "lower"),
    "rewrite.collect_names.self_ms": ("ms", "lower"),
    "rewrite.guard_cost_improves.calls": ("count", "lower"),
    "rewrite.guard_cost_improves.accept_ratio": ("ratio", "higher"),
    "algebra.output_schema.calls": ("count", "lower"),
    "algebra.output_schema.self_ms": ("ms", "lower"),
    "algebra.evaluate.ms": ("ms", "lower"),
    "stats.term_cost.calls": ("count", "lower"),
    "stats.term_cost.self_ms": ("ms", "lower"),
    "stats.op_effect.calls": ("count", "lower"),
    "stats.op_effect.self_ms": ("ms", "lower"),
    "stats.join_effect.calls": ("count", "lower"),
    "stats.build_table_stats.ms": ("ms", "lower"),
    "stats.q_error_p50": ("ratio", "lower"),
    "stats.q_error_max": ("ratio", "lower"),
    "planner.preprocess.ms": ("ms", "lower"),
    "planner.decompose.ms": ("ms", "lower"),
    "planner.sort_ops.ms": ("ms", "lower"),
    "planner.optimize_greedy.ms": ("ms", "lower"),
    "planner.postprocess.ms": ("ms", "lower"),
    "postprocess.rewrites": ("count", "higher"),
    "translate.to_sql.ms": ("ms", "lower"),
    "cli.parse_plan_document.ms": ("ms", "lower"),
    "testkit.generate.ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# deterministic counters of the seed commit (ROADMAP Baseline)
ANCHORS = {"chain4/enumerate": {"entries": 2556, "candidates": 7984}}


class QueryTimeout(BaseException):
    """Raised by SIGALRM when a call runs past QUERY_CAP_S.

    A BaseException, so no ``except Exception`` inside a3d can swallow it.
    """


def _on_alarm(signum, frame):
    raise QueryTimeout()


def run_capped(fn, *args, cap=None):
    signal.setitimer(signal.ITIMER_REAL, cap or QUERY_CAP_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Failure:
    pair: str
    stage: str
    kind: str                # "error" | "timeout" | "mismatch"
    message: str


@dataclass
class Run:
    """Mutable state of one run: counts and failures."""
    attempted: int = 0
    failures: list = field(default_factory=list)

    def call(self, pair: str, stage: str, fn, *args, cap=None):
        """Run `fn` under the cap; returns (ok, value)."""
        self.attempted += 1
        try:
            return True, run_capped(fn, *args, cap=cap)
        except QueryTimeout:
            self.failures.append(Failure(
                pair, stage, "timeout", f"ran past {cap or QUERY_CAP_S:g} s"))
        except Exception as exc:  # any optimizer error fails the query
            self.failures.append(Failure(pair, stage, "error",
                                         f"{type(exc).__name__}: {exc}"))
        return False, None


############################################################
# machine speed
############################################################

def _speed_probe() -> int:
    """A fixed pure-Python kernel (tuples, dict updates, calls), about
    PROBE_REF_MS long at the usual speed of a shared 2-core Linux VM."""
    acc: dict = {}
    for i in range(1900):
        key = (i & 255, i % 7)
        acc[key] = acc.get(key, 0) + len(str(i))
    return len(acc)


class Speed:
    """How slow the machine runs right now, relative to the probe's nominal
    speed.

    On a shared machine the speed of one core swings by up to 1.7x from one
    tenth of a second to the next and drifts over minutes, so raw wall-clock
    figures of two runs differ more than any useful bound.  Every timed call
    is bracketed by probes, and its time is divided by the mean factor of
    the probe just before and the probe just after it: the end-to-end times
    read as seconds at the probe's nominal speed.  The raw wall-clock
    figures go to the run record as well.
    """

    def __init__(self):
        self.factors: list = []
        self._fresh_until = 0.0

    def _probe(self) -> float:
        # the median of several short probes ignores one that was
        # preempted or hit a collection
        probes = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            _speed_probe()
            probes.append((time.perf_counter() - t0) * 1000.0)
        self.factors.append(statistics.median(probes) / PROBE_REF_MS)
        self._fresh_until = time.perf_counter() + PROBE_FRESH_S
        return self.factors[-1]

    def timed(self, fn, *args) -> tuple:
        """(result, wall seconds, seconds at nominal speed)."""
        if time.perf_counter() < self._fresh_until:
            before = self.factors[-1]
        else:
            before = self._probe()
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        after = self._probe()        # also the next call's `before`
        return result, dt, dt / ((before + after) / 2.0)


############################################################
# the measured operations
############################################################

def parse_inputs(pair: workloads.Pair, stats_text):
    """The CLI's parsing step: (term, schemas, correspondences, options,
    table statistics)."""
    term, schemas, corr, options = cli.parse_plan_document(
        json.loads(pair.plan_text))
    table_stats = {}
    if stats_text is not None:
        table_stats = cli.parse_stats_document(json.loads(stats_text),
                                               schemas)
    return term, schemas, corr, options, table_stats


def plan_query(pair: workloads.Pair, stats_text):
    """Plan one query as the CLI does; returns (OptimizeResult, sql)."""
    term, schemas, corr, options, table_stats = parse_inputs(pair,
                                                             stats_text)
    result = planner.optimize(term, schemas, stats=table_stats,
                              correspondences=corr, mode=options["mode"])
    sql = translate.to_sql(result.term, "clickhouse", schemas)
    return result, sql


def _cost_model(pair, stats_text):
    term, schemas, _, _, table_stats = parse_inputs(pair, stats_text)
    return term, stats.CostModel(table_stats, schemas)


def subterm_sizes(term, db) -> list:
    """(subterm, rows, array elements) for every node of `term`.

    Each operator is evaluated once, over its children's results stored as
    extra relations (dropped once the parent has used them), so the pass is
    linear in the size of the term and holds few results at a time.
    """
    db = dict(db)
    names = itertools.count()
    out = []

    def go(sub) -> str:
        kids = [go(k) for k in algebra.children(sub)]
        node = algebra.with_children(
            sub, tuple(algebra.RelVar(k) for k in kids)) if kids else sub
        rel = algebra.evaluate(node, db)
        for k in kids:
            del db[k]
        name = f"__bench_sub{next(names)}"
        db[name] = rel
        elems = sum(len(r[c]) for r in rel.rows for c in rel.schema.arrays)
        out.append((sub, len(rel.rows), elems))
        return name

    go(term)
    return out


def work(term, db) -> int:
    """Rows plus array elements produced, summed over every operator."""
    return sum(rows + elems for _, rows, elems in subterm_sizes(term, db))


def _ms(seconds: float) -> float:
    return seconds * 1000.0


############################################################
# phases
############################################################

@dataclass
class Planned:
    pair: workloads.Pair
    result: object
    input_cost: float


def correctness_gate(run: Run, inputs: workloads.Inputs) -> list:
    """Plan every distinct (query, mode) once and compare results.

    The optimized plan's result must equal the input term's result under
    bag semantics.  Any failure here (error, timeout or mismatch) fails the
    run, which then reports no metrics rather than time a smaller set of
    pairs than the workload defines.
    """
    planned = []
    for pair in inputs.pairs:
        ok, value = run.call(pair.name, "plan", plan_query, pair,
                             inputs.stats_text)
        if not ok:
            continue
        result, _ = value
        ok, out = run.call(pair.name, "evaluate", algebra.evaluate,
                           result.term, inputs.db)
        if not ok:
            continue
        if not algebra.relations_equal(out, inputs.reference[pair.query.name],
                                       "bag"):
            run.failures.append(Failure(
                pair.name, "gate", "mismatch",
                "optimized plan's result differs from the input term's"))
            continue
        term, cm = _cost_model(pair, inputs.stats_text)
        planned.append(Planned(pair, result, cm.term_cost(term).cost))
    return planned


def plan_round(run: Run, speed: Speed, planned: list, stats_text,
               weighted: bool, samples: dict) -> None:
    """Plan each pair once, or `weight` times; (wall, nominal) latencies go
    to `samples`."""
    for p in planned:
        for _ in range(p.pair.weight if weighted else 1):
            (ok, _), raw, scaled = speed.timed(run.call, p.pair.name, "plan",
                                               plan_query, p.pair, stats_text)
            if ok:
                samples.setdefault(p.pair.name, []).append((raw, scaled))


def exec_round(run: Run, speed: Speed, planned: list, inputs,
               pair_times: dict, input_times: dict) -> tuple:
    """Evaluate each input term and each optimized plan once; returns the
    (wall, nominal) time spent on the optimized plans.  Failed calls are
    counted by `run` and left out of the times."""
    for q in dict.fromkeys(p.pair.query for p in planned):
        (ok, _), raw, scaled = speed.timed(run.call, q.name, "evaluate-input",
                                           algebra.evaluate, q.term,
                                           inputs.db)
        if ok:
            input_times.setdefault(q.name, []).append((raw, scaled))
    total_raw = total_scaled = 0.0
    for p in planned:
        (ok, _), raw, scaled = speed.timed(run.call, p.pair.name, "evaluate",
                                           algebra.evaluate, p.result.term,
                                           inputs.db)
        if not ok:
            continue
        pair_times.setdefault(p.pair.name, []).append((raw, scaled))
        total_raw += raw
        total_scaled += scaled
    return total_raw, total_scaled


def _setup(wl, seed, speed: Speed) -> tuple:
    """(inputs, wall seconds, seconds at nominal speed)."""
    return speed.timed(workloads.setup, wl, seed, run_capped)


@contextmanager
def _frozen_heap():
    """Keep the objects alive so far (data, reference results, plans) out of
    the cyclic collector while measuring.  Otherwise every collection during
    planning rescans the workload's data, a cost a CLI process holding no
    data does not pay and one that grows with the data size."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def plan_peaks_mb(run: Run, planned: list, stats_text) -> dict:
    """Pair name -> tracemalloc peak, in MB, of planning that pair once.

    This is the memory the planning call itself allocates, apart from the
    data, reference results and plans the run already holds, so it moves
    with the planner's memory alone.  It runs outside the timed loops,
    because tracemalloc slows every allocation.
    """
    peaks = {}
    gc.collect()
    tracemalloc.start()
    try:
        for p in planned:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ok, value = run.call(p.pair.name, "plan-memory", plan_query,
                                 p.pair, stats_text, cap=MEMORY_CAP_S)
            if ok:
                peaks[p.pair.name] = \
                    (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
            del value
    finally:
        tracemalloc.stop()
    return peaks


def _timing_metrics(k: int, setups, samples, rounds, pair_times,
                    input_times, planned) -> tuple:
    """(timed end-to-end metrics, per-pair speed-ups) from (wall, nominal)
    pairs; `k` picks wall-clock (0) or nominal-speed (1) figures."""
    plan = [t[k] for t in samples]
    speedups = {p.pair.name: statistics.median(
        t[k] for t in input_times[p.pair.query.name])
        / statistics.median(t[k] for t in pair_times[p.pair.name])
        for p in planned}
    return {
        "setup_s": statistics.median(t[k] for t in setups),
        "plan_qps": len(plan) / sum(plan),
        "plan_ms_p50": _ms(statistics.median(plan)),
        "plan_ms_p90": _ms(statistics.quantiles(plan, n=10,
                                                method="inclusive")[8]),
        "exec_ms_p50": _ms(statistics.median(t[k] for t in rounds)),
        "exec_speedup": statistics.geometric_mean(speedups.values()),
    }, speedups


def end_to_end(run: Run, wl, seed: int, seconds: float) -> tuple:
    """Untraced run; returns (metrics, details)."""
    speed = Speed()
    inputs, raw, scaled = _setup(wl, seed, speed)
    setups = [(raw, scaled)]
    planned = correctness_gate(run, inputs)
    if run.failures:
        return None, {}

    cost_ratios = {p.pair.name: p.result.cost / p.input_cost
                   for p in planned}
    input_work = {q.name: work(q.term, inputs.db) for q in wl.queries}
    work_ratios = {p.pair.name: work(p.result.term, inputs.db)
                   / input_work[p.pair.query.name] for p in planned}

    # Plan and exec rounds interleave over the whole run, and the further
    # set-ups are spread over it, so every metric sees the same mix of the
    # machine's fast and slow spells.
    per_pair: dict = {}
    pair_times: dict = {}
    input_times: dict = {}
    rounds: list = []
    plan_wall = exec_wall = 0.0
    exec_per_plan = (1.0 - wl.plan_share) / wl.plan_share
    with _frozen_heap():
        while True:
            t0 = time.perf_counter()
            plan_round(run, speed, planned, inputs.stats_text, True,
                       per_pair)
            plan_wall += time.perf_counter() - t0
            while exec_wall < plan_wall * exec_per_plan:
                t0 = time.perf_counter()
                rounds.append(exec_round(run, speed, planned, inputs,
                                         pair_times, input_times))
                exec_wall += time.perf_counter() - t0
            measured = plan_wall + exec_wall
            if len(setups) < SETUP_REPEATS and \
                    measured >= len(setups) * seconds / SETUP_REPEATS:
                setups.append(_setup(wl, seed, speed)[1:])
            if measured >= seconds:
                break
    while len(setups) < SETUP_REPEATS:
        setups.append(_setup(wl, seed, speed)[1:])
    samples = [t for times in per_pair.values() for t in times]

    timing = (setups, samples, rounds, pair_times, input_times, planned)
    wall_clock, _ = _timing_metrics(0, *timing)
    nominal, speedups = _timing_metrics(1, *timing)
    # read before plan_peak_mb, whose tracing holds memory of its own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plan_peaks = plan_peaks_mb(run, planned, inputs.stats_text)
    metrics = {
        **nominal,
        "plan_cost_ratio": statistics.geometric_mean(cost_ratios.values()),
        "exec_work_ratio": statistics.geometric_mean(work_ratios.values()),
        "peak_rss_mb": peak_rss_mb,
        "plan_peak_mb": max(plan_peaks.values(), default=0.0),
    }
    metrics = {name: metrics[name] for name in END_TO_END}
    details = {
        "samples": {"setup": len(setups), "plan": len(samples),
                    "exec_rounds": len(rounds)},
        "wall_clock": wall_clock,
        "speed": {"probe_ref_ms": PROBE_REF_MS, "probes": len(speed.factors),
                  "factor_median": statistics.median(speed.factors),
                  "factor_min": min(speed.factors),
                  "factor_max": max(speed.factors)},
        "pairs": {p.pair.name: {
            "plan_ms_p50": _ms(statistics.median(
                t[1] for t in per_pair[p.pair.name])),
            "exec_ms_p50": _ms(statistics.median(
                t[1] for t in pair_times[p.pair.name])),
            "cost_ratio": cost_ratios[p.pair.name],
            "work_ratio": work_ratios[p.pair.name],
            "exec_speedup": speedups[p.pair.name],
            "plan_peak_mb": plan_peaks.get(p.pair.name),
            "counters": p.result.counters,
        } for p in planned},
    }
    return metrics, details


def _layer_values(buckets: list) -> dict:
    """Per-round span totals -> {span name: (calls, hits, median ms,
    median self ms)}; counts come from the first round."""
    names = set().union(*buckets) if buckets else set()
    out = {}
    for name in names:
        first = buckets[0].get(name, tracing.SpanTotals())
        out[name] = (
            first.calls, first.hits,
            _ms(statistics.median(b[name].total_s if name in b else 0.0
                                  for b in buckets)),
            _ms(statistics.median(b[name].self_s if name in b else 0.0
                                  for b in buckets)))
    return out


def q_errors(planned: list, inputs) -> list:
    """Per-node q-error of every optimized plan: estimated rows from
    ``term_cost`` of the subterm vs rows ``evaluate`` produces for it."""
    out = []
    for p in planned:
        _, cm = _cost_model(p.pair, inputs.stats_text)
        for sub, rows, _ in subterm_sizes(p.result.term, inputs.db):
            est = max(cm.term_cost(sub).state.rows, 1.0)
            act = max(float(rows), 1.0)
            out.append(max(est / act, act / est))
    return out


def per_layer(run: Run, wl, seed: int, seconds: float) -> tuple:
    """Traced run; returns (metrics, details)."""
    inputs = workloads.setup(wl, seed, run_capped)
    planned = correctness_gate(run, inputs)
    if run.failures:
        return None, {}
    speed = Speed()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.bucket = setup_bucket = {}
        workloads.setup(wl, seed, run_capped)

    # Untraced rounds run with the original functions in place; each traced
    # round installs the wrappers, so the two rates give the overhead.
    plan_buckets: list = []
    off_times: list = []
    on_times: list = []
    exec_buckets: list = []
    plan_budget = seconds * wl.plan_share
    with _frozen_heap():
        t_start = time.perf_counter()
        while True:
            samples: dict = {}
            plan_round(run, speed, planned, inputs.stats_text, False,
                       samples)
            off_times.append(sum(raw for times in samples.values()
                                 for raw, _ in times))

            tracer.keep = not plan_buckets
            tracer.bucket = {}
            with tracing.installed(tracer):
                t0 = time.perf_counter()
                for p in planned:
                    tracer.trace_id += 1
                    tracer.reset_stack()
                    run.call(p.pair.name, "plan", plan_query, p.pair,
                             inputs.stats_text)
                on_times.append(time.perf_counter() - t0)
            plan_buckets.append(tracer.bucket)
            if time.perf_counter() - t_start >= plan_budget:
                break

        tracer.keep = False
        t_start = time.perf_counter()
        with tracing.installed(tracer):
            while True:
                tracer.bucket = {}
                tracer.trace_id += 1
                tracer.reset_stack()
                for p in planned:
                    run.call(p.pair.name, "evaluate", algebra.evaluate,
                             p.result.term, inputs.db)
                exec_buckets.append(tracer.bucket)
                if time.perf_counter() - t_start >= seconds - plan_budget:
                    break

    layers = _layer_values(plan_buckets)
    setup_layers = _layer_values([setup_bucket])
    exec_layers = _layer_values(exec_buckets)

    def calls(name):
        return layers.get(name, (0, 0, 0.0, 0.0))[0]

    def ratio(name):
        c, h, _, _ = layers.get(name, (0, 0, 0.0, 0.0))
        return h / c if c else 0.0

    def total_ms(name, src=layers):
        return src.get(name, (0, 0, 0.0, 0.0))[2]

    def self_ms(name):
        return layers.get(name, (0, 0, 0.0, 0.0))[3]

    enum = {"entries": 0, "candidates": 0, "capture_skips": 0}
    for p in planned:
        for key in enum:
            enum[key] += p.result.counters.get(key, 0)
    qerr = q_errors(planned, inputs)
    metrics = {
        "enum.entries": enum["entries"],
        "enum.candidates": enum["candidates"],
        "enum.capture_skips": enum["capture_skips"],
        "enum.useful_ratio": (enum["entries"] / enum["candidates"]
                              if enum["candidates"] else 0.0),
        "enumeration.apply_op.calls": calls("enumeration.apply_op"),
        "enumeration.apply_op.self_ms": self_ms("enumeration.apply_op"),
        "enumeration.join_entries.calls": calls("enumeration.join_entries"),
        "enumeration.join_entries.self_ms":
            self_ms("enumeration.join_entries"),
        "enumeration.prefixes.calls": calls("enumeration.prefixes"),
        "planner.enumerate_plans.ms": total_ms("planner.enumerate_plans"),
        "rewrite.try_apply.calls": calls("rewrite.try_apply"),
        "rewrite.try_apply.hit_ratio": ratio("rewrite.try_apply"),
        "rewrite.collect_names.calls": calls("rewrite.collect_names"),
        "rewrite.collect_names.self_ms": self_ms("rewrite.collect_names"),
        "rewrite.guard_cost_improves.calls":
            calls("rewrite.guard_cost_improves"),
        "rewrite.guard_cost_improves.accept_ratio":
            ratio("rewrite.guard_cost_improves"),
        "algebra.output_schema.calls": calls("algebra.output_schema"),
        "algebra.output_schema.self_ms": self_ms("algebra.output_schema"),
        "algebra.evaluate.ms": total_ms("algebra.evaluate", exec_layers),
        "stats.term_cost.calls": calls("stats.term_cost"),
        "stats.term_cost.self_ms": self_ms("stats.term_cost"),
        "stats.op_effect.calls": calls("stats.op_effect"),
        "stats.op_effect.self_ms": self_ms("stats.op_effect"),
        "stats.join_effect.calls": calls("stats.join_effect"),
        "stats.build_table_stats.ms":
            total_ms("stats.build_table_stats", setup_layers),
        "stats.q_error_p50": statistics.median(qerr),
        "stats.q_error_max": max(qerr),
        "planner.preprocess.ms": total_ms("planner.preprocess"),
        "planner.decompose.ms": total_ms("planner.decompose"),
        "planner.sort_ops.ms": total_ms("planner.sort_ops"),
        "planner.optimize_greedy.ms": total_ms("planner.optimize_greedy"),
        "planner.postprocess.ms": total_ms("planner.postprocess"),
        "postprocess.rewrites": calls("postprocess.rewrites"),
        "translate.to_sql.ms": total_ms("translate.to_sql"),
        "cli.parse_plan_document.ms": total_ms("cli.parse_plan_document"),
        "testkit.generate.ms": total_ms("testkit.generate", setup_layers),
        "trace.overhead_ratio": statistics.median(on_times)
        / statistics.median(off_times),
    }
    anchors = {}
    for p in planned:
        expected = ANCHORS.get(p.pair.name)
        if expected:
            got = {k: p.result.counters.get(k) for k in expected}
            anchors[p.pair.name] = {"expected": expected, "got": got,
                                    "match": got == expected}
    details = {
        "samples": {"traced_rounds": len(plan_buckets),
                    "untraced_rounds": len(off_times),
                    "exec_rounds": len(exec_buckets),
                    "q_error_nodes": len(qerr)},
        "anchors": anchors,
        "spans": {"kept": len(tracer.spans), "dropped": tracer.dropped},
        "pairs": {p.pair.name: {"counters": p.result.counters}
                  for p in planned},
        "span_records": tracer.spans,
    }
    return metrics, details


############################################################
# run record
############################################################

def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_record(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "git_sha": _git_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "query_cap_s": QUERY_CAP_S,
        "cli_comparisons_shim": workloads.CLI_SHIMMED,
    }


def _print_table(wl, metrics, details, table, failures) -> None:
    print(f"# a3d benchmark: workload {wl.name}")
    if workloads.CLI_SHIMMED:
        print("note: a3d.cli does not import on its own at this commit "
              "(it needs predicates.COMPARISONS); the benchmark supplied "
              "predicates.CMP_OPS under that name")
    for name, row in sorted(details.get("pairs", {}).items()):
        cells = [f"{k}={v:.4g}" for k, v in row.items()
                 if isinstance(v, float)]
        cells += [f"{k}={v}" for k, v in row["counters"].items()]
        print(f"pair {name}: {' '.join(cells)}")
        if row.get("cost_ratio", 0.0) > 1.0:
            print(f"costlier: {name} returns a plan its own cost model "
                  f"rates {row['cost_ratio']:.4g}x the input's cost")
    for name, info in details.get("anchors", {}).items():
        state = "match" if info["match"] else \
            "DIFFERS from the seed commit's values"
        print(f"anchor {name}: got {info['got']}, "
              f"seed {info['expected']}: {state}")
    print(f"samples: {details.get('samples')}")
    for name, value in metrics.items():
        unit, better = table[name]
        print(f"metric {name} = {value:.6g} {unit} ({better} is better)")
    for f in failures:
        print(f"FAILED {f.pair} [{f.stage}] {f.kind}: {f.message}")


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    wl = workloads.WORKLOADS[workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    run = Run()
    if trace:
        metrics, details = per_layer(run, wl, seed, seconds)
        table = PER_LAYER
    else:
        metrics, details = end_to_end(run, wl, seed, seconds)
        table = END_TO_END
    if metrics is None:
        for f in run.failures:
            print(f"FAILED {f.pair} [{f.stage}] {f.kind}: {f.message}",
                  file=sys.stderr)
        print("error: the correctness gate failed; no metrics measured",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": len(run.failures), "metrics": {}}))
        return 1

    record = run_record(workload, seed, seconds, trace)
    record.update({
        "attempted": run.attempted, "failed": len(run.failures),
        "fail_ratio": len(run.failures) / run.attempted,
        "failures": [f.__dict__ for f in run.failures],
        "metrics": {name: {"value": v, "unit": table[name][0],
                           "better": table[name][1]}
                    for name, v in metrics.items()},
        "details": details,
    })
    spans = details.pop("span_records", None)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{workload}_seed{seed}_trace{int(trace)}"
    path = os.path.join(OUT_DIR, f"BENCH_{stem}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if spans is not None:
        with open(os.path.join(OUT_DIR, f"TRACE_{stem}.json"), "w") as f:
            json.dump({"columns": ["trace_id", "name", "start_s", "end_s",
                                   "parent"], "spans": spans}, f)

    _print_table(wl, metrics, details, table, run.failures)
    print(f"fail_ratio = {record['fail_ratio']:.6g} "
          f"({record['failed']} of {run.attempted} attempted)")
    print(f"record: {os.path.relpath(path, ROOT)}")
    for f in run.failures:
        print(f"error: query {f.pair} failed in {f.stage}: {f.kind}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": v, "unit": table[name][0]}
                    for name, v in metrics.items()},
    }))
    return 1 if run.failures else 0
