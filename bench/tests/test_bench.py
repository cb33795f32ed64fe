"""Tests of the benchmark itself, not of a3d.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.fixture(autouse=True)
def alarm_handler():
    old = signal.signal(signal.SIGALRM, harness._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)


def _input_bytes(inputs: workloads.Inputs) -> bytes:
    data = {name: [sorted(r.items()) for r in rel.rows]
            for name, rel in sorted(inputs.db.items())}
    return json.dumps({"data": data, "stats": inputs.stats_text,
                       "plans": [p.plan_text for p in inputs.pairs]},
                      sort_keys=True).encode()


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    wl = workloads.WORKLOADS[name]
    first = _input_bytes(workloads.setup(wl, 3, harness.run_capped))
    again = _input_bytes(workloads.setup(wl, 3, harness.run_capped))
    other = _input_bytes(workloads.setup(wl, 4, harness.run_capped))
    assert first == again
    assert first != other


def test_stats_document_round_trips_through_cli_parser():
    wl = workloads.EXEC_QUALITY
    db = workloads.generate_db(wl, 0)
    built = {n: workloads.stats.build_table_stats(r) for n, r in db.items()}
    doc = json.loads(json.dumps(workloads.stats_document(built)))
    parsed = workloads.cli.parse_stats_document(
        doc, {n: r.schema for n, r in db.items()})
    assert parsed == built


DETERMINISTIC_END_TO_END = ("plan_cost_ratio", "exec_work_ratio")


@pytest.mark.parametrize("name", WORKLOADS)
def test_deterministic_metrics_repeat_exactly(name):
    wl = workloads.WORKLOADS[name]
    runs = [harness.end_to_end(harness.Run(), wl, 5, 0.05)[0]
            for _ in range(2)]
    for key in DETERMINISTIC_END_TO_END:
        assert runs[0][key] == runs[1][key], key
    traced = [harness.per_layer(harness.Run(), wl, 5, 0.05)[0]
              for _ in range(2)]
    counts = [k for k, (unit, _) in harness.PER_LAYER.items()
              if unit == "count" or k.startswith("enum.")]
    for key in counts:
        assert traced[0][key] == traced[1][key], key


def test_traced_run_restores_every_binding():
    before = tracing.originals()
    assert sum(len(t) for t in before.values()) > len(before)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for targets in before.values():
            for owner, attr, original in targets:
                assert getattr(owner, attr) is not original
    harness.per_layer(harness.Run(), workloads.EXEC_QUALITY, 0, 0.05)
    for name, targets in before.items():
        for owner, attr, original in targets:
            assert getattr(owner, attr) is original, (name, owner, attr)


def test_bindings_are_restored_after_an_error():
    before = tracing.originals()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    for targets in before.values():
        for owner, attr, original in targets:
            assert getattr(owner, attr) is original


def test_output_schema_counts_outermost_calls_only():
    tracer = tracing.Tracer()
    term = workloads.testkit.make_pattern("A", 3)
    schemas = workloads.testkit.pattern_schemas("A", 3)
    with tracing.installed(tracer):
        workloads.algebra.output_schema(term, schemas)
    assert tracer.bucket["algebra.output_schema"].calls == 1


def test_gate_names_a_mismatching_query():
    wl = workloads.EXEC_QUALITY
    state = harness.Run()
    inputs = workloads.setup(wl, 0, harness.run_capped)
    wrong = inputs.reference["join_agg"]
    inputs.reference["join_agg"] = type(wrong)(wrong.schema, wrong.rows[1:])
    planned = harness.correctness_gate(state, inputs)
    names = sorted(f.pair for f in state.failures if f.kind == "mismatch")
    assert names == ["join_agg/enumerate", "join_agg/greedy"]
    assert len(planned) == len(inputs.pairs) - 2


def test_chain4_reproduces_the_seed_anchors():
    # the enumerator counters of the seed commit (ROADMAP Baseline); update
    # ANCHORS when an enumerator change is meant to lower them
    inputs = workloads.setup(workloads.JOIN_ENUM, 0, harness.run_capped)
    for pair in inputs.pairs:
        expected = harness.ANCHORS.get(pair.name)
        if expected:
            result, _ = harness.plan_query(pair, inputs.stats_text)
            assert {k: result.counters[k] for k in expected} == expected
    assert set(harness.ANCHORS) <= {p.name for p in inputs.pairs}


def test_any_gate_failure_fails_the_run(monkeypatch, capsys):
    plan_query = harness.plan_query

    def failing(pair, stats_text):
        if pair.name == "map_filter/greedy":
            raise ValueError("planner bug")
        return plan_query(pair, stats_text)

    monkeypatch.setattr(harness, "plan_query", failing)
    assert harness.main("exec_quality", 0, 0.05, False) != 0
    out, err = capsys.readouterr()
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1
    assert "map_filter/greedy" in err


def test_query_past_the_cap_is_a_timeout(monkeypatch):
    monkeypatch.setattr(harness, "QUERY_CAP_S", 0.05)
    state = harness.Run()
    t0 = time.perf_counter()
    ok, _ = state.call("slow", "plan", time.sleep, 5)
    assert not ok
    assert time.perf_counter() - t0 < 2
    assert [(f.pair, f.kind) for f in state.failures] == \
        [("slow", "timeout")]
    assert state.attempted == 1


def test_speed_scales_by_the_probes_around_a_call(monkeypatch):
    speed = harness.Speed()
    factors = iter([2.0, 4.0])

    def fake_probe():
        speed.factors.append(next(factors))
        return speed.factors[-1]

    monkeypatch.setattr(speed, "_probe", fake_probe)
    result, raw, scaled = speed.timed(time.sleep, 0.02)
    assert result is None
    assert raw >= 0.02
    assert scaled == pytest.approx(raw / 3.0)


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_matches_the_harness():
    doc = _declared()
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == \
        list(workloads.WORKLOADS) == list(run.WORKLOADS)
    for key, table in (("end_to_end", harness.END_TO_END),
                       ("per_layer", harness.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in doc[key]}
        assert declared == table


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_names_every_metric_with_unit_and_direction(trace):
    proc = _run_cli(ROOT, "--workload", "exec_quality", "--seed", "2",
                    "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    table = harness.PER_LAYER if trace == "1" else harness.END_TO_END
    assert set(last["metrics"]) == set(table)
    for name, (unit, better) in table.items():
        assert last["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"metric {name} = ")
                   and line.endswith(f" {unit} ({better} is better)")
                   for line in lines), name


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "join_enum", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
