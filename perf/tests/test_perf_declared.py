"""BENCHMARK.json against the benchmark: every declared metric × workload is
emitted exactly once with its unit, on a --quick run (tiny fixtures, ~300
requests, one round) that still checks every decision against the oracle."""

import json
import re
import subprocess
import sys

import pytest

from perf import compare, declared, fixtures
from perf.worker import run_workload
from perf.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DECLARATION = declared.load()


def test_declaration_is_within_the_contract():
    assert set(DECLARATION) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DECLARATION["paths"] == ["perf"]
    assert DECLARATION["command"] == ["python3", "perf/run.py"]
    assert 1 <= DECLARATION["run_seconds"] <= 60
    assert [w["name"] for w in DECLARATION["workloads"]] == list(WORKLOADS)
    for workload in DECLARATION["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = ([w["name"] for w in DECLARATION["workloads"]]
             + [m["name"] for m in DECLARATION["end_to_end"]]
             + [m["name"] for m in DECLARATION["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 1 <= len(DECLARATION["end_to_end"]) <= 16
    assert 1 <= len(DECLARATION["per_layer"]) <= 128
    for metric in DECLARATION["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARATION["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m for m in DECLARATION["end_to_end"]}
    assert bounds["setup_s"]["unit"] == "s" and bounds["setup_s"]["better"] == "lower"
    assert bounds["setup_s"]["bound"] == max(m["bound"] for m in bounds.values())


@pytest.fixture(scope="module")
def quick_fixtures(tmp_path_factory):
    directory = tmp_path_factory.mktemp("perf-fixtures")
    for config in fixtures.FIXTURES.values():
        fixtures.train_fixture(config, directory, quick=True)
    return directory


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_run_emits_every_end_to_end_metric(quick_fixtures, name):
    document = run_workload(WORKLOADS[name], quick_fixtures,
                            seed=17, seconds=0.0, trace=False, quick=True)
    assert document["quick"] is True and document["rounds"] == 1
    assert document["requests_failed"] == 0 and document["violations"] == []
    assert document["requests_sent"] == document["requests_ok"] > 0
    declared_units = {m["name"]: m["unit"] for m in DECLARATION["end_to_end"]}
    assert {n: m["unit"] for n, m in document["metrics"].items()} == declared_units
    assert document["absent"] == []
    assert all(metric["value"] > 0 for metric in document["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_traced_run_emits_or_names_every_per_layer_metric(quick_fixtures, name):
    document = run_workload(WORKLOADS[name], quick_fixtures,
                            seed=17, seconds=0.0, trace=True, quick=True)
    assert document["traced"] is True and document["rounds"] == 2
    assert document["requests_failed"] == 0 and document["violations"] == []
    declared_units = {m["name"]: m["unit"] for m in DECLARATION["per_layer"]}
    emitted = {n: m["unit"] for n, m in document["metrics"].items()}
    # exactly once: emitted with its unit, or named as absent — never both
    absent = set(document["absent"])
    assert set(emitted).isdisjoint(absent)
    assert set(emitted) | absent == set(declared_units)
    assert all(unit == declared_units[metric] for metric, unit in emitted.items())
    workload = WORKLOADS[name]
    on_path = {"server.submit_us", "queue.get_us", "future.resolve_us",
               "telemetry.record_us_per_request", "trace.overhead_share"}
    if workload.replicas:
        on_path |= {"rings.write_us", "rings.read_us", "arena.export_ms",
                    "replica.child_cpu_us_per_request"}
        assert "engine.step_us" in absent  # runs in the child process
    else:
        on_path |= {"engine.step_us", "executor.step_us", "ops.conv_us_per_step",
                    "policy.evals_per_step", "trace.coverage_share", "plan.compile_ms"}
        assert "rings.write_us" in absent
    if workload.observed:
        on_path |= {"wal.record_us_per_request", "spans.record_us_per_request",
                    "pricing.us_per_request", "telemetry.export_ms"}
    if workload.fresh_odd:
        on_path |= {"stem_memo.hit_share", "stem_memo.lookup_us_per_step"}
    if workload.open_loop:
        on_path |= {"loadgen.lag_p99_ms", "loadgen.latency_p99_ms"}
    assert on_path <= set(emitted)


def test_command_prints_the_contract_line_and_quick_output_is_refused(tmp_path):
    out = tmp_path / "quick.json"
    finished = subprocess.run(
        [sys.executable, "perf/run.py", "--quick", "--workload", "direct_static_closed",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--out", str(out)],
        cwd=declared.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert finished.returncode == 0, finished.stderr
    line = json.loads(finished.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARATION["end_to_end"]}
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())
    document = json.loads(out.read_text())
    assert document["quick"] is True
    with pytest.raises(ValueError, match="quick"):
        compare.compare(document, document, DECLARATION)
    assert compare.main([str(out), str(out)]) == 2
    assert not list((declared.ROOT / ".bench_build").glob("perf-*"))  # scratch removed


def _run(value, q1, q3):
    return {"value": value, "q1": q1, "q3": q3, "rounds": 5, "unit": "req/s"}


def test_compare_verdicts():
    steady = _run(100.0, 99.0, 101.0)
    assert compare.verdict(steady, _run(95.0, 94.0, 96.0), "higher", 0.08) == "ok"
    assert compare.verdict(steady, _run(90.0, 89.0, 91.0), "higher", 0.08) == "worse"
    assert compare.verdict(steady, _run(110.0, 109.0, 111.0), "higher", 0.08) == "ok"
    assert compare.verdict(steady, _run(110.0, 109.0, 111.0), "lower", 0.08) == "worse"
    assert compare.verdict(steady, _run(90.0, 80.0, 100.0), "higher", 0.08) == "unresolved"
    assert compare.verdict(steady, steady, "higher", 0.01) == "ok"
    assert compare.verdict(steady, _run(50.0, 49.0, 51.0), "higher", None) == "-"
