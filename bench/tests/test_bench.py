"""Tests of the benchmark harness itself (not part of the package's test suite).

    python3 -m pytest bench/tests -q
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from distdetect import cli  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_calls(tmp_path, name: str, calls: int = 2) -> tuple[tracing.Tracer, run.Runner]:
    workload = WORKLOADS[name]
    runner = run.Runner(workload, make_config(workload, 5, tiny=True), tmp_path)
    runner.call()
    tr = tracing.Tracer()
    with tr:
        for _ in range(calls):
            runner.call(tr)
    return tr, runner


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_restores_every_wrapped_name(tmp_path, name):
    before = tracing.current_targets()
    tr, runner = traced_calls(tmp_path, name)
    assert runner.failed == 0, runner.problems
    assert tr.spans, "the traced calls recorded no spans"
    after = tracing.current_targets()
    assert all(after[key] is obj for key, obj in before.items())


def test_restore_happens_when_a_traced_call_raises():
    before = tracing.current_targets()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert tracing.current_targets() != before
            1 / 0
    after = tracing.current_targets()
    assert all(after[key] is obj for key, obj in before.items())


@pytest.mark.parametrize("name", ["dist_solve", "budget_sweep"])
def test_self_times_add_up_to_the_parent_span(tmp_path, name):
    tr, _ = traced_calls(tmp_path, name)
    child = tr.children_time()
    roots = [i for i, s in enumerate(tr.spans) if s[3] < 0]
    assert [tr.spans[i][0] for i in roots] == ["cli.main", "cli.main"]
    for idx, (_, start, end, parent) in enumerate(tr.spans):
        assert end >= start
        assert child[idx] <= (end - start) + 1e-9
        if parent >= 0:
            assert tr.spans[parent][1] <= start and end <= tr.spans[parent][2]
    # the self times of all spans partition the root spans exactly
    total_self = sum((e - s) - child[i] for i, (_, s, e, _) in enumerate(tr.spans))
    total_root = sum(tr.spans[i][2] - tr.spans[i][1] for i in roots)
    assert total_self == pytest.approx(total_root, rel=1e-9)
    inside, self_s, calls = tr.totals(lambda n: n == "cli.main")
    assert calls == 2 and inside == pytest.approx(total_root)


def test_timed_calls_end_near_the_deadline_and_take_every_setup_probe(tmp_path):
    workload = WORKLOADS["roc_sweep"]
    runner = run.Runner(workload, make_config(workload, 5, tiny=True), tmp_path)
    setup: list[float] = []
    start = time.perf_counter()
    walls = runner.timed_calls(start + 3.0, setup)
    elapsed = time.perf_counter() - start
    assert runner.failed == 0, runner.problems
    assert len(walls) >= run.MIN_CALLS and len(setup) == run.SETUP_REPEATS
    # the last call starts only if a median call would end in time; a probe may follow it
    assert elapsed < 3.0 + max(walls) + max(setup) + 0.5


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_generated_configs_pass_validation(seed, tiny):
    for workload in WORKLOADS.values():
        raw = workload.config(seed, tiny)
        cfg = cli.validate_config(raw)
        assert cli.validate_config(cfg) == cfg
        assert make_config(workload, seed, tiny) == cfg
        if workload.name != "dist_solve":   # pinned to the fig1 network on purpose
            assert cfg["seed"] == seed


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    layer = [(name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        layer + run.TRACE_METRICS


def _bench(*args, cwd=ROOT, seconds="0.2"):
    return subprocess.run([sys.executable, "bench/run.py", *args, "--seconds", seconds],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_prints_every_named_metric(name, trace):
    out = _bench("--workload", name, "--seed", "3", "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    section = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    printed = "\n".join(lines[:-1])
    for label in ("consensus_rounds", "error_rate", "sha256", "env:"):
        assert label in printed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "roc_sweep", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
