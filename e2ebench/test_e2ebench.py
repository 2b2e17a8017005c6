"""Smoke tests for the benchmark itself: every workload, the oracle, and
the traced run, at tiny scale.

Run with ``python -m pytest e2ebench -q`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)


def run_bench(*args, cwd=ROOT, timeout=170):
    out = subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )
    return out


def result_of(out):
    assert out.returncode == 0, out.stderr[-3000:] + out.stdout[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["http-point", "bulk-analytics", "catalog-churn"])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = result_of(run_bench("--workload", workload, "--seed", "3",
                                 "--seconds", "2", "--trace", "0", "--smoke"))
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["http-point", "bulk-analytics", "catalog-churn"])
def test_traced_run_prints_every_per_layer_metric(workload):
    out = run_bench("--workload", workload, "--seed", "4", "--seconds", "4",
                    "--trace", "1", "--smoke")
    result = result_of(out)
    expected = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["engine.run.self_ms"] > 0
    assert metrics["trace.overhead_ratio"] > 0
    assert "requests_unmatched: 0" in out.stdout
    if workload == "http-point":
        assert metrics["api.read.self_ms"] > 0
        assert metrics["ingest.digest.self_ms"] > 0
    if workload == "catalog-churn":
        # worker-side spans made it back from the process pool
        assert metrics["workers.task.self_ms"] > 0
        assert metrics["catalog.builds"] > 0


def test_same_seed_same_inputs():
    import common
    import http_point as hp

    common.require_sources()
    graphs = hp.make_graphs(hp.SMOKE)
    first = hp.request_stream(hp.SMOKE, graphs, 7, 2.0)
    again = hp.request_stream(hp.SMOKE, graphs, 7, 2.0)
    other = hp.request_stream(hp.SMOKE, graphs, 8, 2.0)
    assert [r.body for r in first] == [r.body for r in again]
    assert [r.body for r in first] != [r.body for r in other]


def test_oracle_rejects_a_wrong_answer():
    import numpy as np

    import common
    from inproc import BulkAnalytics

    common.require_sources()
    workload = BulkAnalytics(1, smoke=True)
    graphs = workload.make_graphs()
    oracle = common.Oracle(graphs)
    name = sorted(graphs)[0]
    source = workload.pools(graphs)[name][0]
    oracle.ensure([(name, "bfs", source), (name, "pr", -1)])
    good = oracle.values(name, "bfs", source).astype(np.float64)
    assert oracle.matches(name, "bfs", source, good)
    bad = good.copy()
    bad[np.isfinite(bad).argmax()] += 1
    assert not oracle.matches(name, "bfs", source, bad)
    ranks = oracle.values(name, "pr", -1)
    assert oracle.matches(name, "pr", -1, ranks * (1 + 1e-9))
    assert not oracle.matches(name, "pr", -1, ranks * (1 + 1e-4))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "http-point", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
