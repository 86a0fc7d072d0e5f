"""Self-tests of the benchmark harness (outside the tier-1 test paths).

    python3 -m pytest -q perfbench/tests

Each test runs ``perfbench/run.py`` in a child process from the repository
root, as the benchmark is meant to be run. Together they take about two
minutes on a 2-core machine, most of it one traced ``pyramid`` run.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"calls/job", "count/job", "files/job", "bytes/job"}


def bench(workload, seed=1, seconds=1, trace=0, cwd=ROOT, env=None):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def result(workload, **kwargs):
    proc = bench(workload, **kwargs)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["presets", "resample"])
def test_smoke_run_is_correct(workload):
    res = result(workload)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_counts_repeat_exactly():
    first, second = (result("presets", seed=3, trace=1) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {k for k, m in first["metrics"].items() if m["unit"] in COUNT_UNITS}
    assert "graphs.Graph.constructions" in counts and "cli.bytes_written" in counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_pyramid_traced_anchor():
    """Seed-commit anchor: 19 eigendecompositions, 9 Kron reductions and 9
    sparsifications per pyramid job; the run doubles as its smoke test."""
    res = result("pyramid", trace=1)
    assert res["correct"] and res["failed"] == 0
    metrics = {k: m["value"] for k, m in res["metrics"].items()}
    assert metrics["spectral.eigendecompose.calls"] == 19
    assert metrics["reduction.kron_reduce.calls"] == 9
    assert metrics["reduction.sparsify.calls"] == 9
    assert metrics["cli.run_experiment.calls"] == 1


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("presets", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_more_blas_threads_than_nproc():
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(len(os.sched_getaffinity(0)) + 1))
    proc = bench("presets", env=env)
    assert proc.returncode == 2
    assert "nproc" in proc.stderr and '"correct"' not in proc.stdout
