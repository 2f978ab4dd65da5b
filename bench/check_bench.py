"""Tests of the benchmark itself.

    python3 -m pytest -q bench/check_bench.py

The file name keeps these slow tests out of the package's own test run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_exactly(name):
    first, second = (
        _result(_bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1"))
        for _ in range(2)
    )
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    exact = [k for k, v in first["metrics"].items() if v["unit"] != "s" and k != "bench.trace_overhead"]
    assert exact
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_agree(name, tmp_path):
    pkg = run.import_package()
    plain = workloads.WORKLOADS[name](pkg, 5, str(tmp_path / "plain"))
    traced = workloads.WORKLOADS[name](pkg, 5, str(tmp_path / "traced"))
    for path in (plain.workdir, traced.workdir):
        os.makedirs(path)
    inp_plain, inp_traced = plain.inputs(), traced.inputs()
    out_plain, _, _ = workloads.run_pass(plain, inp_plain)
    with spans.Tracer() as tracer:
        out_traced, _, _ = workloads.run_pass(traced, inp_traced)
    assert tracer.records
    assert out_plain == out_traced
    assert workloads.failures(plain, inp_plain, out_plain) == []
    # the wrappers are gone once the tracer exits
    assert pkg.algebra.column_rank is pkg.uber.column_rank
    assert not hasattr(pkg.algebra.column_rank, "__wrapped__")


def test_untraced_run_reports_end_to_end_metrics():
    result = _result(_bench("--workload", "integral-cli", "--seed", "2", "--seconds", "0", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "rational-sseq", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
