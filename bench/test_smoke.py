"""Smoke test of the benchmark itself, at the least work per workload.

    python3 -m pytest bench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
the outputs pass their checks, and that every count metric repeats exactly
across two traced runs of the same fixed amount of work.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def assert_named(metrics: dict, specs: list) -> None:
    assert set(metrics) == {m["name"] for m in specs}
    for m in specs:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_metrics_and_counts(workload):
    end_to_end = run(workload, 0)
    assert_named(end_to_end, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert end_to_end[m["name"]]["value"] > 0, m["name"]

    first, second = run(workload, 1), run(workload, 1)
    assert_named(first, SPEC["per_layer"])
    counts = {k for k, v in first.items() if v["unit"] == "count"}
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_fails_without_package_source():
    bare = ROOT / "bench" / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bench = bare / "bench"
    bench.mkdir(parents=True)
    for path in (ROOT / "bench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (bench / "census_reference.json").write_bytes(
        (ROOT / "bench" / "census_reference.json").read_bytes())
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crosscheck", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
