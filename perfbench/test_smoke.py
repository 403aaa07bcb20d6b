"""Smoke test for the benchmark: tiny inputs, every workload, both modes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args, cwd=ROOT):
    script = Path(cwd) / "perfbench" / "run.py"
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, section):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    want = {m["name"]: m["unit"] for m in BENCH[section]}
    got = result["metrics"]
    assert set(got) == set(want)
    for name, unit in want.items():
        assert got[name]["unit"] == unit, name
        assert isinstance(got[name]["value"], (int, float)), name
    if section == "end_to_end":
        assert all(got[name]["value"] > 0 for name in want)


@pytest.mark.parametrize("seed", ["abc", "-1", "1.5", ""])
def test_bad_seed_fails_cleanly(seed):
    proc = run_bench("--workload", WORKLOADS[0], "--seed", seed,
                     "--seconds", "1", "--tiny")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_without_program_sources_fails_without_a_result():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in (ROOT / "perfbench").glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = run_bench("--workload", WORKLOADS[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
