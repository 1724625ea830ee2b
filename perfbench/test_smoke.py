"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Not part of the package's test suite: it checks that every workload runs,
reports every metric of BENCHMARK.json with its unit, and finds no failed
item; and that the benchmark refuses what it must refuse.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric_and_no_failure(workload, trace):
    out = run("--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    assert any(line.split()[:2] == ["failed_frac", "0.0"] for line in lines)
    prov = json.loads(lines[0])["provenance"]
    assert prov["seed"] == 3 and prov["nproc"] >= prov["workers"] >= 1


def test_same_seed_same_inputs_other_seed_other_inputs():
    sys.path.insert(0, str(HERE))
    from inputs import build

    for w in BENCH["workloads"]:
        assert build(w["name"], 5).digest == build(w["name"], 5).digest
        assert build(w["name"], 5).digest != build(w["name"], 6).digest


def test_worker_count_above_nproc_is_refused():
    n = len(os.sched_getaffinity(0))
    out = run("--workload", "pitchfork_map", "--seed", "1", "--seconds", "1",
              "--workers", str(n + 1))
    assert out.returncode == 2 and out.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run("--workload", "orbit_trace", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""
