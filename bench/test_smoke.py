"""Smoke test of the benchmark harness on the stock toy fixture.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", "smoke",
                           "--seconds", "0.5", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("seed,trace", [(7, 0), (7, 1), (8, 0)])
def test_smoke_run_passes_checks_and_reports_declared_metrics(seed, trace):
    proc = _bench(ROOT, "--seed", str(seed), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, proc.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert "wrong_pair_share: " in proc.stdout
        assert all(result["metrics"][name]["value"] > 0 for name in result["metrics"])


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "--seed", "7", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
