"""Smoke test of the benchmark: one short run of every workload, untraced
and traced, must exit 0, report correct outputs and print exactly the
metric names ``BENCHMARK.json`` declares, with their units.

    python3 perfbench/smoke_test.py        # or: python3 -m pytest perfbench/smoke_test.py

A run shorter than one cycle still completes that cycle, so this takes
about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", workload,
                           "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_every_workload_prints_every_metric():
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(run(workload, 0), SPEC["end_to_end"])
        check_result(run(workload, 1), SPEC["per_layer"])


if __name__ == "__main__":
    test_every_workload_prints_every_metric()
    print("smoke test passed")
