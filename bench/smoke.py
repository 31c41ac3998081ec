"""Smoke test for the benchmark harness; asserts no timings.

    python3 bench/smoke.py

Runs every workload of run.py at a fifth of its size, untraced and traced,
and checks that the last output line is a result whose metrics are exactly
the ones BENCHMARK.json declares for that mode, each a number with a unit.
Exits non-zero on the first mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite", "discriminate", "stream")
SCALE = "0.2"
SECONDS = "1"
TIMEOUT_S = 300


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", SECONDS, "--trace", str(trace),
         "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    json.loads(lines[-2])  # the environment and outputs record
    return json.loads(lines[-1])


def check(result: dict, declared: dict, label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise AssertionError(f"{label}: correct is not a bool")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise AssertionError(f"{label}: bad attempted/failed counts")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        raise AssertionError(
            f"{label}: missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != declared[name]:
            raise AssertionError(f"{label}: {name} = {m}, declared unit "
                                 f"{declared[name]!r}")
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            check(run(workload, trace), declared[trace], label)
            print(f"ok  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
