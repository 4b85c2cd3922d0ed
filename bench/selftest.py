"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload untraced and traced, and checks that each run emits
exactly the metrics BENCHMARK.json names, with their units, that its output
checks pass, and that traced and untraced jobs produce identical digests.
Also checks that the benchmark fails without printing a result in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _check_result(proc, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"output checks failed: {proc.stdout.strip().splitlines()[-12:]}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted = {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if m.get("unit") != expected.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {expected.get(name)!r}")
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m.get('value')!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = _check_result(_run(ROOT, workload, trace), units[trace])
            if trace:
                record = json.loads((ROOT / ".bench_out" /
                                     f"{workload}-seed7-trace1.json").read_text())
                if record["traced_digests_match"] is not True:
                    problems.append("traced and untraced digests differ")
            status = "ok" if not problems else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            failures += [f"{workload} trace={trace}: {p}" for p in problems]

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        failures.append(f"bare directory: exit code {proc.returncode}, last line {last[0]!r}")
    print(f"bare directory: {'ok' if proc.returncode != 0 else 'FAIL'}")

    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
