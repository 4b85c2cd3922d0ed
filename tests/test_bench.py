"""Smoke test of the benchmark at tiny sizes, on all four workloads: the
finite-chain algebra, the split-chain samplers, the estimator and the
fixed-point replications.  The traced run wraps nullrec functions by name,
so a renamed entry point fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 11


@pytest.mark.parametrize("workload", ["chain_exact", "split_simulate", "modal_estimate",
                                      "fixed_point_walk"])
def test_traced_tiny_run_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--scale", "tiny", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace1.json").read_text())
    assert record["traced_digests_match"] is True
