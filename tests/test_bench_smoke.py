"""The benchmark harness at smoke sizes, so that it and its reference
digests are exercised on every test run (about three seconds)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("lts_sites", "regulated", "corpus_check")


def test_bench_smoke_outputs_match_reference():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--smoke", "--seconds", "0.1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(results) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        result = results[workload]
        assert result["correct"] is True, (workload, done.stderr)
        assert result["failed"] == 0, (workload, done.stderr)
        assert result["attempted"] > 0, workload
