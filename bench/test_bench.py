"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import models  # noqa: E402
from bcsl import build_lts, parse_model  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def smoke_results(trace: int) -> dict:
    done = bench("--workload", "all", "--smoke", "--seconds", "0.1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_smoke_run_reports_every_end_to_end_metric():
    results = smoke_results(trace=0)
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    for result in results.values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        for spec in SPEC["end_to_end"]:
            metric = result["metrics"][spec["name"]]
            assert metric["value"] > 0 and metric["unit"] == spec["unit"]


def test_traced_smoke_run_reports_every_layer():
    results = smoke_results(trace=1)
    for result in results.values():
        assert result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    layer = {name: {k: v["value"] for k, v in r["metrics"].items()} for name, r in results.items()}
    assert layer["lts_sites"]["lts.successors.calls"] > 0
    assert layer["lts_sites"]["mrs.rules"] == 0
    assert layer["corpus_check"]["mrs.successors.calls"] > 0
    assert 0 < layer["corpus_check"]["patterns.ground_rule.consistent_ratio"] <= 1
    assert layer["regulated"]["regulation.permits.calls"] > 0
    assert 0 < layer["regulated"]["lts.unroll.repeat_ratio"] < 1
    assert layer["corpus_check"]["syntax.parse_model.s"] > 0
    trace_file = json.loads((ROOT / ".bench_run" / "trace-regulated-seed0.json").read_text())
    assert {m["name"] for m in SPEC["per_layer"]} <= set(trace_file["metrics"])
    assert trace_file["metrics"]["regulation.permits.s"] > 0
    assert any(span["name"] == "lts.unroll" for span in trace_file["spans"])


@pytest.mark.parametrize("seed", range(5))
def test_scrambled_models_mean_the_same(seed):
    rng = random.Random(seed)
    for text in [models.site_model(3, 2, 3), *models.corpus_models(20)]:
        original, scrambled = parse_model(text), parse_model(models.scramble_model(text, rng))
        assert set(map(str, scrambled.rules)) == set(map(str, original.rules))
        assert scrambled.init == original.init
        assert scrambled.atomic_signature == original.atomic_signature
        assert scrambled.structure_signature == original.structure_signature


@pytest.mark.parametrize("n,k,c", [(1, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 2)])
def test_site_family_reaches_every_multiset_of_agent_kinds(n, k, c):
    graph = build_lts(parse_model(models.site_model(n, k, c)))
    assert graph.n_states == comb(2 * k**n + c - 1, c)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "lts_sites", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_wrong_output_fails_the_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "bench" / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    op = next(iter(reference["smoke"]["lts_sites"]))
    reference["smoke"]["lts_sites"][op][1] = "0" * 64
    path.write_text(json.dumps(reference), encoding="utf-8")
    done = bench("--workload", "lts_sites", "--smoke", "--seconds", "0.1", cwd=tmp_path)
    assert done.returncode == 1
    result = json.loads(done.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] // 2
