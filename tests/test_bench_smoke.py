"""The benchmark harness at smoke sizes, so that it and its reference
digests are exercised on every test run (about three seconds), and the
span recorder's hooks into the program."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from bcsl.cli import main
from conftest import REGULATION_CONFIGS, TWO_SITE_MODEL, bench_module

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


# Span and leaf names that the benchmark's span recorder (bench/tracer.py)
# reports per command on the two-site model.  A name it rebinds that no
# longer exists fails ``install``; a layer reached around a rebound name
# drops out of these sets.
_SPANS = {"cli.main", "lts.RuleMatcher.init", "syntax.parse_model"}
# A regulated command grounds nothing: the concurrent-free guard unifies.
_REGULATED_SPANS = {"regulation.compile_regulation", "regulation.make_guard"}
TRACED_NAMES = [
    (["lts"], _SPANS | {"lts.explore", "lts.export"}, {"lts.successors"}),
    (["lts", "--unroll"], _SPANS | {"lts.unroll", "lts.export"}, {"lts.successors"}),
    (
        ["lts", "--regulation", "reg.json"],
        _SPANS | _REGULATED_SPANS | {"lts.explore", "lts.export"},
        {"lts.successors", "regulation.permits"},
    ),
    (
        ["lts", "--regulation", "reg.json", "--unroll"],
        _SPANS | _REGULATED_SPANS | {"lts.unroll", "lts.export"},
        {"lts.successors", "regulation.permits"},
    ),
    (
        ["check"],
        _SPANS
        | {"conformance.check_equivalence", "lts.explore", "mrs.build_mrs", "patterns.ground_rule"},
        {"lts.successors", "mrs.successors"},
    ),
]


@pytest.mark.parametrize(
    "command, spans, leaves",
    TRACED_NAMES,
    ids=["lts", "lts-unroll", "lts-regulated", "lts-regulated-unroll", "check"],
)
def test_tracer_sees_every_layer(capsys, monkeypatch, tmp_path, command, spans, leaves):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.bcsl").write_text(TWO_SITE_MODEL, encoding="utf-8")
    config = json.dumps(REGULATION_CONFIGS["concurrent-free"])
    (tmp_path / "reg.json").write_text(config, encoding="utf-8")
    tracer = bench_module("tracer")
    trace = tracer.Tracer()
    undo = tracer.install(trace)
    try:
        span = trace.begin("cli.main")
        assert main([command[0], "model.bcsl", *command[1:]]) == 0
        trace.end(span)
        trace.settle()
    finally:
        undo()
    capsys.readouterr()
    assert {name for name, *_ in trace.spans} == spans
    assert {leaf for *_, span_leaves in trace.spans for leaf in span_leaves} == leaves


def test_tracer_counts_the_bytes_of_a_json_export(capsys, monkeypatch, tmp_path):
    # The recorder times ``json.dumps`` inside ``bcsl.cli``: the JSON writer
    # must go through it, or the export span would miss the dump.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.bcsl").write_text(TWO_SITE_MODEL, encoding="utf-8")
    config = json.dumps(REGULATION_CONFIGS["programmed"])
    (tmp_path / "reg.json").write_text(config, encoding="utf-8")
    tracer = bench_module("tracer")
    trace = tracer.Tracer()
    undo = tracer.install(trace)
    try:
        assert main(["lts", "model.bcsl", "--regulation", "reg.json"]) == 0
        trace.settle()
    finally:
        undo()
    out = capsys.readouterr().out
    dumped = [
        counts["bytes"] for name, *_, counts, _ in trace.spans if name == "lts.export" and counts
    ]
    # The CLI ends its output with the one newline that the dump lacks.
    assert dumped == [len(out.encode("utf-8")) - 1]
