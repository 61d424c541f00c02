import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import bcsl
from bcsl import Mrs, build_mrs, cli, conformance, parse_model, parse_multiset
from bcsl.cli import main
from conftest import REGULATION_CONFIGS, TWO_SITE_MODEL, WIDE_SIGNATURE_MODEL, bench_module
from corpus import random_model_text


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "model.bcsl"
    path.write_text(TWO_SITE_MODEL, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_regulation(tmp_path, name) -> str:
    path = tmp_path / f"reg_{name}.json"
    path.write_text(json.dumps(REGULATION_CONFIGS[name]), encoding="utf-8")
    return str(path)


def _child_env() -> dict[str, str]:
    """The environment, with this ``bcsl`` first on a child's path."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(bcsl.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=root + os.pathsep + inherited if inherited else root)


# ---------------------------------------------------------------------------
# parse / ground
# ---------------------------------------------------------------------------

def test_parse_json(capsys, model_path):
    code, out, _ = run_cli(capsys, "parse", model_path)
    assert code == 0
    obj = json.loads(out)
    assert [r["label"] for r in obj["rules"]] == ["r1_S", "r1_T", "r2"]
    assert obj["atomic_signature"] == {"S": ["a", "i"], "T": ["a", "i"]}
    assert obj["structure_signature"] == {"P": ["S", "T"]}
    assert obj["init"] == {"P(S{i},T{i})::cell": 1}


def test_parse_text_roundtrips(capsys, model_path, tmp_path):
    code, out, _ = run_cli(capsys, "parse", model_path, "--format", "text")
    assert code == 0
    echoed = tmp_path / "echo.bcsl"
    echoed.write_text(out, encoding="utf-8")
    code2, out2, _ = run_cli(capsys, "parse", str(echoed), "--format", "text")
    assert code2 == 0
    assert out2 == out


def test_ground_json(capsys, model_path):
    code, out, _ = run_cli(capsys, "ground", model_path)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["elements"]) == 8
    assert obj["elements"] == sorted(obj["elements"])
    assert len(obj["rules"]) == 8
    assert obj["init"] == {"P(S{i},T{i})::cell": 1}
    assert {r["label"] for r in obj["rules"]} == {"r1_S", "r1_T", "r2"}


# ---------------------------------------------------------------------------
# lts
# ---------------------------------------------------------------------------

def test_lts_dot(capsys, model_path):
    code, out, _ = run_cli(capsys, "lts", model_path, "--format", "dot")
    assert code == 0
    assert out.count(" -> ") == 8
    assert out.count("peripheries=2") == 1


def test_lts_json(capsys, model_path):
    code, out, _ = run_cli(capsys, "lts", model_path)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["states"]) == 8
    assert len(obj["transitions"]) == 8
    assert obj["truncated"] is False


def test_lts_unroll_tree(capsys, model_path):
    code, out, _ = run_cli(
        capsys, "lts", model_path, "--unroll", "--max-depth", "4", "--format", "dot"
    )
    assert code == 0
    assert out.count(" -> ") == 9
    assert out.count("[label=") == 10 + 9  # nodes + edges


def test_lts_regulated_tree(capsys, model_path, tmp_path):
    reg = write_regulation(tmp_path, "regular")
    code, out, _ = run_cli(
        capsys,
        "lts",
        model_path,
        "--regulation",
        reg,
        "--unroll",
        "--max-depth",
        "4",
        "--format",
        "dot",
    )
    assert code == 0
    assert out.count(" -> ") == 5


def test_lts_regulated_graph_json(capsys, model_path, tmp_path):
    reg = write_regulation(tmp_path, "concurrent-free")
    code, out, _ = run_cli(capsys, "lts", model_path, "--regulation", reg)
    assert code == 0
    obj = json.loads(out)
    labels = {edge[1] for edge in obj["transitions"]}
    assert "ε" in labels  # regulation deadlocks stutter
    assert obj["states"] == sorted(obj["states"])


def test_lts_text_summary(capsys, model_path):
    code, out, _ = run_cli(capsys, "lts", model_path, "--format", "text")
    assert code == 0
    assert "states: 8" in out
    assert "transitions: 8" in out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_deterministic(capsys, model_path):
    code, first, _ = run_cli(capsys, "simulate", model_path, "--steps", "3", "--seed", "7")
    code2, second, _ = run_cli(capsys, "simulate", model_path, "--steps", "3", "--seed", "7")
    assert code == code2 == 0
    assert first == second
    obj = json.loads(first)
    assert len(obj["labels"]) == 3
    assert len(obj["states"]) == 4


def test_simulate_regulated(capsys, model_path, tmp_path):
    reg = write_regulation(tmp_path, "regular")
    code, out, _ = run_cli(
        capsys, "simulate", model_path, "--steps", "4", "--seed", "1", "--regulation", reg
    )
    assert code == 0
    labels = tuple(json.loads(out)["labels"])
    assert labels in {
        ("r1_S", "r1_T", "r2", "ε"),
        ("r1_T", "r1_S", "ε", "ε"),
    }


def test_simulate_text(capsys, model_path):
    code, out, _ = run_cli(
        capsys, "simulate", model_path, "--steps", "2", "--seed", "0", "--format", "text"
    )
    assert code == 0
    assert out.startswith("step 0: 1 P(S{i},T{i})::cell")


def test_simulate_runs_on_the_direct_matcher(capsys, model_path, monkeypatch):
    def refuse(model):
        raise AssertionError("simulate grounded the model")

    monkeypatch.setattr("bcsl.cli.build_mrs", refuse)
    code, out, err = run_cli(capsys, "simulate", model_path, "--steps", "4")
    assert code == 0, err
    assert len(json.loads(out)["labels"]) == 4


@pytest.mark.parametrize(
    "argv",
    [["lts"], ["lts", "--unroll", "--max-depth", "4"], ["simulate", "--steps", "6"]],
    ids=["lts", "lts-unroll", "simulate"],
)
def test_concurrent_free_commands_ground_nothing(capsys, model_path, tmp_path, monkeypatch, argv):
    # The concurrency relation comes from unifying left-hand patterns.
    calls = []

    def counted(*args):
        calls.append(args)
        raise AssertionError("a concurrent-free command grounded the model")

    monkeypatch.setattr("bcsl.cli.build_mrs", counted)
    monkeypatch.setattr("bcsl.regulation.build_mrs", counted)
    monkeypatch.setattr("bcsl.mrs.ground_rule", counted)
    reg = write_regulation(tmp_path, "concurrent-free")
    code, _, err = run_cli(capsys, argv[0], model_path, "--regulation", reg, *argv[1:])
    assert code == 0, err
    assert len(calls) == 0


@pytest.mark.parametrize(
    "argv, n_states",
    [(["lts", "--unroll", "--max-depth", "4"], 8), (["simulate", "--steps", "30"], 3)],
    ids=["lts-unroll", "simulate"],
)
def test_walks_that_revisit_ask_for_each_state_once(
    capsys, model_path, monkeypatch, argv, n_states
):
    # ``unroll`` and ``sample_run`` ask for a node again; the CLI caches the walk.
    asked = []

    class CountingMatcher(bcsl.regulation.RuleMatcher):
        def successors(self, state):
            asked.append(state)
            return super().successors(state)

    monkeypatch.setattr("bcsl.regulation.RuleMatcher", CountingMatcher)
    code, _, err = run_cli(capsys, argv[0], model_path, *argv[1:])
    assert code == 0, err
    assert len(asked) == len(set(asked)) == n_states


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_passes(capsys, model_path):
    code, out, _ = run_cli(capsys, "check", model_path)
    assert code == 0
    assert "verdict: pass" in out


def test_check_json(capsys, model_path):
    code, out, _ = run_cli(capsys, "check", model_path, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "pass"
    assert obj["counterexample"] is None
    assert obj["direct"] == obj["grounded"] == {"states": 8, "transitions": 12}


def test_check_truncation_exit_code(capsys, model_path):
    code, out, _ = run_cli(capsys, "check", model_path, "--max-states", "3")
    assert code == 2
    assert "truncated" in out


# ---------------------------------------------------------------------------
# error handling and exit codes
# ---------------------------------------------------------------------------

FAILED_CHECK_TEXT = """\
verdict: fail
states checked: 8
direct semantics: 8 states, 12 transitions
grounded semantics: 7 states, 10 transitions
counterexample (transition, direct_only):
  state: 1 P(S{i},T{i})::cell
  rule:  r2
  direct rewriting reaches 1 P(S{i},T{i})::out via 'r2' but no grounded rule does
"""


def test_failed_check_prints_its_counterexample(capsys, model_path, monkeypatch):
    # The grounded side loses its reaction r2 at the initial state.
    build = conformance.build_mrs

    def lossy(model):
        mrs = build(model)
        start = parse_multiset("1 P(S{i},T{i})::cell")
        rules = tuple(r for r in mrs.rules if not (r.label == "r2" and r.pre == start))
        assert len(rules) == len(mrs.rules) - 1
        return Mrs(rules, mrs.init)

    monkeypatch.setattr(conformance, "build_mrs", lossy)
    assert run_cli(capsys, "check", model_path) == (1, FAILED_CHECK_TEXT, "")
    code, out, err = run_cli(capsys, "check", model_path, "--json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["counterexample"] == {
        "detail": "direct rewriting reaches 1 P(S{i},T{i})::out via 'r2' but no grounded rule does",
        "direction": "direct_only",
        "kind": "transition",
        "label": "r2",
        "state": "1 P(S{i},T{i})::cell",
    }
    assert (report["direct"], report["grounded"]) == (
        {"states": 8, "transitions": 12},
        {"states": 7, "transitions": 10},
    )


STATE_CHECK_TEXT = """\
verdict: fail
states checked: 2
direct semantics: 1 states, 0 transitions
grounded semantics: 1 states, 0 transitions
warning: exploration truncated by bounds; prefixes compared
counterexample (state, direct_only):
  state: 1 P(S{i},T{i})::cell
  runs start here by direct rewriting but at 1 P(S{a},T{a})::cell in the grounded system
"""

STATE_CHECK_JSON = """\
{
  "counterexample": {
    "detail": "runs start here by direct rewriting but at 1 P(S{a},T{a})::cell in the grounded system",
    "direction": "direct_only",
    "kind": "state",
    "label": null,
    "state": "1 P(S{i},T{i})::cell"
  },
  "direct": {
    "states": 1,
    "transitions": 0
  },
  "grounded": {
    "states": 1,
    "transitions": 0
  },
  "states_checked": 2,
  "truncated": true,
  "verdict": "fail"
}
"""


def test_failed_check_prints_a_state_counterexample(capsys, model_path, monkeypatch):
    # The grounded side starts elsewhere; at depth 0 no edge is explored,
    # so only the state sets differ and the counterexample has no rule.
    build = conformance.build_mrs
    start = parse_multiset("1 P(S{a},T{a})::cell")
    monkeypatch.setattr(
        conformance, "build_mrs", lambda model: Mrs(build(model).rules, start)
    )
    argv = ("check", model_path, "--max-depth", "0")
    assert run_cli(capsys, *argv) == (1, STATE_CHECK_TEXT, "")
    assert run_cli(capsys, *argv, "--json") == (1, STATE_CHECK_JSON, "")


def test_usage_error_exit_code(capsys):
    assert main(["lts"]) == 2  # missing model argument
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


# SHA-256 of repr((exit code, stdout, stderr)) of ``main(line.split())`` at
# 80 columns, recorded under Python 3.11 while ``main`` still built the full
# argparse tree for every call.  They hold for a warm subcommand parser too,
# one that an earlier call in the process built.  "m" names no file: every
# line ends in parsing.  A stray argument is reported by the top-level
# ``bcsl`` parser.
USAGE_DIGESTS = {
    "": "7f0998d7ae914d55397b2f39eb76955dd910516a4385fe5f99d615dff5002eaa",
    "-h": "142980751fb8110b6f6c727df83c5e3ec7e6ddca63276b4c6f87aedded7fdbfb",
    "--help": "142980751fb8110b6f6c727df83c5e3ec7e6ddca63276b4c6f87aedded7fdbfb",
    "-h check": "142980751fb8110b6f6c727df83c5e3ec7e6ddca63276b4c6f87aedded7fdbfb",
    "parse -h": "8e83bc44ed655f56d41ad71da3afcb9baa87ca990737d92c0c8df0e1045b1070",
    "ground -h": "1e33636c96a142576e29497478c6c27465b5263d26f7d52868e1b4e88efc78fb",
    "lts -h": "53d2e1417d276d939eda98fb6afbaee3f373fa4761c221e0fdb9a1be644ceacf",
    "simulate -h": "a65de9e023d0b21bb943cfd8a153f75533b7389f460260e5316b3521b8e0f29d",
    "check -h": "b4a93860de2e94225dc4dc4f21701859b01b0a45328133c018425f9a3485836d",
    "frob x": "542176a453f930b6db127b993e0fc7e95c3d1e789b98a1ae8e489f9a69e88b78",
    "check": "f99bd25c6604d8993c5cad83f4c3dcd5468d157af1ff46785b71d3587f929fbb",
    "--frob check m": "1584813b786f41db47c7f13dc27ccbe0bedcdc1ea727c2383b92bfd0de5288c5",
    "lts m --max-states -1": "7d7beeabe3441666d1cce3067413ec785a85b714c3e6ec2bd0d7ddda61024a00",
    "lts m --max-depth x": "29f1f8f3d1efb898def86b805d4185cc222373f266c7a94e3407c368c4a730a1",
    "simulate m --steps -2": "1ad74236eb5748c1513f3d58f368c7e1a601af8c7e6220e0e3bb8e6be7f15966",
    "simulate m --seed q": "599c5590a0a31621159bda6eb466da103d8f6d34d6bcfbf697865b0fe71f1d38",
    "lts m --format svg": "0b9cadf237db8774325395e0321e8a5fc8293b62cd2bfdab9c79dce05557a37a",
    "check m --max": "8118cafaf98a377b6b442267bc1a3575409c97ac13768df5229d0ab6bf8b1a42",
    "parse m --frob": "1584813b786f41db47c7f13dc27ccbe0bedcdc1ea727c2383b92bfd0de5288c5",
    "ground m --frob": "1584813b786f41db47c7f13dc27ccbe0bedcdc1ea727c2383b92bfd0de5288c5",
    "lts m --frob": "1584813b786f41db47c7f13dc27ccbe0bedcdc1ea727c2383b92bfd0de5288c5",
    "simulate m --frob": "1584813b786f41db47c7f13dc27ccbe0bedcdc1ea727c2383b92bfd0de5288c5",
    "check m --frob": "1584813b786f41db47c7f13dc27ccbe0bedcdc1ea727c2383b92bfd0de5288c5",
    "lts m --unroll extra": "29fd2fe87ce2216ff367cfb1ca222ae0322949815adbe2f16d2b9b3e3e6158d3",
}


@pytest.mark.parametrize("line", list(USAGE_DIGESTS))
def test_usage_keeps_its_bytes(capsys, monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")
    argv = line.split()
    result = (main(argv), *capsys.readouterr())
    with pytest.raises(SystemExit) as parsed:
        cli.build_arg_parser().parse_args(argv)
    assert result == (parsed.value.code, *capsys.readouterr())
    if sys.version_info[:2] == (3, 11):  # argparse words some messages differently elsewhere
        assert hashlib.sha256(repr(result).encode()).hexdigest() == USAGE_DIGESTS[line]


@pytest.mark.parametrize(
    "argv, most", [(["check", "--json"], 6), (["lts", "--format", "text"], 8)], ids=["check", "lts"]
)
def test_a_valid_call_builds_one_parser(model_path, tmp_path, monkeypatch, argv, most):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    cli._command_parser.cache_clear()
    command, *flags = argv
    call = [command, model_path, *flags, "-o", str(tmp_path / "out")]
    assert main(call) == 0
    assert len(added) <= most, added
    added.clear()
    assert main(call) == 0
    assert added == []


def test_a_reused_parser_carries_nothing_between_calls(capsys, model_path, tmp_path, monkeypatch):
    out = tmp_path / "out.dot"
    calls = [
        ["lts", model_path, "--unroll", "--max-depth", "2", "--format", "text"],
        ["lts", model_path, "--format", "text"],
        ["simulate", model_path, "--seed", "5", "--steps", "3"],
        ["simulate", model_path],
        ["check", model_path, "--json"],
        ["check", model_path],
        ["lts", model_path, "--max-states", "-1"],
        ["lts", model_path, "--frob"],
        ["lts", model_path, "--format", "dot", "-o", str(out)],
    ]

    def run(argv):
        out.unlink(missing_ok=True)
        code = main(argv)
        return (code, *capsys.readouterr(), out.read_bytes() if out.exists() else None)

    monkeypatch.setenv("COLUMNS", "40")
    cli._command_parser.cache_clear()
    narrow = [run(argv) for argv in calls]
    monkeypatch.setenv("COLUMNS", "80")
    warm = [run(argv) for argv in calls]
    cold = []
    for argv in calls:
        cli._command_parser.cache_clear()
        cold.append(run(argv))
    assert warm == cold
    # The usage line wraps at the width read when the error is printed.
    negative = calls.index(["lts", model_path, "--max-states", "-1"])
    assert narrow[negative][2] != warm[negative][2]
    assert warm[-1][3] is not None


def test_module_entry_reads_sys_argv(model_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bcsl", "check", model_path, "--frob"],
        capture_output=True,
        env=_child_env(),
        check=False,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines()[-1] == "bcsl: error: unrecognized arguments: --frob"


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.bcsl"
    bad.write_text("#! rules\nr ~ P(T{i},S{i})::c => P()::c\n#! inits\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "parse", str(bad))
    assert code == 3
    assert "alphanumerically sorted" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--steps", "-1"),
        ("lts", "--max-states", "-5"),
        ("lts", "--max-depth", "-1"),
        ("check", "--max-states", "-1"),
        ("check", "--max-depth", "-2"),
    ],
)
def test_negative_bounds_are_usage_errors(capsys, model_path, argv):
    command, *flags = argv
    code, out, err = run_cli(capsys, command, model_path, *flags)
    assert code == 2
    assert out == ""
    assert f"error: argument {flags[0]}: must be non-negative" in err
    assert "Traceback" not in err


def test_zero_bounds_are_accepted(capsys, model_path):
    code, out, _ = run_cli(capsys, "simulate", model_path, "--steps", "0", "--format", "text")
    assert code == 0
    assert out == "step 0: 1 P(S{i},T{i})::cell\n"


def test_non_utf8_model_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "latin1.bcsl"
    bad.write_bytes(b"#! rules\nr ~ A{x}::c => A{\xe9}::c\n#! inits\n1 A{x}::c\n")
    code, out, err = run_cli(capsys, "parse", str(bad))
    assert code == 3
    assert out == ""
    assert err == "error: line 2, column 18: model file is not valid UTF-8: invalid continuation byte\n"


@pytest.mark.parametrize("before", ["", "é"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_non_utf8_model_reports_the_parsers_position(capsys, tmp_path, newline, before):
    # Lines end where the parser ends them, and columns count characters.
    head = newline.join(["#! rules", "r ~ A{x}::c => A{y}::c", "#! inits", f"1 A{{x}}::c {before}"])
    bad = tmp_path / "bad.bcsl"
    bad.write_bytes(head.encode("utf-8") + b"\xff" + newline.encode())
    code, out, err = run_cli(capsys, "parse", str(bad))
    assert (code, out) == (3, "")
    column = 11 + len(before)
    reason = "model file is not valid UTF-8: invalid start byte"
    assert err == f"error: line 4, column {column}: {reason}\n"
    if not before:  # a syntax error at the same place reads the same position
        bad.write_bytes(head.encode("utf-8") + b"$" + newline.encode())
        code, _, err = run_cli(capsys, "parse", str(bad))
        assert (code, err) == (3, "error: line 4, column 11: unexpected character '$'\n")


def test_non_utf8_regulation_is_a_usage_error(capsys, model_path, tmp_path):
    reg = tmp_path / "reg.json"
    reg.write_bytes(b'{"type": "regular", "expression": "r\xff"}')
    code, out, err = run_cli(capsys, "lts", model_path, "--regulation", str(reg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: regulation file is not valid UTF-8")
    assert "Traceback" not in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "parse", "/nonexistent/model.bcsl")
    assert code == 2
    assert "error" in err


# X() stands for 2^20 agents, over the default grounding cap of 10^6.
_X_U = ",".join(f"a{i:02d}{{u}}" for i in range(20))
_X_V = ",".join(f"a{i:02d}{{v}}" for i in range(20))
_Y_U = ",".join(f"b{i}{{u}}" for i in range(10))
_Y_V = ",".join(f"b{i}{{v}}" for i in range(10))
CAP_MODELS = {
    # rule r1 has an agent over the cap
    "agent-over-cap": (
        "#! rules\n"
        f"r1 ~ X({_X_U})::c => X()::c\n"
        f"r2 ~ X({_X_V})::c => X()::c\n"
        "#! inits\n"
        f"1 X({_X_U})::c\n"
    ),
    # r1's agents stand for 2^10 agents each, but its 2^20 candidate pairs
    # are over the cap; r2 has an agent over the cap
    "pairs-over-cap": (
        "#! rules\n"
        "r1 ~ Y()::c => Y()::d\n"
        f"r2 ~ X({_X_U})::c => X()::c\n"
        "#! inits\n"
        f"1 Y({_Y_U})::c\n"
        f"1 Y({_Y_V})::d\n"
        f"1 X({_X_U})::c\n"
        f"1 X({_X_V})::d\n"
    ),
}


def test_grounding_cap_exit_code(capsys, tmp_path):
    big = tmp_path / "big.bcsl"
    big.write_text(CAP_MODELS["agent-over-cap"], encoding="utf-8")
    code, _, err = run_cli(capsys, "ground", str(big))
    assert code == 4
    assert "cap" in err


@pytest.mark.parametrize(
    "command", ["ground", "check", "simulate", "lts", "lts-unroll", "lts-concurrent-free"]
)
@pytest.mark.parametrize("name", sorted(CAP_MODELS))
def test_grounding_cap_ends_every_grounding_command(capsys, tmp_path, name, command):
    # Which rule trips the cap first may change the message; the exit code
    # and the one-line form may not.
    big = tmp_path / "big.bcsl"
    big.write_text(CAP_MODELS[name], encoding="utf-8")
    argv = [command, str(big)]
    if command == "lts-unroll":
        argv = ["lts", str(big), "--unroll"]
    if command == "lts-concurrent-free":
        regulation = tmp_path / "reg.json"
        regulation.write_text(
            json.dumps({"type": "concurrent-free", "priority": [["r1", "r2"]]}), encoding="utf-8"
        )
        argv = ["lts", str(big), "--regulation", str(regulation)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 4, err
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "cap" in err, err
    assert "Traceback" not in err


# Lists no successors for r1_T and r2, which then default to all rules.
PARTIAL_PROGRAMMED = {"type": "programmed", "successors": {"r1_S": ["r2"]}}
PARTIAL_PROGRAMMED_WARNING = (
    "warning: programmed regulation lists no successors for r1_T, r2; defaulting to all rules\n"
)


def test_a_repaired_regulation_warns_on_one_line(capsys, model_path, tmp_path):
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(PARTIAL_PROGRAMMED), encoding="utf-8")
    full = tmp_path / "full.json"
    everything = ["r1_S", "r1_T", "r2"]
    successors = {"r1_S": ["r2"], "r1_T": everything, "r2": everything}
    full.write_text(json.dumps({"type": "programmed", "successors": successors}), encoding="utf-8")
    for argv in (["simulate", "--steps", "12"], ["lts", "--format", "text"]):
        command, *rest = argv
        code, out, err = run_cli(capsys, command, model_path, "--regulation", str(partial), *rest)
        assert (code, err) == (0, PARTIAL_PROGRAMMED_WARNING), argv
        assert out == run_cli(capsys, command, model_path, "--regulation", str(full), *rest)[1]


def test_a_repaired_regulation_runs_when_warnings_are_errors(model_path, tmp_path):
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(PARTIAL_PROGRAMMED), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "bcsl", "simulate", model_path, "--regulation", str(partial)],
        capture_output=True,
        env=dict(_child_env(), PYTHONWARNINGS="error"),
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.decode("utf-8") == PARTIAL_PROGRAMMED_WARNING


def test_bad_regulation_exit_code(capsys, model_path, tmp_path):
    reg = tmp_path / "reg.json"
    reg.write_text('{"type": "regular", "expression": "nope"}', encoding="utf-8")
    code, _, err = run_cli(capsys, "lts", model_path, "--regulation", str(reg))
    assert code == 2
    assert "unknown rule label" in err
    reg.write_text("not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "lts", model_path, "--regulation", str(reg))
    assert code == 2


# Every ``RegulationError`` that ``compile_regulation`` raises, by a config
# over the two-site model's labels.
REGULATION_CONFIG_ERRORS = [
    ([], "regulation config must be an object with a 'type' field"),
    ({"kind": "regular"}, "regulation config must be an object with a 'type' field"),
    ({"type": "regular"}, "regular regulation needs an 'expression' string"),
    ({"type": "ordered", "pairs": "r1_S"}, "'pairs' must be a list of label pairs"),
    ({"type": "ordered", "pairs": [["r1_S"]]}, "'pairs' entries must be pairs, got ['r1_S']"),
    ({"type": "ordered", "pairs": [["zap", "r2"]]}, "unknown rule label 'zap' in 'pairs'"),
    (
        {"type": "ordered", "pairs": [["r1_S", "r2"], ["r2", "r1_S"]]},
        "'pairs' is not a strict partial order (cycle through r1_S, r2)",
    ),
    ({"type": "programmed"}, "programmed regulation needs a 'successors' mapping"),
    (
        {"type": "programmed", "successors": {"zap": []}},
        "unknown rule label 'zap' in 'successors'",
    ),
    (
        {"type": "programmed", "successors": {"r2": "r1_S"}},
        "successor set of 'r2' must be a list",
    ),
    (
        {"type": "programmed", "successors": {"r2": ["zap"]}},
        "unknown rule label 'zap' in successors of 'r2'",
    ),
    (
        {"type": "conditional", "prohibited": []},
        "conditional regulation needs a 'prohibited' mapping",
    ),
    (
        {"type": "conditional", "prohibited": {"zap": []}},
        "unknown rule label 'zap' in 'prohibited'",
    ),
    (
        {"type": "conditional", "prohibited": {"r2": "P(S{a})::cell"}},
        "prohibited contexts of 'r2' must be a list",
    ),
    (
        {"type": "conditional", "prohibited": {"r2": ["P(S{a}"]}},
        "invalid prohibited context 'P(S{a}' for 'r2': line 1, column 7: "
        "expected ')' closing the composition, found end of line",
    ),
    (
        {"type": "concurrent-free", "priority": {"r1_S": "r2"}},
        "'priority' must be a list of label pairs",
    ),
    (
        {"type": "concurrent-free", "priority": [["r1_S", "r2", "r1_T"]]},
        "'priority' entries must be pairs, got ['r1_S', 'r2', 'r1_T']",
    ),
    (
        {"type": "concurrent-free", "priority": [["r2", "r2"]]},
        "priority pairs must relate distinct rules: r2",
    ),
    ({"type": "stochastic"}, "unknown regulation type 'stochastic'"),
    (
        {"type": "regular", "expression": "r1_S."},
        "expected a rule label in expression, found end of expression",
    ),
    (
        {"type": "regular", "expression": "("},
        "expected a rule label in expression, found end of expression",
    ),
    (
        {"type": "conditional", "prohibited": {"r2": [5]}},
        "prohibited context 5 for 'r2' must be a string",
    ),
    (
        {"type": "conditional", "prohibited": {"r2": [None]}},
        "prohibited context None for 'r2' must be a string",
    ),
    # Integers longer than ``int`` reads from text; a string is the file's text.
    pytest.param(
        {"type": "conditional", "prohibited": {"r2": ["7" * 5_000 + " P(S{i},T{i})::cell"]}},
        f"invalid prohibited context '{'7' * 5_000} P(S{{i}},T{{i}})::cell' for 'r2': "
        "line 1, column 1: agent count has too many digits",
        id="context-count-5000-digits",
    ),
    pytest.param(
        '{"type": "ordered", "pairs": [], "limit": ' + "7" * 5_000 + "}",
        "regulation file holds an integer with too many digits",
        id="json-integer-5000-digits",
    ),
]


@pytest.mark.parametrize("config, message", REGULATION_CONFIG_ERRORS)
def test_every_regulation_config_error_is_one_usage_line(
    capsys, model_path, tmp_path, config, message
):
    reg = tmp_path / "reg.json"
    reg.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(capsys, "lts", model_path, "--regulation", str(reg))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_output_file(capsys, model_path, tmp_path):
    out_path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "ground", model_path, "-o", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text(encoding="utf-8"))["init"] == {
        "P(S{i},T{i})::cell": 1
    }


@pytest.mark.parametrize(
    "expression",
    ["(" * 3000 + "r1_S" + ")" * 3000, "r1_S" + "*" * 3000],
    ids=["parenthesised", "starred"],
)
def test_deep_regular_expression_runs(capsys, model_path, tmp_path, expression):
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps({"type": "regular", "expression": expression}), encoding="utf-8")
    code, out, err = run_cli(capsys, "lts", model_path, "--regulation", str(reg))
    assert code == 0, err
    assert json.loads(out)["states"]


@pytest.mark.parametrize(
    "argv", [["lts"], ["lts", "--unroll", "--max-depth", "6"], ["simulate", "--steps", "6"]]
)
def test_a_wide_signature_costs_what_its_states_cost(capsys, tmp_path, argv):
    # Y() stands for 2^20 agents, but the direct matcher never enumerates it.
    model = tmp_path / "wide.bcsl"
    model.write_text(WIDE_SIGNATURE_MODEL, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], str(model), *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    obj = json.loads(out)
    states = obj["states"] if "states" in obj else [node["state"] for node in obj["nodes"]]
    assert len({json.dumps(state, sort_keys=True) for state in states}) == 2


@pytest.mark.parametrize(
    "argv",
    [["lts"], ["lts", "--unroll", "--max-depth", "6"], ["simulate", "--steps", "6"]],
    ids=["lts", "lts-unroll", "simulate"],
)
def test_a_wide_signature_runs_concurrent_free(capsys, tmp_path, argv):
    # r1 has 2^40 candidate pairs, but the concurrency relation is unified,
    # not grounded.  r1 and r2 consume agents of different compartments, so
    # they are not concurrent and the regulation blocks nothing.
    model = tmp_path / "wide.bcsl"
    model.write_text(WIDE_SIGNATURE_MODEL, encoding="utf-8")
    reg = tmp_path / "cf.json"
    reg.write_text(json.dumps({"type": "concurrent-free", "priority": [["r1", "r2"]]}), "utf-8")
    outputs = []
    for regulation in ([], ["--regulation", str(reg)]):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, argv[0], str(model), *regulation, *argv[1:], "--format", "text"
        )
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, ""), err
        outputs.append(out)
    assert outputs[1] == outputs[0]


def test_a_wide_signature_still_caps_grounding(capsys, tmp_path):
    model = tmp_path / "wide.bcsl"
    model.write_text(WIDE_SIGNATURE_MODEL, encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(model))
    assert (code, out) == (4, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and "cap" in err, err


@pytest.mark.parametrize("command", ["lts", "check"])
def test_long_left_hand_side_runs(capsys, tmp_path, command):
    # The direct matcher backtracks over the left-hand positions of r1.
    model = tmp_path / "model.bcsl"
    lhs = " + ".join(["A{x}::c"] * 1500)
    model.write_text(f"#! rules\nr1 ~ {lhs} => B{{y}}::c\n#! inits\n1500 A{{x}}::c\n")
    code, out, err = run_cli(capsys, command, str(model))
    assert code == 0, err
    assert out


# (a|b)*.a followed by n copies of .(a|b): the subset construction needs
# 2^(n+1) automaton states, so n = 16 is far past the bound.
BLOW_UP_MODEL = "#! rules\na ~ A{u}::c => A{v}::c\nb ~ A{v}::c => A{u}::c\n#! inits\n1 A{u}::c\n"
BLOW_UP_EXPRESSION = "(a|b)*.a" + ".(a|b)" * 16


@pytest.mark.parametrize("command", ["lts", "simulate"])
def test_regular_expression_over_the_state_bound_is_a_usage_error(capsys, tmp_path, command):
    model = tmp_path / "model.bcsl"
    model.write_text(BLOW_UP_MODEL, encoding="utf-8")
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps({"type": "regular", "expression": BLOW_UP_EXPRESSION}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, str(model), "--regulation", str(reg))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "automaton states" in err, err
    assert "Traceback" not in err


def test_deeply_nested_regulation_json_is_a_usage_error(capsys, model_path, tmp_path):
    reg = tmp_path / "reg.json"
    reg.write_text('{"type": "regular", "x": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli(capsys, "lts", model_path, "--regulation", str(reg))
    assert code == 2
    assert out == ""
    assert err == "error: regulation file nests JSON too deeply\n"


# ---------------------------------------------------------------------------
# Pinned bytes: every walk, format and regulation of ``lts``, and ``simulate``
# ---------------------------------------------------------------------------

# SHA-256 of stdout on the two-site model, keyed by (regulation, walk,
# format) and (regulation, seed); "none" runs without ``--regulation``, the
# other keys name a REGULATION_CONFIGS entry.  The unrolled walk is
# ``--unroll --max-depth 4``; ``simulate`` runs ``--steps 12``.
LTS_DIGESTS = {
    ("none", "graph", "dot"): "eb14b43f78456f0d4d9b4e678fe8a1bed3b4cb2270db67216de4d4a2be21782b",
    ("none", "graph", "json"): "062c096be40a59b0c4aa76a08de99a2bd62ecc138735802e3c21726349dd604f",
    ("none", "graph", "text"): "40b3b7c531c22333a0f8c0a55e92853d4fc25aa85bceff9c1d42a498ab3c213d",
    ("none", "unroll", "dot"): "bb4a939aae4c87480e296d294e866c13853a6195ba7d87dda0f3baa457d95291",
    ("none", "unroll", "json"): "f29890095599a97bb46b2064a08442abf7a0117952482f07e6995d1816592b46",
    ("none", "unroll", "text"): "4afec99b97902a9f22819a3f4d25fa2d32dd6614e7a8d757073fc3140cd4eb6e",
    ("concurrent-free", "graph", "dot"): "17bc39f6b7fef0f119c0f3651892cb25b297c31bd12f340ed2e90e074c13ea57",
    ("concurrent-free", "graph", "json"): "faf9705f59ce86b92a88017548408601b3ea9e62077a1f4c9d540c199aaf3166",
    ("concurrent-free", "graph", "text"): "713808b147f65a4fb40ee0fd0b02f7f17c4d18c4614852fcd79e43284e8b1cc7",
    ("concurrent-free", "unroll", "dot"): "35c596dc69618caaa7a5fb40056f17947838a1d50ebf6926d343985228ab3175",
    ("concurrent-free", "unroll", "json"): "a6b0afa80bd98887da7998b81346a948faa03adf3574cbdf3e3c581fa61d244b",
    ("concurrent-free", "unroll", "text"): "92d3cb93ee26301e21e2bfcbef228f5d0b5297968fa8caf2e73bd775a827f713",
    ("conditional", "graph", "dot"): "4b5de231148b9f23467b453a462c1bda5331f06d5ae2f8745d4a106c05b8c6f2",
    ("conditional", "graph", "json"): "a839507ae1e9e1060201357bcb586ef283635ffa07aa457fe09b195fd16f1c1a",
    ("conditional", "graph", "text"): "bd055cbbcf7ca931d5e22870f45eea91e67d65e30ced20a66f8614f053fefaff",
    ("conditional", "unroll", "dot"): "e81dd4f2c1b6692175fee7ca146dd786407be0abac627c34898d4945db1a6003",
    ("conditional", "unroll", "json"): "1c4aec24673dda39e13c858ca41c44aff6ac7b088d8e0b99504f390d3778e233",
    ("conditional", "unroll", "text"): "80b3e6ad32b48542613f0510a3b46ea1ba2c750d2d5599d20a3f8e639f566bd2",
    ("ordered", "graph", "dot"): "b3fadd8d8c6efd0305e4fcae65944a39a7b4281b5bd30e9b690fc55a555585b1",
    ("ordered", "graph", "json"): "e630f5149ad234e35675e5502fa0ac4a8878cb99d4de2cfc886853fb76f8a642",
    ("ordered", "graph", "text"): "ef666c0a40301e73808d2ae5b3b3d5c545fa9eec44274786cca0a7c6cd942c80",
    ("ordered", "unroll", "dot"): "db531e4dbdd216c39521259d9caf44c4d512c51b5cdd01fc8f8f958613193d16",
    ("ordered", "unroll", "json"): "0cceda0cf729f319a1bac959a69769b9bf6ace482e57e5e888e15b600f02dcce",
    ("ordered", "unroll", "text"): "f279e691c11996d00e64ae5939bb3a18cd0ca0ebf7498e44779a76eee7d19c50",
    ("programmed", "graph", "dot"): "32ef89cc4d853a6a11eb003a9771f97cfe5e857e86ff039923ed930badc6c9d2",
    ("programmed", "graph", "json"): "a13e41c1368b3947bde66307822a0b2e973460f0d8f75eaaff27c14c4350039b",
    ("programmed", "graph", "text"): "9cf1d111dc97730f665a58d800ff7c4cecbacf8ccdf9eba18ecfcea6c20ccb24",
    ("programmed", "unroll", "dot"): "b7ff042ad5b54b6ae3bd09acc846e5a67bcca0aca1d004afc0ef74b8880dacf8",
    ("programmed", "unroll", "json"): "a0d70661a2eaad0eac2bc69a37d0e6f449710aef84f14a983e58313577d9f427",
    ("programmed", "unroll", "text"): "306706d5a0d2bdf3e129fe40192a475d91f49eb6fe76c98bd1a7f96240abe7e4",
    ("regular", "graph", "dot"): "f434d38ef9b1ed389e1e9fbdfddf41fe218ac16899233fdd51bade1ee9f5780e",
    ("regular", "graph", "json"): "860877ad204e2b5ba06e48a5f0c48772257d2744725de86345f46f393ba0b367",
    ("regular", "graph", "text"): "397e0466d5902272cd7e5a40a10c8e99051d3c6030d27c46faf023f543249de3",
    ("regular", "unroll", "dot"): "4277b3d1e94562956be92d19685e1ace98af157cb74fd807a840dcc503e5a78a",
    ("regular", "unroll", "json"): "25b2f8ca3a9b58580c6c62c1ce7fb4dc8752731e6322f1aafb61e08f95158c14",
    ("regular", "unroll", "text"): "a54e9a2f44fedfddac696398772b4d8dd3d61cbcb8eca00c6f5167aadabe6d95",
}
SIMULATE_DIGESTS = {
    ("none", "0"): "70019d2b3653274fc1f7902d51acd5fa90bce1e7bcf35b94a2df48833e16ca1b",
    ("none", "1"): "29ea94beae6da47e05ac6dbe84a94ba8d88e65df76b8051df5b0c42431000958",
    ("concurrent-free", "0"): "934bbc90ad938c123749d18e7e78247ac921fd9a1b5a6411be4ba991257b8fa3",
    ("concurrent-free", "1"): "29ea94beae6da47e05ac6dbe84a94ba8d88e65df76b8051df5b0c42431000958",
    ("conditional", "0"): "70019d2b3653274fc1f7902d51acd5fa90bce1e7bcf35b94a2df48833e16ca1b",
    ("conditional", "1"): "29ea94beae6da47e05ac6dbe84a94ba8d88e65df76b8051df5b0c42431000958",
    ("ordered", "0"): "5f49b3cf57a4bea5c7f69c30510e10e1309f5ba61694bd64dd8156fa1dd08a58",
    ("ordered", "1"): "f6afebab4cb9e273dde79addc764f824b172dcdc66ae7b98fdcc49ae29064c83",
    ("programmed", "0"): "934bbc90ad938c123749d18e7e78247ac921fd9a1b5a6411be4ba991257b8fa3",
    ("programmed", "1"): "f6afebab4cb9e273dde79addc764f824b172dcdc66ae7b98fdcc49ae29064c83",
    ("regular", "0"): "5f49b3cf57a4bea5c7f69c30510e10e1309f5ba61694bd64dd8156fa1dd08a58",
    ("regular", "1"): "29ea94beae6da47e05ac6dbe84a94ba8d88e65df76b8051df5b0c42431000958",
}


# SHA-256 of `ground` stdout on the two-site model and three corpus models,
# recorded before the element universe was made lazy.
GROUND_DIGESTS = {
    ("two-site", "json"): "090da721b5d685217867d131fbb6472365d94163274c25b0afb8bbf4d7d447f5",
    ("two-site", "text"): "5e69660978435da45bddf415fc091cbcb23642f7a0199c166de9a615e3b7cc7c",
    ("corpus-3", "json"): "bd8c68d3adf3eedb3ebb70141d7071e7f50bb9cdf6834f127fd70302a346528a",
    ("corpus-3", "text"): "a1fa79ff52564f83594ea7b27f941e5671e87b379cbb26093fc24af0aed535ed",
    ("corpus-7", "json"): "571641ba75716615355ffbf53b827cdd48de9a0dc3bcc639e33e0082d7b47a01",
    ("corpus-7", "text"): "15ff904db785c176dde6ece167a3cdbf034cf7da4d3abe3df0ee11e5826113ee",
    ("corpus-11", "json"): "f0bd3b5f73004e222c175ad766ef01dd42829a83fa2db12ede2405e29f63094e",
    ("corpus-11", "text"): "38095bebc814a14e9a583fd4f71c9fc026107bab720483dca18d3e516ab30c4c",
}
GROUND_MODELS = {
    "two-site": TWO_SITE_MODEL,
    **{f"corpus-{seed}": random_model_text(seed) for seed in (3, 7, 11)},
}


@pytest.mark.parametrize("name", sorted(GROUND_MODELS))
def test_ground_keeps_its_bytes(capsys, tmp_path, name):
    path = tmp_path / "model.bcsl"
    path.write_text(GROUND_MODELS[name], encoding="utf-8")
    for fmt in ("json", "text"):
        code, out, _ = run_cli(capsys, "ground", str(path), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GROUND_DIGESTS[name, fmt], fmt


@pytest.mark.parametrize("name", ["none", *sorted(REGULATION_CONFIGS)])
def test_outputs_keep_their_bytes(capsys, model_path, tmp_path, name):
    regulation = [] if name == "none" else ["--regulation", write_regulation(tmp_path, name)]
    walks = {"graph": [], "unroll": ["--unroll", "--max-depth", "4"]}
    for walk, walk_args in walks.items():
        for fmt in ("dot", "json", "text"):
            argv = ["lts", model_path, *regulation, *walk_args, "--format", fmt]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            assert hashlib.sha256(out.encode()).hexdigest() == LTS_DIGESTS[name, walk, fmt], argv
    for seed in ("0", "1"):
        argv = ["simulate", model_path, *regulation, "--seed", seed, "--steps", "12"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_DIGESTS[name, seed], argv


# SHA-256 of ``simulate --steps 20`` stdout on the 3 x 2 x 2 site model of
# the benchmark family, seeds 0 to 3 in turn, keyed by (regulation, format);
# "none" runs without ``--regulation``, the other keys name an entry of
# ``regulation_configs(3, 2)``.  In 28 of the model's 136 reachable states
# one label leads to two or more targets, so these pin the order that moves
# are drawn in: by label, then by target text.
_models = bench_module("models")
SITE_CONFIGS = _models.regulation_configs(3, 2)
SITE_SIMULATE_DIGESTS = {
    ("none", "json"): "cc659eaa44b9537ccbd6164606f5dd1f302362fde23ed3e949537f2e93eca7e9",
    ("none", "text"): "b9764df9776e822d08632d95d379b28f80f33ba0070d6a0363ce98ff8fe18467",
    ("concurrent-free", "json"): "12baa961fc7356cd8f4dcd7e9aff80958fa191d415195f9c91dfbc186b49094c",
    ("concurrent-free", "text"): "4a1dfad3c59d1ece7304bcbf0c35aef20c85cacd7b55b84563b8230497f2d3dc",
    ("conditional", "json"): "25110e3103307c5de817fb4d646a82fcc005ba45f634dc7ea82086bebede8714",
    ("conditional", "text"): "0d31877c648a8f41f9bf954eb346251a35a15977bdeb3b691f401d8379cf643f",
    ("ordered", "json"): "1072892174c3200ad237bad2fc0bc082aa7870b2a07ffe170519caf402635343",
    ("ordered", "text"): "18c6981fbf33ed98a6e90ed9ed86f350f3e1833728ca5e4c021b41f7b94c2796",
    ("programmed", "json"): "18b0e185ddaa086c86f1c3dc6065e0dcff7c6eee016d27873d5d9e8a12b4e12a",
    ("programmed", "text"): "f8a90848f19ff67cd9d2ad241792ad098eb6a61fcedff204ee91a344c7c46747",
    ("regular", "json"): "cc659eaa44b9537ccbd6164606f5dd1f302362fde23ed3e949537f2e93eca7e9",
    ("regular", "text"): "b9764df9776e822d08632d95d379b28f80f33ba0070d6a0363ce98ff8fe18467",
}


@pytest.mark.parametrize("name", ["none", *sorted(SITE_CONFIGS)])
def test_simulate_keeps_its_bytes_where_one_label_has_many_targets(capsys, tmp_path, name):
    model = tmp_path / "sites.bcsl"
    model.write_text(_models.site_model(3, 2, 2), encoding="utf-8")
    regulation = []
    if name != "none":
        config = tmp_path / "reg.json"
        config.write_text(json.dumps(SITE_CONFIGS[name]), encoding="utf-8")
        regulation = ["--regulation", str(config)]
    for fmt in ("json", "text"):
        digest = hashlib.sha256()
        for seed in range(4):
            argv = ["simulate", str(model), *regulation, "--seed", str(seed), "--steps", "20"]
            code, out, _ = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0, argv
            digest.update(out.encode())
        assert digest.hexdigest() == SITE_SIMULATE_DIGESTS[name, fmt], fmt


# Interns the agents given one per line in argv[1], in that order, then
# runs the command line on argv[2:].
_INTERN_THEN_RUN = """
import sys
from bcsl.cli import main
from bcsl.syntax import parse_agent
from bcsl.terms import agent_id
for text in sys.argv[1].splitlines():
    agent_id(parse_agent(text))
sys.exit(main(sys.argv[2:]))
"""


def _run_interned(agents: list[str], argv: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-c", _INTERN_THEN_RUN, "\n".join(agents), *argv],
        capture_output=True,
        env=_child_env(),
        check=False,
    )
    return proc.returncode, proc.stdout


def test_agent_ids_never_reach_an_output(tmp_path):
    two_site = tmp_path / "two_site.bcsl"
    two_site.write_text(TWO_SITE_MODEL, encoding="utf-8")
    # states of several agents, whose text orders its agents
    corpus = tmp_path / "corpus.bcsl"
    corpus.write_text(random_model_text(7), encoding="utf-8")
    unordered = tmp_path / "unordered.json"
    unordered.write_text('{"type": "concurrent-free", "priority": []}', encoding="utf-8")
    bounds = ["--max-states", "30"]
    regular = write_regulation(tmp_path, "regular")
    commands = [
        ["lts", str(two_site), "--regulation", regular, "--format", "json"],
        ["lts", str(corpus), *bounds, "--format", "dot"],
        ["lts", str(corpus), *bounds, "--regulation", str(unordered), "--format", "json"],
        ["check", str(corpus), *bounds, "--json"],
        ["ground", str(corpus)],
    ]
    for argv in commands:
        model = parse_model(Path(argv[1]).read_text(encoding="utf-8"))
        agents = sorted((str(agent) for agent in build_mrs(model).elements), reverse=True)
        normal = _run_interned([], argv)
        assert normal[0] in (0, 2) and normal[1], argv
        # ids handed out in reverse text order first
        assert _run_interned(agents, argv) == normal, argv


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_stdout_writes_the_bytes_of_output_whatever_its_encoding(tmp_path, encoding):
    vanishing = tmp_path / "vanishing.bcsl"  # its run reaches ∅
    vanishing.write_text("#! rules\nr ~ A{x}::c =>\n\n#! inits\n1 A{x}::c\n", encoding="utf-8")
    two_site = tmp_path / "two_site.bcsl"  # its regulated product has ε self-loops
    two_site.write_text(TWO_SITE_MODEL, encoding="utf-8")
    regular = write_regulation(tmp_path, "regular")
    env = dict(_child_env(), PYTHONIOENCODING=encoding)
    commands = [
        ["simulate", str(vanishing), "--format", "text"],
        ["lts", str(two_site), "--regulation", regular, "--format", "json"],
    ]
    for argv in commands:
        written = tmp_path / "written"
        assert main([*argv, "-o", str(written)]) == 0
        expected = written.read_bytes()
        assert not expected.isascii()
        proc = subprocess.run(
            [sys.executable, "-m", "bcsl", *argv], capture_output=True, env=env, check=False
        )
        assert (proc.returncode, proc.stdout) == (0, expected), proc.stderr.decode()


# ---------------------------------------------------------------------------
# Guard: mutated inputs end in a documented exit code
# ---------------------------------------------------------------------------

# Mostly bytes of the model and JSON syntax, so that mutants get past the
# first character; any byte otherwise.
_BYTES = st.one_of(
    st.sampled_from(sorted(set('(){}[].,:+~=>#!*|"0123456789 \nPSTaiε_'.encode()))),
    st.integers(min_value=0, max_value=255),
)
_EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(min_value=0), _BYTES),
    min_size=1,
    max_size=4,
)
_BOUNDS = ["--max-states", "50", "--max-depth", "10"]
_MODEL_COMMANDS = [
    ["parse"],
    ["ground"],
    ["lts", *_BOUNDS],
    ["lts", "--unroll", "--max-depth", "3"],
    ["simulate", "--steps", "5"],
    ["check", *_BOUNDS],
]
_REGULATED_COMMANDS = [
    ["lts", *_BOUNDS],
    ["lts", "--unroll", "--max-depth", "3"],
    ["simulate", "--steps", "5"],
]


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for op, at, byte in edits:
        at %= len(out) + 1
        if op == "insert":
            out.insert(at, byte)
        elif at < len(out):
            if op == "delete":
                del out[at]
            else:
                out[at] = byte
    return bytes(out)


def _assert_documented_exit(capsys, argv: list[str]) -> str:
    """Run ``argv``, check its exit code and return its stderr."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3, 4), argv
    assert code != 1 or argv[0] == "check", argv
    assert "Traceback" not in err, argv
    return err


_GUARD_SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_GUARD_SETTINGS
@given(edits=_EDITS)
def test_mutated_model_ends_in_documented_exit_code(capsys, tmp_path, edits):
    model = tmp_path / "mutant.bcsl"
    model.write_bytes(_mutate(TWO_SITE_MODEL.encode("utf-8"), edits))
    output = str(tmp_path / "out")
    for command in _MODEL_COMMANDS:
        _assert_documented_exit(capsys, [command[0], str(model), *command[1:], "-o", output])


@_GUARD_SETTINGS
@given(name=st.sampled_from(sorted(REGULATION_CONFIGS)), edits=_EDITS)
def test_mutated_regulation_ends_in_documented_exit_code(capsys, tmp_path, name, edits):
    model = tmp_path / "model.bcsl"
    model.write_text(TWO_SITE_MODEL, encoding="utf-8")
    reg = tmp_path / "mutant.json"
    reg.write_bytes(_mutate(json.dumps(REGULATION_CONFIGS[name]).encode("utf-8"), edits))
    output = str(tmp_path / "out")
    for command in _REGULATED_COMMANDS:
        argv = [command[0], str(model), *command[1:], "--regulation", str(reg), "-o", output]
        _assert_documented_exit(capsys, argv)


# Integers of 1 to 6,000 digits, past the 4,300 that ``int`` reads from text
# by default; a leading 0 makes some of them a count of 0.
_LONG_INTEGERS = st.builds(
    lambda lead, fill, digits: lead + fill * (digits - 1),
    st.sampled_from("0123456789"),
    st.sampled_from("0123456789"),
    st.integers(min_value=1, max_value=6_000),
)


@_GUARD_SETTINGS
@given(init=_LONG_INTEGERS, context=_LONG_INTEGERS)
def test_long_counts_end_in_documented_exit_code(capsys, tmp_path, init, context):
    model = tmp_path / "model.bcsl"
    model.write_text(TWO_SITE_MODEL.replace("\n1 P(", f"\n{init} P("), encoding="utf-8")
    plain = tmp_path / "plain.bcsl"
    plain.write_text(TWO_SITE_MODEL, encoding="utf-8")
    reg = tmp_path / "reg.json"
    config = {"type": "conditional", "prohibited": {"r2": [f"{context} P(S{{a}},T{{a}})::cell"]}}
    reg.write_text(json.dumps(config), encoding="utf-8")
    output = str(tmp_path / "out")
    argvs = [[command[0], str(model), *command[1:]] for command in _MODEL_COMMANDS]
    argvs += [
        [command[0], str(path), *command[1:], "--regulation", str(reg)]
        for path in (plain, model)
        for command in _REGULATED_COMMANDS
    ]
    for argv in argvs:
        err = _assert_documented_exit(capsys, [*argv, "-o", output])
        assert err.count("\n") <= 1, argv


# One rule turns the largest count that ``str`` writes into one digit more.
_DIGITS = sys.get_int_max_str_digits()
GROWN_MODEL = (
    "#! rules\nr ~ A{x}::c => A{y}::c\n#! inits\n1 A{x}::c\n" + "9" * _DIGITS + " A{y}::c\n"
)
GROWN_ERROR = f"error: agent count has more than {_DIGITS} digits, too many to write as text\n"


@pytest.mark.parametrize(
    "argv",
    [
        *(["lts", "--format", f] for f in ("dot", "json", "text")),
        *(["lts", "--unroll", "--format", f] for f in ("dot", "json", "text")),
        ["lts", "--regulation", "reg.json", "--format", "text"],
        *(["simulate", "--format", f] for f in ("json", "text")),
        ["simulate", "--regulation", "reg.json"],
        ["check"],
        ["check", "--json"],
    ],
    ids=" ".join,
)
def test_a_count_grown_past_the_digit_limit_is_one_usage_line(capsys, tmp_path, argv):
    model = tmp_path / "grown.bcsl"
    model.write_text(GROWN_MODEL, encoding="utf-8")
    (tmp_path / "reg.json").write_text('{"type": "ordered", "pairs": []}', encoding="utf-8")
    argv = [str(tmp_path / a) if a == "reg.json" else a for a in argv]
    assert run_cli(capsys, argv[0], str(model), *argv[1:]) == (2, "", GROWN_ERROR)


# ---------------------------------------------------------------------------
# Token-level fuzzing: model files from the grammar in ``syntax.py``'s
# docstring and configs of the five regulation schemas, with extreme tokens
# ---------------------------------------------------------------------------

# Whitespace that separates tokens within a line; "" lets tokens touch.
_SPACES = ["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
# Counts of 1 to 6,000 digits, and the largest that ``str`` writes.
_COUNTS = st.sampled_from(["1", "2", "9" * _DIGITS]) | _LONG_INTEGERS


def _draw_name(draw, pool: str, long: bool = False) -> str:
    """A letter of ``pool``, rarely ε; with ``long``, sometimes a run of up to 10,000 of one."""
    kind = draw(st.integers(0, 99))
    if kind == 0:
        return "ε"
    letter = draw(st.sampled_from(pool))
    return letter * draw(st.integers(1, 10_000)) if long and kind == 1 else letter


def _draw_items(draw, make, long: bool = False) -> list:
    """Up to 3 items; with ``long``, up to 2,000 that repeat up to 3 drawn ones in turn."""
    n = draw(st.integers(0, 2_000) if long else st.integers(0, 3))
    drawn = [make() for _ in range(min(n, 3))]
    return [drawn[i % len(drawn)] for i in range(n)]


@st.composite
def _model_texts(draw) -> str:
    """A model file: rules and init lines built from the line grammar.

    Each model stretches at most one of names, chains and sides, so that
    it stays small.  A long chain holds atomic components only, which
    carry no ε after expansion: a repeated ``P()`` against a state agent
    of mixed components has exponentially many pairings.
    """
    long = draw(st.sampled_from(["", "name", "chain", "side"]))
    sep = draw(st.sampled_from(_SPACES))

    def name(pool: str) -> str:
        return _draw_name(draw, pool, long == "name")

    def atomic() -> str:
        return name("ST") + "{" + name("abi") + "}"

    def component() -> str:
        if draw(st.booleans()):
            return atomic()
        composition = _draw_items(draw, atomic)
        if draw(st.booleans()):  # as the grammar asks: distinct atomics, sorted by name
            composition = sorted({a.partition("{")[0]: a for a in composition}.values())
        return name("PQ") + "(" + ",".join(composition) + ")"

    agents: list[str] = []

    def agent() -> str:  # often one drawn before, so that rules meet the inits
        if agents and draw(st.booleans()):
            return draw(st.sampled_from(agents))
        chain = _draw_items(draw, atomic, long == "chain")
        if len(chain) <= 3:
            chain = [component() for _ in range(max(len(chain), 1))]
        agents.append(".".join(chain) + "::" + name("cd"))
        return agents[-1]

    def side() -> str:
        return " + ".join(_draw_items(draw, agent, long == "side"))

    rules = [
        sep.join([name("rq"), "~", side(), "=>", side()])
        for _ in range(draw(st.integers(0, 3)))
    ]
    inits = []
    for _ in range(draw(st.integers(0, 2))):
        written = agent()
        inits += [draw(_COUNTS) + sep + written for _ in range(draw(st.integers(1, 3)))]
    return "\n".join(["#! rules", *rules, "#! inits", *inits]) + "\n"


_FUZZ_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@_FUZZ_SETTINGS
@given(text=_model_texts())
def test_grammar_drawn_models_end_in_documented_exit_code(capsys, tmp_path, text):
    model = tmp_path / "model.bcsl"
    model.write_text(text, encoding="utf-8")
    output = str(tmp_path / "out")
    for command in _MODEL_COMMANDS:
        argv = [command[0], str(model), *command[1:], "-o", output]
        assert _assert_documented_exit(capsys, argv).count("\n") <= 1, argv


@st.composite
def _regulation_texts(draw) -> str:
    """A config of one of the five schemas over the two-site model's labels.

    Each config stretches at most one of names and lists: a label of up to
    10,000 characters, or lists, expressions and prohibited contexts of
    up to 2,000 items.
    """
    long = draw(st.sampled_from(["", "name", "items"]))

    def items(make) -> list:
        return _draw_items(draw, make, long == "items")

    def label() -> str:  # a model label, sometimes in whitespace, or a drawn name
        kind = draw(st.integers(0, 7))
        if kind == 0:
            return _draw_name(draw, "r", long == "name")
        space = draw(st.sampled_from(_SPACES)) if kind == 1 else ""
        return space + draw(st.sampled_from(["r1_S", "r1_T", "r2"])) + space

    def pair() -> list[str]:
        return [label(), label()]

    def context() -> str:  # long counts, or up to 2,000 agents of counts 1 and 2
        count = st.sampled_from(["1", "2"]) if long == "items" else _COUNTS
        agent = draw(st.sampled_from(["P(S{a},T{i})::cell", "P(S{i},T{i})::cell", "P()::cell"]))
        return " + ".join(items(lambda: draw(count) + " " + agent)) or "∅"

    def operand() -> str:
        form = draw(st.sampled_from(["{}", "{}*", "({}|{})", "({}.{})*"]))
        return form.format(label(), label())

    kind = draw(st.sampled_from(sorted(REGULATION_CONFIGS)))
    config: dict = {"type": kind}
    if kind == "regular":
        config["expression"] = draw(st.sampled_from([".", "|"])).join(items(operand))
    elif kind == "ordered":
        config["pairs"] = items(pair)
    elif kind == "programmed":
        config["successors"] = {label(): items(label) for _ in range(draw(st.integers(0, 3)))}
    elif kind == "conditional":
        config["prohibited"] = {
            label(): [context() for _ in range(draw(st.integers(0, 3)))]
            for _ in range(draw(st.integers(0, 3)))
        }
    else:
        config["priority"] = items(pair)
    text = json.dumps(config, ensure_ascii=False)
    if draw(st.integers(0, 9)) == 0:  # a JSON integer of 1 to 6,000 digits
        text = text[:-1] + ', "limit": 1' + draw(_LONG_INTEGERS)[1:] + "}"
    return text


@_FUZZ_SETTINGS
@given(config=_regulation_texts())
def test_schema_drawn_regulations_end_in_documented_exit_code(capsys, tmp_path, config):
    model = tmp_path / "model.bcsl"
    model.write_text(TWO_SITE_MODEL, encoding="utf-8")
    reg = tmp_path / "reg.json"
    reg.write_text(config, encoding="utf-8")
    output = str(tmp_path / "out")
    for command in _REGULATED_COMMANDS:
        argv = [command[0], str(model), *command[1:], "--regulation", str(reg), "-o", output]
        assert _assert_documented_exit(capsys, argv).count("\n") <= 1, argv


# ---------------------------------------------------------------------------
# JSON writer
# ---------------------------------------------------------------------------

# Text that an encoder could mistake for its own structure: quotes,
# backslashes, newlines, control characters, non-ASCII, and the row and
# dict separators that ``_dump`` rewrites.
_TEXT = st.sampled_from(
    ['"', "\\", "\n", "\x00\x1f", "é ∅ 𝔸", "],\n      [", "},\n{", "]", "}", ""]
) | st.text(max_size=6)
_SCALAR = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | _TEXT
)
_LIST_ROW = st.lists(_SCALAR, min_size=1, max_size=3)
_DICT_ROW = st.dictionaries(_TEXT, _SCALAR, min_size=1, max_size=3)
_FLAT_ROWS = st.lists(_LIST_ROW, min_size=1, max_size=4) | st.lists(_DICT_ROW, min_size=1, max_size=4)


def _json_values(depth: int):
    """JSON values nested up to ``depth`` containers deep: lists of flat
    rows of unequal lengths, rows that nest, and rows mixed with scalars."""
    if depth == 0:
        return _SCALAR
    inner = _json_values(depth - 1)
    return (
        _SCALAR
        | _FLAT_ROWS
        | st.lists(inner, max_size=4)
        | st.dictionaries(_TEXT, inner, max_size=4)
        | st.lists(st.lists(inner, min_size=1, max_size=3), min_size=1, max_size=4)
        | st.lists(st.dictionaries(_TEXT, inner, min_size=1, max_size=3), min_size=1, max_size=4)
        | st.lists(_LIST_ROW | _DICT_ROW | _SCALAR, max_size=4)
    )


@settings(deadline=None)
@given(value=_json_values(4))
def test_dump_writes_what_json_dumps_writes(value):
    expected = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)
    assert cli._dump(value) == expected


# ---------------------------------------------------------------------------
# The cyclic collector: off inside ``main``, as the caller left it outside
# ---------------------------------------------------------------------------

@pytest.fixture()
def collector():
    """Puts the collector back as it was, whatever a test leaves behind."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


# Every command that the byte tests pin, as arguments after the model path.
_BYTE_TEST_CALLS = [
    *[[command, "--format", fmt] for command in ("parse", "ground") for fmt in ("json", "text")],
    *[["lts", "--format", fmt] for fmt in ("dot", "json", "text")],
    *[["lts", "--unroll", "--format", fmt] for fmt in ("dot", "json", "text")],
    *[["lts", "--regulation", name] for name in sorted(REGULATION_CONFIGS)],
    *[["simulate", "--format", fmt] for fmt in ("json", "text")],
    ["check"],
    ["check", "--json"],
]


@pytest.mark.parametrize("call", _BYTE_TEST_CALLS, ids=" ".join)
def test_a_call_leaves_no_garbage_for_the_collector(model_path, tmp_path, collector, call):
    # ``main`` runs with the collector off, which is safe only while a call
    # builds no reference cycle: reference counting alone must free it all.
    command, *rest = call
    if "--regulation" in rest:
        rest[-1] = write_regulation(tmp_path, rest[-1])
    argv = [command, model_path, *rest, "-o", str(tmp_path / "out")]
    main(argv)  # fills the per-process caches: parsers, the intern table
    gc.collect()
    gc.disable()
    main(argv)
    assert gc.collect() == 0


# One ``main`` call per way out of it: its arguments, where ``{model}`` is
# the two-site model and ``{dir}`` holds the files the test writes, and its
# exit code.
_EXIT_PATHS = {
    "ok": (["lts", "{model}", "--format", "dot"], 0),
    "bad-regulation": (["lts", "{model}", "--regulation", "{dir}/bad.json"], 2),
    "truncated-check": (["check", "{model}", "--max-states", "3"], 2),
    "output-is-a-directory": (["parse", "{model}", "-o", "{dir}"], 2),
    "parse-error": (["parse", "{dir}/bad.bcsl"], 3),
    "grounding-cap": (["ground", "{dir}/capped.bcsl"], 4),
    "usage-error": (["lts"], 2),
    "help": (["lts", "-h"], 0),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("path", sorted(_EXIT_PATHS))
def test_main_leaves_the_collector_as_it_found_it(
    capsys, model_path, tmp_path, monkeypatch, collector, path, enabled
):
    bad_model = "#! rules\nr ~ A{x}:c => A{y}::c\n#! inits\n"
    (tmp_path / "bad.bcsl").write_text(bad_model, encoding="utf-8")
    (tmp_path / "capped.bcsl").write_text(CAP_MODELS["agent-over-cap"], encoding="utf-8")
    bad_regulation = '{"type": "regular", "expression": "nope"}'
    (tmp_path / "bad.json").write_text(bad_regulation, encoding="utf-8")
    seen = []
    for command, (handler, help_text) in cli._COMMANDS.items():

        def spy(model, args, handler=handler):
            seen.append(gc.isenabled())
            return handler(model, args)

        monkeypatch.setitem(cli._COMMANDS, command, (spy, help_text))
    template, code = _EXIT_PATHS[path]
    argv = [arg.format(model=model_path, dir=tmp_path) for arg in template]
    (gc.enable if enabled else gc.disable)()
    assert main(argv) == code
    assert gc.isenabled() is enabled
    # The handler runs with the collector off; argparse and the model's
    # parser stop these calls before it.
    assert seen == ([] if path in ("usage-error", "help", "parse-error") else [False])
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_an_escaping_exception_leaves_the_collector_as_it_found_it(
    model_path, monkeypatch, collector, enabled
):
    def broken(model, args):
        assert not gc.isenabled()
        raise RuntimeError("handler failed")

    monkeypatch.setitem(cli._COMMANDS, "parse", (broken, "broken"))
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError, match="handler failed"):
        main(["parse", model_path])
    assert gc.isenabled() is enabled
