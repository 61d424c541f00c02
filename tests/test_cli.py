import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bcsl.cli import main
from conftest import REGULATION_CONFIGS, TWO_SITE_MODEL


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

def test_usage_error_exit_code(capsys):
    assert main(["lts"]) == 2  # missing model argument
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


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


def test_grounding_cap_exit_code(capsys, tmp_path):
    names = [f"a{i:02d}" for i in range(20)]
    u_comp = ",".join(f"{n}{{u}}" for n in names)
    v_comp = ",".join(f"{n}{{v}}" for n in names)
    text = (
        "#! rules\n"
        f"r1 ~ X({u_comp})::c => X()::c\n"
        f"r2 ~ X({v_comp})::c => X()::c\n"
        "#! inits\n"
        f"1 X({u_comp})::c\n"
    )
    big = tmp_path / "big.bcsl"
    big.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, "ground", str(big))
    assert code == 4
    assert "cap" in err


def test_bad_regulation_exit_code(capsys, model_path, tmp_path):
    reg = tmp_path / "reg.json"
    reg.write_text('{"type": "regular", "expression": "nope"}', encoding="utf-8")
    code, _, err = run_cli(capsys, "lts", model_path, "--regulation", str(reg))
    assert code == 2
    assert "unknown rule label" in err
    reg.write_text("not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "lts", model_path, "--regulation", str(reg))
    assert code == 2


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


def test_deeply_nested_regulation_json_is_a_usage_error(capsys, model_path, tmp_path):
    reg = tmp_path / "reg.json"
    reg.write_text('{"type": "regular", "x": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli(capsys, "lts", model_path, "--regulation", str(reg))
    assert code == 2
    assert out == ""
    assert err == "error: regulation file nests JSON too deeply\n"


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


def _assert_documented_exit(capsys, argv: list[str]) -> None:
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3, 4), argv
    assert code != 1 or argv[0] == "check", argv
    assert "Traceback" not in err, argv


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
