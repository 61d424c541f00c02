import importlib.util
from pathlib import Path

import pytest
from hypothesis import settings

from bcsl import parse_model

# ``--hypothesis-profile=long``: ten times the default examples, for the
# generated-model oracle (``test_generated_models.py``) in CI.
settings.register_profile("long", max_examples=1000)

BENCH = Path(__file__).resolve().parents[1] / "bench"

# A single two-site agent that can activate each site independently and be
# exported out of the cell.  The worked example used across the suite.
TWO_SITE_MODEL = """\
#! rules
r1_S ~ P(S{i})::cell => P(S{a})::cell
r1_T ~ P(T{i})::cell => P(T{a})::cell
r2   ~ P()::cell     => P()::out

#! inits
1 P(S{i},T{i})::cell
"""

# Example regulation configs for the two-site model, paired with the label
# sequence sets they leave reachable and the edge count of the depth-4 tree.
REGULATION_CONFIGS = {
    "regular": {"type": "regular", "expression": "r1_S.r1_T.r2|r1_T.r1_S"},
    "ordered": {"type": "ordered", "pairs": [["r1_S", "r2"], ["r1_T", "r2"]]},
    "programmed": {
        "type": "programmed",
        "successors": {"r1_S": ["r2", "r1_T"], "r1_T": ["r1_S"], "r2": []},
    },
    "conditional": {"type": "conditional", "prohibited": {"r2": ["P(S{a},T{i})::cell"]}},
    "concurrent-free": {
        "type": "concurrent-free",
        "priority": [["r1_S", "r2"], ["r1_T", "r2"]],
    },
}

EXPECTED_REGULATED_SEQUENCES = {
    "regular": {("r1_S", "r1_T", "r2"), ("r1_T", "r1_S")},
    "ordered": {("r2",), ("r1_S", "r1_T"), ("r1_T", "r1_S")},
    "programmed": {("r2",), ("r1_S", "r2"), ("r1_S", "r1_T"), ("r1_T", "r1_S", "r2")},
    "conditional": {
        ("r2",),
        ("r1_T", "r2"),
        ("r1_T", "r1_S", "r2"),
        ("r1_S", "r1_T", "r2"),
    },
    "concurrent-free": {("r1_S", "r1_T", "r2"), ("r1_T", "r1_S", "r2")},
}

EXPECTED_TREE_EDGES = {
    "regular": 5,
    "ordered": 5,
    "programmed": 7,
    "conditional": 8,
    "concurrent-free": 6,
}

# A structure ``Y`` of 20 two-feature atomics: its ``Y()`` stands for 2^20
# agents, yet only two agents are ever reached, so the whole graph has two
# states and two transitions.
_Y_X = ",".join(f"a{i:02d}{{x}}" for i in range(20))
_Y_Y = ",".join(f"a{i:02d}{{y}}" for i in range(20))
WIDE_SIGNATURE_MODEL = (
    "#! rules\n"
    "r1 ~ Y()::c => Y()::d\n"
    "r2 ~ Y()::d => Y()::c\n"
    "#! inits\n"
    f"1 Y({_Y_X})::c\n"
    f"1 Y({_Y_Y})::e\n"
)

UNREGULATED_SEQUENCES = {
    ("r2",),
    ("r1_T", "r2"),
    ("r1_S", "r2"),
    ("r1_T", "r1_S", "r2"),
    ("r1_S", "r1_T", "r2"),
}


@pytest.fixture(scope="session")
def two_site_text() -> str:
    return TWO_SITE_MODEL


@pytest.fixture(scope="session")
def two_site_model():
    return parse_model(TWO_SITE_MODEL)


def bench_module(name: str):
    """The benchmark's module ``bench/<name>.py``, imported from its file."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
