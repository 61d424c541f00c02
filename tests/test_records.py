"""The record classes of ``bcsl``: construction, comparison, text and pickling.

One table over the public records.  Each row builds an instance by
keyword, says whether its class compares (and hashes) by its fields, and
gives an instance with one field changed.  Records that nothing compares
are left to compare by identity, so only the field read-back is checked
for them.
"""

import hashlib
import os
import pickle
import subprocess
import sys

import pytest

import bcsl
from bcsl import (
    Agent,
    Atomic,
    AutomatonRegulation,
    BcslModel,
    BcslRule,
    ConcurrentFreeRegulation,
    ConditionalRegulation,
    ConformanceReport,
    Counterexample,
    LabelSequences,
    Lts,
    Mrs,
    MrsRule,
    Multiset,
    Pattern,
    Run,
    RunTree,
    Structure,
    parse_model,
    parse_multiset,
)
from bcsl.regulation import Dfa
from conftest import TWO_SITE_MODEL

S_A = Atomic(name="S", feature="a")
P = Structure(name="P", composition=(S_A,))
AGENT = Agent(chain=(P,), compartment="c")
OTHER_AGENT = Agent(chain=(Atomic("A", "x"),), compartment="c")
STATE = parse_multiset("1 P(S{a})::c")
OTHER_STATE = parse_multiset("2 P(S{a})::c")
RULE = BcslRule(label="r", lhs=Pattern(agents=(AGENT,)), rhs=Pattern())
REPORT_COUNTS = dict(
    states_checked=1,
    truncated=False,
    direct_states=1,
    grounded_states=1,
    direct_transitions=0,
    grounded_transitions=0,
)

# (class, fields by keyword, one field changed, whether == and hash read the fields)
RECORDS = [
    (Atomic, dict(name="S", feature="a"), dict(feature="i"), True),
    (Structure, dict(name="P", composition=(S_A,)), dict(composition=()), True),
    (Agent, dict(chain=(P,), compartment="c"), dict(compartment="d"), True),
    (Pattern, dict(agents=(AGENT,)), dict(agents=(OTHER_AGENT,)), True),
    (BcslRule, dict(label="r", lhs=Pattern((AGENT,)), rhs=Pattern()), dict(label="s"), True),
    (
        BcslModel,
        dict(rules=(RULE,), atomic_signature={}, structure_signature={}, init=STATE),
        dict(init=OTHER_STATE),
        True,
    ),
    (MrsRule, dict(label="r", pre=STATE, post=OTHER_STATE), dict(post=STATE), True),
    (Mrs, dict(rules=(), init=STATE), dict(init=OTHER_STATE), False),
    (
        Lts,
        dict(states=(STATE, OTHER_STATE), edges=((0, "r", 1),)),
        dict(states=(OTHER_STATE, STATE)),
        True,
    ),
    (RunTree, dict(states=(STATE,), edges=()), dict(truncated=True), True),
    (
        LabelSequences,
        dict(complete=frozenset({("r",)}), incomplete=frozenset()),
        dict(incomplete=frozenset({()})),
        True,
    ),
    (Run, dict(states=(STATE, STATE), labels=("ε",)), dict(labels=("r",)), True),
    (
        Dfa,
        dict(start=0, accepting=frozenset({0}), transitions={}, live=frozenset({0})),
        dict(start=1),
        False,
    ),
    (AutomatonRegulation, dict(start=None, moves={None: {}}, names={None: ""}), {}, False),
    (ConditionalRegulation, dict(prohibited={"r": (STATE,)}), {}, False),
    (ConcurrentFreeRegulation, dict(priority=frozenset({("r", "s")})), {}, False),
    (
        Counterexample,
        dict(kind="state", direction="direct_only", state="∅", label=None, detail="d"),
        dict(label="r"),
        False,
    ),
    (ConformanceReport, dict(REPORT_COUNTS, counterexample=None), dict(truncated=True), False),
]


@pytest.mark.parametrize(
    "cls, fields, changed, compared", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)
def test_a_record_keeps_its_fields_and_compares_by_them_where_read(cls, fields, changed, compared):
    record = cls(**fields)
    assert type(record) is cls
    for name, value in fields.items():
        assert getattr(record, name) is value
    assert cls(*fields.values()).__class__ is cls
    if not compared:
        return
    twin, other = cls(**fields), cls(**dict(fields, **changed))
    assert record == twin and not record != twin
    assert record != other and not record == other
    assert record != object()
    if cls is BcslModel:  # its fields hold dicts: it has no hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) and hash(record) != hash(other)


# The fields that a record may be built without.
DEFAULTED = {Structure: "composition", Pattern: "agents", Lts: "unsettled", RunTree: "truncated"}


@pytest.mark.parametrize(
    "cls, fields, changed, compared", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)
def test_a_record_refuses_fields_it_does_not_take(cls, fields, changed, compared):
    values = [getattr(cls(**fields), name) for name in cls._fields]
    for name in fields:
        if name != DEFAULTED.get(cls):
            with pytest.raises(TypeError):
                cls(**{key: value for key, value in fields.items() if key != name})
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=values[0])
    with pytest.raises(TypeError):
        cls(values[0], **dict(zip(cls._fields, values)))


def test_defaults():
    assert Structure("X").composition == ()
    assert Pattern().agents == ()
    assert Lts((STATE,), ()).unsettled == frozenset()
    assert not Lts((STATE,), ()).truncated
    assert RunTree((STATE,), ()).truncated is False


def test_reprs_keep_the_dataclass_form():
    assert repr(S_A) == "Atomic(name='S', feature='a')"
    assert repr(P) == "Structure(name='P', composition=(Atomic(name='S', feature='a'),))"
    agent = Agent((P,), "c")
    text = (
        "Agent(chain=(Structure(name='P', composition=(Atomic(name='S', feature='a'),)),),"
        " compartment='c')"
    )
    assert repr(agent) == text
    str(agent)  # the cached text is no field
    assert repr(agent) == text
    assert repr(RULE) == (
        f"BcslRule(label='r', lhs=Pattern(agents=({text},)), rhs=Pattern(agents=()))"
    )


# SHA-256 of ``repr(parse_model(TWO_SITE_MODEL))`` under PYTHONHASHSEED=0
# (a signature's frozenset prints in hash order), recorded when the
# records were dataclasses.
TWO_SITE_REPR_DIGEST = "dd483972e0455dbd8575b3d7e192d7ca716c3832079c87c38dcadc490f8660a7"

_MODEL_REPR = """
import sys
sys.path.insert(0, sys.argv[1])
from conftest import TWO_SITE_MODEL
from bcsl import parse_model
sys.stdout.write(repr(parse_model(TWO_SITE_MODEL)))
"""


def test_model_repr_keeps_its_bytes():
    root = os.path.dirname(os.path.dirname(os.path.abspath(bcsl.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    child = subprocess.run(
        [sys.executable, "-c", _MODEL_REPR, tests],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=root, PYTHONHASHSEED="0"),
        check=True,
    )
    assert hashlib.sha256(child.stdout).hexdigest() == TWO_SITE_REPR_DIGEST
    assert repr(parse_model(TWO_SITE_MODEL)) == repr(parse_model(TWO_SITE_MODEL))


def test_records_pickle():
    agent = Agent((P,), "c")
    text = agent.text
    graph = Lts((STATE, OTHER_STATE), ((0, "r", 1),))
    for record in (agent, Agent((P,), "d"), RULE, graph):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
    # The graph keeps its ``repr`` too: its states are a tuple, in order.
    for record in (agent, RULE, graph):
        assert repr(pickle.loads(pickle.dumps(record))) == repr(record)
    assert pickle.loads(pickle.dumps(agent))._text == text
    assert isinstance(pickle.loads(pickle.dumps(graph)).initial, Multiset)
