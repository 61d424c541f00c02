import pytest
from hypothesis import given, strategies as st

from bcsl import (
    Agent,
    Atomic,
    BcslRule,
    EPSILON,
    Multiset,
    ParseError,
    Pattern,
    SignatureError,
    Structure,
    infer_signatures,
    model_to_text,
    parse_agent,
    parse_model,
    parse_multiset,
    parse_pattern,
    parse_rule,
)

# ---------------------------------------------------------------------------
# Model parsing
# ---------------------------------------------------------------------------

def test_two_site_model_parses(two_site_model):
    model = two_site_model
    assert model.labels == ("r1_S", "r1_T", "r2")
    assert str(model.init) == "1 P(S{i},T{i})::cell"
    assert model.atomic_signature == {"S": frozenset("ia"), "T": frozenset("ia")}
    assert model.structure_signature == {"P": frozenset({"S", "T"})}


def test_empty_model():
    model = parse_model("#! rules\n#! inits\n")
    assert model.rules == ()
    assert model.init == Multiset()
    assert model.atomic_signature == {}
    assert model.structure_signature == {}


def test_unsorted_composition_rejected():
    text = "#! rules\nr ~ P(T{i},S{i})::c => P(S{a},T{i})::c\n#! inits\n"
    with pytest.raises(ParseError, match="not alphanumerically sorted") as err:
        parse_model(text)
    assert err.value.line == 2


def test_duplicate_atomic_in_composition_rejected():
    with pytest.raises(ParseError, match="duplicate atomic"):
        parse_agent("P(S{i},S{a})::c")


def test_duplicate_rule_label_rejected():
    text = "#! rules\nr ~ A{x}::c => A{y}::c\nr ~ A{y}::c => A{x}::c\n#! inits\n"
    with pytest.raises(ParseError, match="duplicate rule label"):
        parse_model(text)


def test_unknown_section_header_rejected():
    with pytest.raises(ParseError, match="unknown section header"):
        parse_model("#! rewrites\n")


def test_content_before_section_rejected():
    with pytest.raises(ParseError, match="before any"):
        parse_model("r ~ A{x}::c => A{y}::c\n")


def test_name_class_conflict_rejected():
    text = "#! rules\nr ~ A{x}::c + A(B{y})::c => A{x}::c\n#! inits\n"
    with pytest.raises(ParseError, match="used as structure.*as atomic"):
        parse_model(text)


def test_name_class_conflict_across_lines():
    text = "#! rules\nr1 ~ A{x}::c => A{y}::c\nr2 ~ B{x}::A => B{y}::A\n#! inits\n"
    with pytest.raises(ParseError, match="used as compartment"):
        parse_model(text)


def test_init_count_must_be_positive():
    with pytest.raises(ParseError, match="positive"):
        parse_model("#! rules\n#! inits\n0 A{x}::c\n")


def test_init_aggregates_counts():
    model = parse_model("#! rules\n#! inits\n1 A{x}::c\n2 A{x}::c\n")
    assert str(model.init) == "3 A{x}::c"


def test_comments_padding_blank_lines(two_site_model):
    text = (
        "// header comment\n"
        "#! rules\n"
        "\n"
        "r1_S ~ P(S{i})::cell    =>   P(S{a})::cell // activate\n"
        "r1_T~P(T{i})::cell->P(T{a})::cell\n"
        "r2 ~ P()::cell => P()::out\n"
        "#! inits\n"
        "1    P(S{i},T{i})::cell\n"
    )
    model = parse_model(text)
    assert model.labels == two_site_model.labels
    assert [str(r) for r in model.rules] == [str(r) for r in two_site_model.rules]
    assert model.init == two_site_model.init


def test_empty_rule_sides():
    model = parse_model("#! rules\nmk ~ => A{u}::c\nrm ~ A{u}::c =>\n#! inits\n1 A{u}::c\n")
    mk, rm = model.rules
    assert mk.lhs == Pattern(())
    assert rm.rhs == Pattern(())
    assert str(mk) == "mk ~ => A{u}::c"


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        parse_model("#! rules\nr ~ A{x}:c => A{y}::c\n#! inits\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="unexpected character"):
        parse_model("#! rules\nr ~ A{x}::c => ?\n#! inits\n")
    with pytest.raises(ParseError, match="expected"):
        parse_agent("A{x}")
    with pytest.raises(ParseError, match="trailing"):
        parse_agent("A{x}::c extra")
    with pytest.raises(ParseError, match="'~'"):
        parse_rule("r A{x}::c => A{y}::c")


# ---------------------------------------------------------------------------
# Signature inference
# ---------------------------------------------------------------------------

def test_infer_signatures_empty():
    assert infer_signatures([], Multiset()) == ({}, {})


def test_infer_signatures_single_rule():
    rule = parse_rule("r ~ A{x}::c => A{y}::c")
    atomic, structure = infer_signatures([rule], Multiset())
    assert atomic == {"A": frozenset({"x", "y"})}
    assert structure == {}


def test_infer_signatures_union_over_occurrences(two_site_model):
    atomic, structure = infer_signatures(two_site_model.rules, two_site_model.init)
    assert atomic == {"S": frozenset("ia"), "T": frozenset("ia")}
    assert structure == {"P": frozenset({"S", "T"})}


def test_infer_signatures_uninstantiable_atomic():
    ghost = Pattern((Agent((Atomic("A", EPSILON),), "c"),))
    rule = BcslRule("r", ghost, ghost)
    with pytest.raises(SignatureError, match="no concrete feature"):
        infer_signatures([rule], Multiset())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_serialize_agent():
    agent = parse_agent("P(S{i},T{i})::cell")
    assert str(agent) == "P(S{i},T{i})::cell"


def test_serialize_empty_pattern():
    assert str(Pattern(())) == ""


def test_serialize_multiset_count_prefixed():
    agent = parse_agent("P(S{a},T{i})::cell")
    assert str(Multiset({agent: 2})) == "2 P(S{a},T{i})::cell"


def test_model_to_text_roundtrip(two_site_model):
    text = model_to_text(two_site_model)
    again = parse_model(text)
    assert [str(r) for r in again.rules] == [str(r) for r in two_site_model.rules]
    assert again.init == two_site_model.init
    assert model_to_text(again) == text


# ---------------------------------------------------------------------------
# Random round-trips (names drawn from disjoint per-class pools)
# ---------------------------------------------------------------------------

ATOMIC_NAMES = ("alpha", "beta", "gamma")
FEATURE_NAMES = ("on", "off", "mid")
STRUCTURE_NAMES = ("Box", "Cup")
COMPARTMENTS = ("cyt", "nuc")

atomics = st.builds(
    Atomic, st.sampled_from(ATOMIC_NAMES), st.sampled_from(FEATURE_NAMES)
)


@st.composite
def structures(draw):
    name = draw(st.sampled_from(STRUCTURE_NAMES))
    members = sorted(draw(st.sets(st.sampled_from(ATOMIC_NAMES), max_size=3)))
    comp = tuple(Atomic(m, draw(st.sampled_from(FEATURE_NAMES))) for m in members)
    return Structure(name, comp)


components = st.one_of(atomics, structures())
agents = st.builds(
    Agent,
    st.lists(components, min_size=1, max_size=3).map(tuple),
    st.sampled_from(COMPARTMENTS),
)
patterns = st.builds(Pattern, st.lists(agents, max_size=3).map(tuple))


@given(agent=agents)
def test_agent_roundtrip(agent):
    assert parse_agent(str(agent)) == agent


@given(pattern=patterns)
def test_pattern_roundtrip(pattern):
    assert parse_pattern(str(pattern)) == pattern


@given(agent_list=st.lists(agents, max_size=5))
def test_multiset_roundtrip(agent_list):
    m = Multiset.from_agents(agent_list)
    assert parse_multiset(str(m)) == m


@given(lhs=patterns, rhs=patterns)
def test_rule_roundtrip(lhs, rhs):
    rule = BcslRule("some_rule", lhs, rhs)
    assert parse_rule(str(rule)) == rule


def test_parse_multiset_accepts_bare_and_counted():
    assert parse_multiset("A{x}::c") == parse_multiset("1 A{x}::c")
    m = parse_multiset("2 A{x}::c + A{x}::c + 1 B{y}::c")
    assert m.count(parse_agent("A{x}::c")) == 3
    assert m.count(parse_agent("B{y}::c")) == 1
    assert parse_multiset("∅") == Multiset()
    assert parse_multiset("") == Multiset()
