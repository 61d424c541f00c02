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


# Every ``ParseError`` raise site, spread over ``parse_model`` and the four
# line entry points: the exact message, line and column of each.
_ENTRY_POINTS = {
    "model": parse_model,
    "rule": parse_rule,
    "agent": parse_agent,
    "pattern": parse_pattern,
    "multiset": parse_multiset,
}
PINNED_ERRORS = [
    # stray characters
    ("model", "#! rules\nr ~ A{x}::c => ?\n#! inits\n",
     2, 16, "line 2, column 16: unexpected character '?'"),
    ("model", "#! rules\nr ~ A{x}::c => A{y}::c // fine\nq ~ A{x}:c => A{y}::c\n#! inits\n",
     3, 9, "line 3, column 9: unexpected character ':'"),
    ("model", "#! rules\nr ~ A{x}::c = A{y}::c\n#! inits\n",
     2, 13, "line 2, column 13: unexpected character '='"),
    ("rule", "r ~ A{x}::c - A{y}::c", 1, 13, "line 1, column 13: unexpected character '-'"),
    ("agent", "A{x}::c$", 1, 8, "line 1, column 8: unexpected character '$'"),
    ("agent", "A{é}::c", 1, 3, "line 1, column 3: unexpected character 'é'"),
    ("pattern", "A{x}::c +\t²", 1, 11, "line 1, column 11: unexpected character '²'"),
    ("multiset", "  2 A{x}::c + B{y}::c ;", 1, 21, "line 1, column 21: unexpected character ';'"),
    ("multiset", "∅ + A{x}::c", 1, 1, "line 1, column 1: unexpected character '∅'"),
    ("rule", "r A{x} ?", 1, 8, "line 1, column 8: unexpected character '?'"),
    ("model", "#! rules\r\nr ~ A{x}::c => A{y}::c\r\n\r\nq ~ => ?\r\n",
     4, 8, "line 4, column 8: unexpected character '?'"),
    ("model", "#! rules\rr ~ => A{y}::c\r#! inits\r1 A{y}::c + @\r",
     4, 13, "line 4, column 13: unexpected character '@'"),
    # expected ..., found X / found end of line
    ("rule", "r A{x}::c => A{y}::c",
     1, 3, "line 1, column 3: expected '~' after the rule label, found 'A'"),
    ("rule", "~ A{x}::c => A{y}::c", 1, 1, "line 1, column 1: expected rule label, found '~'"),
    ("rule", "r ~ A{x}::c A{y}::c",
     1, 13, "line 1, column 13: expected '=>' between rule sides, found 'A'"),
    ("rule", "r ~ A{x}::c",
     1, 12, "line 1, column 12: expected '=>' between rule sides, found end of line"),
    ("agent", "A{x}",
     1, 5, "line 1, column 5: expected '::' before the compartment, found end of line"),
    ("agent", "A{x}::  ",
     1, 9, "line 1, column 9: expected a compartment name, found end of line"),
    ("agent", "A::c", 1, 2, "line 1, column 2: expected '{' or '(' after component name 'A'"),
    ("agent", "A{1}::c", 1, 3, "line 1, column 3: expected a feature name, found '1'"),
    ("agent", "A{x)::c", 1, 4, "line 1, column 4: expected '}', found ')'"),
    ("agent", "A{x}.::c", 1, 6, "line 1, column 6: expected a component name, found '::'"),
    ("agent", "P(S{x}::c",
     1, 7, "line 1, column 7: expected ')' closing the composition, found '::'"),
    ("agent", "P(1)::c", 1, 3, "line 1, column 3: expected an atomic name, found '1'"),
    ("agent", "P(S(x))::c", 1, 4, "line 1, column 4: expected '{', found '('"),
    ("pattern", "A{x}::c +",
     1, 10, "line 1, column 10: expected a component name, found end of line"),
    ("pattern", "A{x}::c + + B{y}::c",
     1, 11, "line 1, column 11: expected a component name, found '+'"),
    ("multiset", "2 3 A{x}::c", 1, 3, "line 1, column 3: expected a component name, found '3'"),
    ("model", "#! rules\n#! inits\nA{x}::c\n",
     3, 1, "line 3, column 1: expected an agent count, found 'A'"),
    ("model", "#! rules\n#! inits\n2\n",
     3, 2, "line 3, column 2: expected a component name, found end of line"),
    ("model", "#! rules\nr ~ A{x}::c => A{y}::c\n\nr2 ~ => P(S{a}, )::c\n#! inits\n",
     4, 17, "line 4, column 17: expected an atomic name, found ')'"),
    # trailing tokens
    ("agent", "A{x}::c extra", 1, 9, "line 1, column 9: unexpected trailing 'extra'"),
    ("agent", "A{x}::c -> B{y}::c", 1, 9, "line 1, column 9: unexpected trailing '=>'"),
    ("rule", "r ~ A{x}::c => A{y}::c => A{z}::c",
     1, 24, "line 1, column 24: unexpected trailing '=>'"),
    ("pattern", "A{x}::c A{y}::c", 1, 9, "line 1, column 9: unexpected trailing 'A'"),
    ("multiset", "2 A{x}::c 3", 1, 11, "line 1, column 11: unexpected trailing '3'"),
    ("model", "#! rules\n#! inits\n1 A{x}::c + B{y}::c\n",
     3, 11, "line 3, column 11: unexpected trailing '+'"),
    # role clashes
    ("model", "#! rules\nr ~ A{x}::c + A(B{y})::c => A{x}::c\n#! inits\n",
     2, 15, "line 2, column 15: name 'A' used as structure here but as atomic on line 2"),
    ("model", "#! rules\nr1 ~ A{x}::c => A{y}::c\n// note\nr2 ~ B{x}::A => B{y}::A\n#! inits\n",
     4, 12, "line 4, column 12: name 'A' used as compartment here but as atomic on line 2"),
    ("model", "#! rules\nr ~ A{x}::c =>\n#! inits\n1 B{A}::c\n",
     4, 5, "line 4, column 5: name 'A' used as feature here but as atomic on line 2"),
    ("agent", "A(A{x})::c",
     1, 3, "line 1, column 3: name 'A' used as atomic here but as structure on line 1"),
    ("rule", "r ~ A{c}::c =>",
     1, 11, "line 1, column 11: name 'c' used as compartment here but as feature on line 1"),
    ("pattern", "x{x}::c",
     1, 3, "line 1, column 3: name 'x' used as feature here but as atomic on line 1"),
    ("multiset", "P(S{i})::c + S(P{i})::c",
     1, 14, "line 1, column 14: name 'S' used as structure here but as atomic on line 1"),
    # duplicate atomics
    ("agent", "P(S{i},S{a})::c",
     1, 8, "line 1, column 8: duplicate atomic 'S' in composition of 'P'"),
    ("model", "#! rules\nr ~ P(S{i},T{i},T{a})::c => P()::c\n#! inits\n",
     2, 17, "line 2, column 17: duplicate atomic 'T' in composition of 'P'"),
    # unsorted compositions
    ("model", "#! rules\nr ~ P(T{i},S{i})::c => P(S{a},T{i})::c\n#! inits\n",
     2, 5, "line 2, column 5: composition of 'P' is not alphanumerically sorted"),
    ("pattern", "A{x}::c + P(T{i},S{i})::c",
     1, 11, "line 1, column 11: composition of 'P' is not alphanumerically sorted"),
    ("multiset", "Q(b{x},a{x},b{y})::c",
     1, 13, "line 1, column 13: duplicate atomic 'b' in composition of 'Q'"),
    # non-positive counts
    ("model", "#! rules\n#! inits\n0 A{x}::c\n",
     3, 1, "line 3, column 1: agent count must be positive"),
    ("multiset", "2 A{x}::c + 00 B{y}::c",
     1, 13, "line 1, column 13: agent count must be positive"),
    # duplicate rule labels
    ("model", "#! rules\nr ~ A{x}::c => A{y}::c\nr ~ A{y}::c => A{x}::c\n#! inits\n",
     3, 1, "line 3, column 1: duplicate rule label 'r' (first on line 2)"),
    ("model", "#! rules\nr ~ A{x}::c => A{y}::c\n#! inits\n#! rules\n  r ~ => A{x}::c\n",
     5, 1, "line 5, column 1: duplicate rule label 'r' (first on line 2)"),
    # unknown headers
    ("model", "#! rewrites\n", 1, 1, "line 1, column 1: unknown section header 'rewrites'"),
    ("model", "#! rules\n#! inits\n#!\n", 3, 1, "line 3, column 1: unknown section header ''"),
    ("model", "// c\n\n  #! rules x\n",
     3, 1, "line 3, column 1: unknown section header 'rules x'"),
    # content before a header
    ("model", "r ~ A{x}::c => A{y}::c\n",
     1, 1, "line 1, column 1: content before any '#!' section header"),
    ("model", "// only a comment\n\n   1 A{x}::c\n#! rules\n",
     3, 1, "line 3, column 1: content before any '#!' section header"),
    # counts longer than ``int`` reads from text (``sys.get_int_max_str_digits()``)
    pytest.param("model", "#! rules\n#! inits\n" + "7" * 5_000 + " A{x}::c\n",
                 3, 1, "line 3, column 1: agent count has too many digits",
                 id="init-count-5000-digits"),
    pytest.param("multiset", "2 A{x}::c + " + "9" * 5_000 + " B{y}::c",
                 1, 13, "line 1, column 13: agent count has too many digits",
                 id="multiset-count-5000-digits"),
    # counts that ``int`` reads, whose sum for one agent it could not write
    pytest.param("model",
                 "#! rules\n#! inits\n" + "9" * 4_300 + " A{x}.B{y}::c\n  1 B{y}.A{x}::c\n",
                 4, 3, "line 4, column 3: agent counts sum to too many digits",
                 id="init-counts-sum-past-4300-digits"),
    pytest.param("multiset", "9" * 4_300 + " A{x}::c + B{y}::c + A{x}::c",
                 1, 4_322, "line 1, column 4322: agent counts sum to too many digits",
                 id="multiset-counts-sum-past-4300-digits"),
]


@pytest.mark.parametrize("entry, text, line, col, message", PINNED_ERRORS)
def test_parse_errors_keep_their_bytes(entry, text, line, col, message):
    with pytest.raises(ParseError) as err:
        _ENTRY_POINTS[entry](text)
    assert (str(err.value), err.value.line, err.value.col) == (message, line, col)


# Whitespace that ``str.splitlines`` would break a line at.
_NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("space", _NOT_LINE_BREAKS)
def test_other_whitespace_separates_tokens_within_a_line(space):
    text = f"#! rules\nr ~ A{{x}}::c{space}=>{space}A{{y}}::c\n#! inits\n1{space}A{{x}}::c\n"
    model = parse_model(text)
    assert [str(rule) for rule in model.rules] == ["r ~ A{x}::c => A{y}::c"]
    assert str(model.init) == "1 A{x}::c"
    assert str(parse_rule(f"r{space}~ A{{x}}::c =>")) == "r ~ A{x}::c =>"


@pytest.mark.parametrize("space", _NOT_LINE_BREAKS)
def test_only_newlines_count_lines(space):
    text = f"#! rules\nr ~ A{{x}}::c{space}=> A{{y}}::c\r\nq ~ => A{{y}}::c\rp ~ => ?\n"
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert (err.value.line, err.value.col) == (4, 8)


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
