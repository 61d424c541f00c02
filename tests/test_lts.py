import hashlib
import json
from functools import partial
from json.encoder import py_encode_basestring

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bcsl import (
    EPSILON,
    EPSILON_LABEL,
    Agent,
    Atomic,
    Lts,
    Multiset,
    RuleMatcher,
    RunTree,
    build_lts,
    build_mrs,
    check_equivalence,
    compile_regulation,
    direct_walk,
    explore,
    lts_to_dot,
    lts_to_json_obj,
    make_guard,
    maximal_label_sequences,
    parse_model,
    parse_multiset,
    successors,
    tree_to_dot,
    tree_to_json_obj,
    unroll,
)
from bcsl import cli, terms
from bcsl.cli import _tree_text
from bcsl.lts import _backtrack, _PreparedRule
from bcsl.patterns import assign_features, expand_agent
from bcsl.syntax import BcslModel, BcslRule, parse_agent
from bcsl.terms import Pattern, Structure, agent_id, agent_of
from conftest import TWO_SITE_MODEL, UNREGULATED_SEQUENCES, bench_module
from corpus import random_model_text
from oracles import (
    dot_by_definition,
    enumerated_matches,
    map_states,
    resolved_effects,
    text_by_definition,
)
from test_generated_models import model_texts

M0 = parse_multiset("1 P(S{i},T{i})::cell")

# The reachable quotient graph of the two-site model, frozen by collapsing
# its run tree's congruent states by hand.
EXPECTED_STATES = {
    "1 P(S{i},T{i})::cell",
    "1 P(S{a},T{i})::cell",
    "1 P(S{i},T{a})::cell",
    "1 P(S{a},T{a})::cell",
    "1 P(S{i},T{i})::out",
    "1 P(S{a},T{i})::out",
    "1 P(S{i},T{a})::out",
    "1 P(S{a},T{a})::out",
}

EXPECTED_EDGES = {
    ("1 P(S{i},T{i})::cell", "r2", "1 P(S{i},T{i})::out"),
    ("1 P(S{i},T{i})::cell", "r1_T", "1 P(S{i},T{a})::cell"),
    ("1 P(S{i},T{i})::cell", "r1_S", "1 P(S{a},T{i})::cell"),
    ("1 P(S{i},T{a})::cell", "r2", "1 P(S{i},T{a})::out"),
    ("1 P(S{i},T{a})::cell", "r1_S", "1 P(S{a},T{a})::cell"),
    ("1 P(S{a},T{i})::cell", "r2", "1 P(S{a},T{i})::out"),
    ("1 P(S{a},T{i})::cell", "r1_T", "1 P(S{a},T{a})::cell"),
    ("1 P(S{a},T{a})::cell", "r2", "1 P(S{a},T{a})::out"),
}


# ---------------------------------------------------------------------------
# Direct successor computation
# ---------------------------------------------------------------------------

def test_successors_at_initial_state(two_site_model):
    succ = RuleMatcher(two_site_model).successors(M0)
    assert {(label, str(target)) for label, target in succ} == {
        ("r1_S", "1 P(S{a},T{i})::cell"),
        ("r1_T", "1 P(S{i},T{a})::cell"),
        ("r2", "1 P(S{i},T{i})::out"),
    }


def test_successors_no_rules():
    model = parse_model("#! rules\n#! inits\n1 A{x}::c\n")
    assert RuleMatcher(model).successors(model.init) == frozenset()


def test_successors_single_rule_applies(two_site_model):
    state = parse_multiset("1 P(S{a},T{a})::cell")
    succ = RuleMatcher(two_site_model).successors(state)
    assert {(label, str(target)) for label, target in succ} == {
        ("r2", "1 P(S{a},T{a})::out")
    }


def test_successors_respect_multiplicities(two_site_model):
    state = parse_multiset("2 P(S{i},T{i})::cell")
    succ = RuleMatcher(two_site_model).successors(state)
    assert (
        "r2",
        parse_multiset("1 P(S{i},T{i})::cell + 1 P(S{i},T{i})::out"),
    ) in succ


def test_multi_agent_pattern_needs_enough_copies():
    model = parse_model(
        "#! rules\npair ~ A{x}::c + A{x}::c => A{y}::c\n#! inits\n1 A{x}::c\n"
    )
    assert RuleMatcher(model).successors(parse_multiset("1 A{x}::c")) == frozenset()
    succ = RuleMatcher(model).successors(parse_multiset("2 A{x}::c"))
    assert {(l, str(t)) for l, t in succ} == {("pair", "1 A{y}::c")}


def grounded_successors(mrs, state):
    """The grounded ``successors`` of ``state`` without its ε self-loop."""
    return frozenset(
        (label, target) for label, target in successors(mrs, state) if label != EPSILON_LABEL
    )


def assert_matcher_agrees(model, states, context):
    matcher, mrs = RuleMatcher(model), build_mrs(model)
    for state in states:
        assert matcher.successors(state) == grounded_successors(mrs, state), (context, str(state))


def test_direct_and_grounded_routes_agree_everywhere(two_site_model):
    """The core dual-route check on every reachable state."""
    assert_matcher_agrees(two_site_model, build_lts(two_site_model).states, "two-site")


# Two left-hand assignments (S of the first P = a or b) pick the same
# canonical agent but resolve the right-hand side differently.
SAME_AGENT_TWO_ASSIGNMENTS = (
    "#! rules\n"
    "r ~ P().P()::c => P()::c + P()::out\n"
    "#! inits\n"
    "1 P(S{a}).P(S{b})::c\n"
)


def test_assignments_picking_one_agent_give_distinct_successors():
    model = parse_model(SAME_AGENT_TWO_ASSIGNMENTS)
    matcher = RuleMatcher(model)
    grounded = grounded_successors(build_mrs(model), model.init)
    assert matcher.successors(model.init) == grounded
    assert {(label, str(target)) for label, target in grounded} == {
        ("r", "1 P(S{a})::c + 1 P(S{b})::out"),
        ("r", "1 P(S{a})::out + 1 P(S{b})::c"),
    }
    # A second call is answered from the memo and must agree.
    assert matcher.successors(model.init) == grounded
    graph = build_lts(model)
    assert (graph.n_states, graph.n_transitions) == (3, 2)
    assert check_equivalence(model).passed


# ---------------------------------------------------------------------------
# The direct matcher against the grounded successors
# ---------------------------------------------------------------------------

_models = bench_module("models")
CORPUS_BOUNDS = {"max_states": 50, "max_depth": 25}

# No inits: exploration starts at ∅, where only the empty-left-hand-side
# rule fires, and ``rm`` leads back to it.
EMPTY_START_MODEL = (
    "#! rules\n"
    "r ~ => A{x}::c\n"
    "rm ~ A{x}::c =>\n"
    "pair ~ A{x}::c + A{x}::c => B{y}::c\n"
    "#! inits\n"
)


def test_matcher_on_corpus_states():
    for k, text in enumerate(_models.corpus_models(200)):
        model = parse_model(text)
        grounded = partial(grounded_successors, build_mrs(model))
        reached = explore(model.init, grounded, **CORPUS_BOUNDS)
        assert_matcher_agrees(model, reached.states, k)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2)])
def test_matcher_on_site_model_states(shape):
    model = parse_model(_models.site_model(*shape))
    states = build_lts(model).states
    assert len(states) >= 36
    assert_matcher_agrees(model, states, shape)


def test_matcher_from_the_empty_state():
    model = parse_model(EMPTY_START_MODEL)
    assert model.init == Multiset()
    states = build_lts(model, max_states=30).states
    assert Multiset() in states
    assert_matcher_agrees(model, states, "empty start")
    assert RuleMatcher(model).successors(Multiset()) == {
        ("r", parse_multiset("1 A{x}::c"))
    }


def _matcher_case(text):
    model = parse_model(text)
    mrs = build_mrs(model)
    return RuleMatcher(model), mrs, sorted(mrs.elements, key=str)


# One matcher per model, so its table fills up across the drawn states.
MATCHER_CASES = [
    _matcher_case(text)
    for text in (
        TWO_SITE_MODEL,
        SAME_AGENT_TWO_ASSIGNMENTS,
        EMPTY_START_MODEL,
        _models.site_model(2, 2, 2),
        *_models.corpus_models(12),
    )
]


@st.composite
def matchers_and_states(draw):
    matcher, mrs, pool = draw(st.sampled_from(MATCHER_CASES))
    counts = draw(st.lists(st.integers(0, 3), min_size=len(pool), max_size=len(pool)))
    return matcher, mrs, Multiset(dict(zip(pool, counts)))


@settings(max_examples=300, deadline=None)
@given(matchers_and_states())
def test_matcher_on_random_states(case):
    matcher, mrs, state = case
    assert matcher.successors(state) == grounded_successors(mrs, state)


# ---------------------------------------------------------------------------
# Unification against enumeration
# ---------------------------------------------------------------------------

def assert_unification_enumerates(rule, atomic_signature, agents):
    """Each left-hand position matches ``agents`` and every agent its
    instantiations give, with the assignments of enumeration."""
    for i, pattern in enumerate(rule.lhs.agents):
        expected = enumerated_matches(pattern, atomic_signature)
        for agent in {*agents, *expected}:
            found = rule.matches(i, agent)
            assert sorted(found) == sorted(expected.get(agent, [])), (pattern, agent_of(agent))


def assert_model_unifies_as_it_enumerates(text):
    model = parse_model(text)
    agents = {agent_id(agent) for agent in build_mrs(model).elements}
    for rule in model.rules:
        prepared = _PreparedRule(rule, model.structure_signature, model.atomic_signature)
        assert_unification_enumerates(prepared, model.atomic_signature, agents)


def test_unification_on_corpus_models():
    for text in _models.corpus_models(200):
        assert_model_unifies_as_it_enumerates(text)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2), (4, 2, 2), (3, 2, 3)])
def test_unification_on_site_models(shape):
    assert_model_unifies_as_it_enumerates(_models.site_model(*shape))


def test_unification_on_repeated_components():
    assert_model_unifies_as_it_enumerates(SAME_AGENT_TWO_ASSIGNMENTS)


# A small signature for drawn pairs.  "z" is a feature outside it, which an
# ε must not take.
_ATOMICS = {"s": frozenset({"a", "b"}), "t": frozenset({"a", "b"}), "u": frozenset({"a", "b"})}
_STRUCTURES = {"P": frozenset({"s", "t"}), "Q": frozenset({"u"})}


@st.composite
def _components(draw, features):
    name = draw(st.sampled_from(["P", "Q", "s", "u"]))
    if name in _STRUCTURES:
        names = sorted(draw(st.sets(st.sampled_from(sorted(_STRUCTURES[name])))))
        return Structure(name, tuple(Atomic(n, draw(features)) for n in names))
    return Atomic(name, draw(features))


def _resolve(component, draw):
    """``component`` with each ε replaced by a drawn feature, "z" included."""
    feature = st.sampled_from(["a", "b", "z"])
    if isinstance(component, Atomic):
        return Atomic(component.name, draw(feature)) if component.feature == EPSILON else component
    return Structure(component.name, tuple(_resolve(a, draw) for a in component.composition))


@st.composite
def patterns_and_agents(draw):
    """An expanded agent pattern and a grounded agent: mostly the pattern
    resolved, its chain shuffled and its compartment redrawn, else any
    agent.  Chains repeat a component often."""
    compartments = st.sampled_from(["c", "d"])
    pattern_features = st.sampled_from(["a", "b", EPSILON])
    chain = draw(st.lists(_components(pattern_features), min_size=1, max_size=3))
    if draw(st.booleans()):
        chain.append(chain[0])
    pattern = expand_agent(Agent(tuple(chain), draw(compartments)), _STRUCTURES)
    if draw(st.integers(0, 3)):
        target = draw(st.permutations([_resolve(c, draw) for c in pattern.chain]))
    else:
        features = st.sampled_from(["a", "b", "z"])
        target = draw(st.lists(_components(features), min_size=1, max_size=4))
    return pattern, Agent(tuple(target), draw(compartments))


@settings(max_examples=400, deadline=None)
@given(patterns_and_agents())
def test_unification_on_drawn_pairs(case):
    pattern, target = case
    rule = _PreparedRule(BcslRule("r", Pattern((pattern,)), Pattern()), _STRUCTURES, _ATOMICS)
    assert_unification_enumerates(rule, _ATOMICS, {agent_id(target)})


# ---------------------------------------------------------------------------
# Right-hand text templates against assign_features
# ---------------------------------------------------------------------------

def count_rebuilds(monkeypatch) -> list:
    """The right-hand sides the matcher rebuilds with ``assign_features`` from now on."""
    rebuilt = []

    def counted(pattern, by_position):
        rebuilt.append(pattern)
        return assign_features(pattern, by_position)

    monkeypatch.setattr("bcsl.lts.assign_features", counted)
    return rebuilt


def assert_effects_resolve(model, states):
    """Every match of every rule at ``states`` does what ``resolved_effects`` says."""
    for rule in model.rules:
        prepared = _PreparedRule(rule, model.structure_signature, model.atomic_signature)
        n = len(prepared.lhs.agents)
        for state in states:
            found = _backtrack(prepared.candidates, n, dict(state.pairs())) if n else [()]
            for match in found:
                expected = resolved_effects(prepared, match, model.atomic_signature)
                assert prepared.effects(match) == expected, (str(rule), str(state))


def assert_templates_resolve(model, monkeypatch):
    """The effects agree with ``resolved_effects`` on the reachable states,
    and then a fresh matcher there rebuilds no right-hand side: every
    spelling it meets is in the intern table by then."""
    states = build_lts(model, **CORPUS_BOUNDS).states
    assert_effects_resolve(model, states)
    rebuilt = count_rebuilds(monkeypatch)
    matcher = RuleMatcher(model)
    for state in states:
        matcher.successors(state)
    assert rebuilt == []
    monkeypatch.undo()


def test_templates_on_corpus_models(monkeypatch):
    for seed in range(200):
        assert_templates_resolve(parse_model(random_model_text(seed)), monkeypatch)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2), (3, 2, 3)])
def test_templates_on_site_models(monkeypatch, shape):
    assert_templates_resolve(parse_model(_models.site_model(*shape)), monkeypatch)


def _structure(name, *atoms):
    return Structure(name, tuple(Atomic(n, f) for n, f in atoms))


# A right-hand agent spelled off the canonical form: its chain reversed
# (``Lt`` before ``Kt``) and in another compartment.  Compositions are
# sorted, as ``expand_pattern`` leaves them whatever their written order.
# The right-hand ``mb{ε}`` at position 1 is forced by the left-hand side,
# the one at position 4 is free.  The names occur in no other test, so no
# spelling of these agents is interned before it runs.
NON_CANONICAL_RULE = BcslRule(
    "spell",
    Pattern((Agent((_structure("Kt", ("ma", "p"), ("mb", EPSILON)),), "c"),)),
    Pattern(
        (
            Agent((_structure("Kt", ("ma", "p"), ("mb", EPSILON)),), "c"),
            Agent((Atomic("Lt", "q"), _structure("Kt", ("ma", "q"), ("mb", EPSILON))), "d"),
        )
    ),
)
NON_CANONICAL_MODEL = BcslModel(
    (NON_CANONICAL_RULE,),
    {"ma": frozenset({"p", "q"}), "mb": frozenset({"p", "q"}), "Lt": frozenset({"q"})},
    {"Kt": frozenset({"ma", "mb"})},
    Multiset.from_agents([Agent((_structure("Kt", ("ma", "p"), ("mb", "q")),), "c")]),
)


def test_templates_of_a_non_canonical_right_hand_side(monkeypatch):
    model = NON_CANONICAL_MODEL
    spelled = "Lt{q}.Kt(ma{q},mb{q})::d"
    assert spelled not in terms._IDS
    rebuilt = count_rebuilds(monkeypatch)
    found = RuleMatcher(model).successors(model.init)
    # The intern table missed each of the two chain-reversed spellings
    # once, and filed each under its canonical agent's id; the forced
    # ``Kt(ma{p},mb{q})::c`` is the initial agent's own text.
    assert len(rebuilt) == 2
    assert terms._IDS[spelled] == agent_id(parse_agent("Kt(ma{q},mb{q}).Lt{q}::d"))
    assert found == grounded_successors(build_mrs(model), model.init)
    assert {str(target) for _, target in found} == {
        "1 Kt(ma{p},mb{q})::c + 1 Kt(ma{q},mb{p}).Lt{q}::d",
        "1 Kt(ma{p},mb{q})::c + 1 Kt(ma{q},mb{q}).Lt{q}::d",
    }
    assert_effects_resolve(model, [model.init])
    monkeypatch.undo()
    assert_templates_resolve(model, monkeypatch)


# ---------------------------------------------------------------------------
# Reachable graph
# ---------------------------------------------------------------------------

def test_quotient_graph_two_site(two_site_model):
    graph = build_lts(two_site_model)
    assert {str(s) for s in graph.states} == EXPECTED_STATES
    assert {(str(a), l, str(b)) for a, l, b in graph.transitions} == EXPECTED_EDGES
    assert graph.initial == M0
    assert not graph.truncated


def test_no_rule_model_single_state():
    model = parse_model("#! rules\n#! inits\n1 A{x}::c\n")
    graph = build_lts(model)
    assert graph.n_states == 1
    assert graph.n_transitions == 0


def test_state_cap_truncates(two_site_model):
    graph = build_lts(two_site_model, max_states=3)
    assert graph.truncated
    assert graph.n_states == 3
    for a, _, b in graph.transitions:
        assert a in graph.states and b in graph.states


def test_depth_cap_truncates():
    model = parse_model("#! rules\ngrow ~ => A{x}::c\n#! inits\n1 A{x}::c\n")
    graph = build_lts(model, max_depth=5)
    assert graph.truncated
    assert graph.n_states == 6
    assert graph.unsettled


# ---------------------------------------------------------------------------
# explore against a reference that sorts every successor
# ---------------------------------------------------------------------------

def _key(state) -> str:
    return str(state) if isinstance(state, Multiset) else repr(state)


def _reference_explore(initial, successor_fn, max_states, max_depth) -> Lts:
    """Bounded BFS that sorts and processes every successor in turn."""
    states = {initial}
    transitions = set()
    truncated = False
    cut = set()
    frontier = [initial]
    depth = 0
    while frontier and depth < max_depth:
        frontier.sort(key=_key)
        next_frontier = []
        for state in frontier:
            for label, target in sorted(successor_fn(state), key=lambda lt: (lt[0], _key(lt[1]))):
                if target not in states:
                    if len(states) >= max_states:
                        truncated = True
                        cut.add(state)
                        continue
                    states.add(target)
                    next_frontier.append(target)
                transitions.add((state, label, target))
        frontier = next_frontier
        depth += 1
    truncated = truncated or bool(frontier)
    unsettled = frozenset(frontier) | frozenset(cut)
    assert truncated == bool(unsettled)
    return Lts(initial, frozenset(states), frozenset(transitions), unsettled)


def _assert_explore_matches_reference(initial, successor_fn, max_states, max_depth):
    graph = explore(initial, successor_fn, max_states, max_depth)
    expected = _reference_explore(initial, successor_fn, max_states, max_depth)
    assert graph == expected
    stored = {state: state for state in graph.states}
    assert graph.initial is initial
    for src, _, tgt in graph.transitions:
        assert stored[src] is src and stored[tgt] is tgt
    return graph


_NODE = Agent((Atomic("A", "x"),), "c")


def _node(k: int) -> Multiset:
    """A fresh multiset per call, so equal states are distinct objects."""
    return Multiset({_NODE: k + 1})


_graphs = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.dictionaries(
        st.integers(min_value=0, max_value=n - 1),
        st.lists(
            st.tuples(st.sampled_from("ab"), st.integers(min_value=0, max_value=n - 1)),
            max_size=5,
        ),
    )
)
_caps = st.one_of(st.just(100_000), st.integers(min_value=1, max_value=9))


@given(graph=_graphs, max_states=_caps, max_depth=st.one_of(st.just(1_000), st.integers(0, 5)))
def test_explore_matches_reference_on_random_graphs(graph, max_states, max_depth):
    def successor_fn(state):
        return [(label, _node(k)) for label, k in graph.get(state.count(_NODE) - 1, ())]

    _assert_explore_matches_reference(_node(0), successor_fn, max_states, max_depth)


def test_explore_sorts_where_the_state_cap_cuts():
    # Successor lists come in reverse-sorted order and hold the odd targets
    # twice, under labels a and b: wherever the cap falls inside a list,
    # only a sort keeps the targets the reference keeps.
    graph = {0: [1, 2, 3, 4], 1: [5, 6], 2: [6, 7], 4: [8, 0]}

    def successor_fn(state):
        targets = graph.get(state.count(_NODE) - 1, ())
        out = [(label, _node(t)) for t in targets for label in "ab"[: 1 + t % 2]]
        return sorted(out, key=lambda lt: (lt[0], _key(lt[1])), reverse=True)

    full = explore(_node(0), successor_fn)
    assert full.n_states == 9 and not full.truncated
    for max_states in range(1, full.n_states + 1):
        graph_at_cap = _assert_explore_matches_reference(_node(0), successor_fn, max_states, 1_000)
        assert graph_at_cap.truncated == (max_states < full.n_states)


def _site_model(n_sites: int, copies: int) -> str:
    rules = []
    for j in range(n_sites):
        rules.append(f"act{j} ~ P(S{j}{{f0}})::cell => P(S{j}{{f1}})::cell")
        rules.append(f"deact{j} ~ P(S{j}{{f1}})::cell => P(S{j}{{f0}})::cell")
    sites = ",".join(f"S{j}{{f0}}" for j in range(n_sites))
    return (
        "#! rules\n" + "\n".join(rules) + "\nexport ~ P()::cell => P()::out\n"
        f"#! inits\n{copies} P({sites})::cell\n"
    )


@pytest.mark.parametrize(
    "text, max_states, max_depth",
    [
        (SAME_AGENT_TWO_ASSIGNMENTS, 100_000, 1_000),
        (SAME_AGENT_TWO_ASSIGNMENTS, 2, 1_000),
        (_site_model(3, 2), 100_000, 1_000),
        (_site_model(3, 2), 40, 1_000),
        (_site_model(3, 2), 100_000, 3),
    ],
    ids=["same-agent", "same-agent-capped", "sites", "sites-capped", "sites-shallow"],
)
def test_explore_matches_reference_on_models(text, max_states, max_depth):
    model = parse_model(text)
    graph = _assert_explore_matches_reference(
        model.init, RuleMatcher(model).successors, max_states, max_depth
    )
    assert graph.truncated == (max_states < 100_000 or max_depth < 1_000)


_SITES = bench_module("models")


@pytest.mark.parametrize("name", sorted(_SITES.regulation_configs(3, 2)))
@pytest.mark.parametrize(
    "max_states, max_depth",
    [(100_000, 1_000), (1, 1_000), (7, 1_000), (40, 1_000), (100_000, 0), (100_000, 2)],
)
def test_explore_matches_reference_on_product_nodes(name, max_states, max_depth):
    # ``(state, memory)`` nodes, as ``bcsl lts --regulation`` walks them
    # under its state and depth caps: ``explore`` orders them by ``str``,
    # the reference by ``_key``, which reads a tuple's ``repr``.
    model = parse_model(_SITES.site_model(3, 2, 2))
    regulation = compile_regulation(_SITES.regulation_configs(3, 2)[name], model.labels)
    root, successor_fn, _ = direct_walk(model, make_guard(regulation, model))
    graph = _assert_explore_matches_reference(root, successor_fn, max_states, max_depth)
    assert graph.truncated == (max_states < 100_000 or max_depth < 1_000)


# ---------------------------------------------------------------------------
# ε extension: check's direct side fires ε when no rule applies
# ---------------------------------------------------------------------------

def test_extend_epsilon_terminal_states(two_site_model):
    report = check_equivalence(two_site_model)
    assert report.passed
    # The 8 rule transitions and an ε loop at each of the 4 ``out`` states.
    assert (report.direct_states, report.direct_transitions) == (8, 12)


def test_extend_epsilon_no_terminals_unchanged():
    model = parse_model("#! rules\nspin ~ A{x}::c => A{x}::c\n#! inits\n1 A{x}::c\n")
    report = check_equivalence(model)
    assert report.passed
    assert report.direct_transitions == build_lts(model).n_transitions == 1


def test_extend_epsilon_single_state():
    model = parse_model("#! rules\n#! inits\n1 A{x}::c\n")
    report = check_equivalence(model)
    assert report.passed
    assert (report.direct_states, report.direct_transitions) == (1, 1)


def test_extend_epsilon_skips_unsettled(two_site_model):
    # A state that the cap left unexpanded, or whose moves it dropped, gets no ε.
    report = check_equivalence(two_site_model, max_states=3)
    assert report.passed and report.truncated
    assert report.direct_transitions == build_lts(two_site_model, max_states=3).n_transitions == 2


# ---------------------------------------------------------------------------
# Maximal label sequences
# ---------------------------------------------------------------------------

def test_maximal_sequences_two_site(two_site_model):
    graph = build_lts(two_site_model)
    seqs = maximal_label_sequences(graph, 4)
    assert seqs.complete == frozenset(UNREGULATED_SEQUENCES)
    assert seqs.incomplete == frozenset()


def test_maximal_sequences_no_rules():
    model = parse_model("#! rules\n#! inits\n1 A{x}::c\n")
    seqs = maximal_label_sequences(build_lts(model), 4)
    assert seqs.complete == frozenset({()})


def test_maximal_sequences_cycle_marked_incomplete():
    model = parse_model("#! rules\nspin ~ A{x}::c => A{x}::c\n#! inits\n1 A{x}::c\n")
    seqs = maximal_label_sequences(build_lts(model), 3)
    assert seqs.complete == frozenset()
    assert seqs.incomplete == frozenset({("spin",) * 3})


@pytest.mark.parametrize(
    "bounds, incomplete",
    [
        ({"max_depth": 1}, {("r1_S",), ("r1_T",), ("r2",)}),
        ({"max_states": 3}, {(), ("r1_S",), ("r1_T",)}),
    ],
    ids=["depth", "states"],
)
def test_maximal_sequences_unsettled_states_are_incomplete(two_site_model, bounds, incomplete):
    # A run that reaches a state the bound left unexpanded, or whose moves
    # the cap dropped, is cut off; the kept edges out of a cut state are followed.
    seqs = maximal_label_sequences(build_lts(two_site_model, **bounds), 4)
    assert seqs.complete == frozenset()
    assert seqs.incomplete == frozenset(incomplete)


def test_maximal_sequences_deeper_than_recursion_limit():
    cycle = Lts("a", frozenset({"a", "b"}), frozenset({("a", "x", "b"), ("b", "y", "a")}))
    seqs = maximal_label_sequences(cycle, 5000)
    assert seqs.complete == frozenset()
    assert seqs.incomplete == frozenset({("x", "y") * 2500})


# ---------------------------------------------------------------------------
# Unrolled run tree
# ---------------------------------------------------------------------------

def test_unroll_two_site(two_site_model):
    tree = unroll(M0, RuleMatcher(two_site_model).successors, 4)
    assert tree.n_nodes == 10
    assert tree.n_edges == 9
    assert not tree.truncated


def test_unroll_depth_limits_levels():
    model = parse_model("#! rules\nspin ~ A{x}::c => A{x}::c\n#! inits\n1 A{x}::c\n")
    tree = unroll(model.init, RuleMatcher(model).successors, 3)
    assert tree.n_nodes == 4
    assert tree.n_edges == 3
    assert tree.truncated


def test_unroll_omits_epsilon_edges(two_site_model):
    # The grounded successors stutter on ε where nothing fires; the tree
    # of either semantics has the same edges and is not truncated.
    mrs = build_mrs(two_site_model)
    grounded = unroll(mrs.init, partial(successors, mrs), 4)
    assert grounded == unroll(two_site_model.init, RuleMatcher(two_site_model).successors, 4)
    assert all(label != EPSILON_LABEL for _, label, _ in grounded.edges)
    assert not grounded.truncated


def test_unroll_and_tree_exports_text_each_distinct_state_once():
    # A cycle of three states whose successor function returns fresh, equal
    # objects on every call: 31 nodes at depth 4, 3 distinct states.
    reprs = []

    class Node:
        def __init__(self, n):
            self.n = n

        def __eq__(self, other):
            return self.n == other.n

        def __hash__(self):
            return hash(self.n)

        def __repr__(self):
            reprs.append(self.n)
            return f"n{self.n}"

    def cycle(state):
        return [("a", Node((state.n + 2) % 3)), ("a", Node((state.n + 1) % 3))]

    tree = unroll(Node(0), cycle, 4)
    assert (tree.n_nodes, len({id(state) for state in tree.states})) == (31, 3)
    assert sorted(reprs) == [0, 1, 2]
    # Siblings of one label are ordered by their state key.
    assert [state.n for state in tree.states[:3]] == [0, 1, 2]
    for export in (tree_to_dot, tree_to_json_obj, _tree_text):
        named = []
        export(tree, lambda state: named.append(state.n) or f"s{state.n}")
        assert sorted(named) == [0, 1, 2], export
    nodes = tree_to_json_obj(tree, lambda state: f"s{state.n}")["nodes"]
    assert [node["state"] for node in nodes] == [f"s{state.n}" for state in tree.states]


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def test_dot_export_shape(two_site_model):
    graph = build_lts(two_site_model)
    dot = lts_to_dot(graph)
    assert dot.count(" -> ") == 8
    assert dot.count("peripheries=2") == 1
    assert 'label="1 P(S{i},T{i})::cell", peripheries=2' in dot
    assert lts_to_dot(graph) == dot  # deterministic


def test_tree_dot_export(two_site_model):
    tree = unroll(M0, RuleMatcher(two_site_model).successors, 4)
    dot = tree_to_dot(tree)
    assert dot.count(" -> ") == 9
    assert dot.count("peripheries=2") == 1


def test_tree_dot_keeps_the_order_of_the_edges():
    # Edges are written as the tree lists them, not sorted; labels and
    # node texts are quoted.
    tree = RunTree(("a", 'b"', "c"), ((0, "y", 2), (0, "x", 1), (1, "y\\", 2)))
    assert tree_to_dot(tree) == (
        "digraph runs {\n"
        '  n0 [label="a", peripheries=2];\n'
        '  n1 [label="b\\""];\n'
        '  n2 [label="c"];\n'
        '  n0 -> n2 [label="y"];\n'
        '  n0 -> n1 [label="x"];\n'
        '  n1 -> n2 [label="y\\\\"];\n'
        "}\n"
    )
    lone = RunTree(("a",), ())
    assert tree_to_dot(lone) == 'digraph runs {\n  n0 [label="a", peripheries=2];\n}\n'


def test_dot_ties_keep_their_bytes(two_site_model):
    # Graph nodes with equal texts are ordered by state key; tree nodes by index.
    graph = build_lts(two_site_model)
    tree = unroll(M0, RuleMatcher(two_site_model).successors, 4)
    digests = [
        hashlib.sha256(export(walk, lambda state: "x").encode()).hexdigest()
        for export, walk in ((lts_to_dot, graph), (tree_to_dot, tree))
    ]
    assert digests == [
        "0e4610d956f85565bcd7f6f8572db5dba76770b0cb2dd6268a82abce75e9f554",
        "76fd013908c755ce78a1be59fc85082d5f6b8ebf7aa53ba92b4b03b39b8e3ff7",
    ]


# Node texts that tie every state, and texts that tie some of them.
def _constant_text(state):
    return "x"


def _distinct_agents(state):
    return str(len(state.agents()))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model_texts(), st.integers(1, 60), st.integers(0, 12))
def test_dot_matches_its_definition_on_generated_models(text, max_states, max_depth):
    # Small caps truncate the graph; depth 0 leaves the initial state alone.
    graph = build_lts(parse_model(text), max_states, max_depth)
    for args in ((), (_constant_text,), (_distinct_agents,)):
        assert lts_to_dot(graph, *args) == dot_by_definition(graph, *args), text


# Twelve rules move each of three X agents round a cycle of twelve
# features: 364 states and twelve labels, whose text order (r0, r1, r10,
# r11, r2, ...) is not their numeric order.
_FEATURE_CYCLE = (
    "#! rules\n"
    + "".join(f"r{k} ~ X{{f{k}}}::c => X{{f{(k + 1) % 12}}}::c\n" for k in range(12))
    + "#! inits\n3 X{f0}::c\n"
)


@pytest.mark.parametrize(
    "args", [(), (_constant_text,), (_distinct_agents,)], ids=["default", "constant", "distinct"]
)
@pytest.mark.parametrize("max_states, max_depth", [(100_000, 1_000), (200, 1_000), (100_000, 0)])
def test_dot_matches_its_definition(args, max_states, max_depth):
    graph = build_lts(parse_model(_FEATURE_CYCLE), max_states, max_depth)
    labels = {label for _, label, _ in graph.transitions}
    if max_depth:
        assert len(labels) == 12 and graph.n_states >= 100
    else:
        assert (graph.n_states, graph.n_transitions) == (1, 0)
    assert lts_to_dot(graph, *args) == dot_by_definition(graph, *args)


# What ``bcsl lts --format json`` writes for a graph and for a run tree.
def _cli_json(graph, label_fn=str):
    return cli._dump(partial(cli._lts_json, graph, label_fn))


def _cli_tree_json(tree, label_fn=str):
    return cli._dump(partial(cli._tree_json, tree, label_fn))


# State texts that a writer could mistake for structure: quotes,
# backslashes, control characters, non-ASCII, the empty set and ε.
_STATE_TEXT = st.sampled_from(
    ['"', "\\", "\n", "\x00\x1f", "é 𝔸", "∅", "ε", "1 A::c | q0", "", "x"]
) | st.text(max_size=4)
# Arbitrary hashable states; ``str`` gives 1 and "1" the same text.
_STATE = (
    st.integers(-2, 12)
    | st.text(max_size=2)
    | st.tuples(st.integers(0, 2), st.text(max_size=1))
    | st.none()
)


@st.composite
def _walks(draw):
    """A hand-built graph and run tree over the same states, and a node text
    that is ``str`` or drawn per state, so that distinct states may share
    a text."""
    states = draw(st.lists(_STATE, min_size=1, max_size=8, unique=True))
    # Few labels and texts, so that states of one text differ in their labels.
    tied = st.sampled_from(["a", "b", "x"])
    state, label = st.sampled_from(states), tied | _STATE_TEXT
    transitions = draw(st.lists(st.tuples(state, label, state), max_size=16))
    graph = Lts(
        states[0],
        frozenset(states),
        frozenset(transitions),
        frozenset(states[:1] if draw(st.booleans()) else ()),
    )
    nodes = draw(st.lists(state, min_size=1, max_size=10))
    node = st.integers(0, len(nodes) - 1)
    edges = draw(st.lists(st.tuples(node, label, node), max_size=12))
    tree = RunTree(tuple(nodes), tuple(edges), draw(st.booleans()))
    n = len(states)
    texts = draw(
        st.none()
        | st.lists(tied, min_size=n, max_size=n)
        | st.lists(_STATE_TEXT, min_size=n, max_size=n)
    )
    label_fn = str if texts is None else dict(zip(states, texts)).__getitem__
    return graph, tree, label_fn


@settings(deadline=None)
@given(_walks(), st.booleans())
def test_cli_rows_match_the_library_exports(walks, fallback):
    # The CLI writes JSON and text rows from integer edge codes over texts
    # ranked with ties; the library's JSON objects are the reference, also
    # when ``json``'s pure-Python string encoder writes the texts.
    graph, tree, label_fn = walks
    encoder = cli.encode_basestring
    cli.encode_basestring = py_encode_basestring if fallback else encoder
    try:
        for write, reference, walk in (
            (_cli_json, lts_to_json_obj, graph),
            (_cli_tree_json, tree_to_json_obj, tree),
        ):
            expected = json.dumps(
                reference(walk, label_fn), indent=2, sort_keys=True, ensure_ascii=False
            )
            assert write(walk, label_fn) == expected
    finally:
        cli.encode_basestring = encoder
    assert cli._lts_text(graph, label_fn) == text_by_definition(graph, label_fn)
    assert _tree_text(tree, label_fn) == text_by_definition(tree, label_fn)


def test_tied_texts_sort_as_text_rows():
    # Two states of one text: their rows sort by label between them, as
    # ``[source text, label, target text]`` rows do, not by state.
    graph = Lts(0, frozenset({0, 1, 2}), frozenset({(0, "b", 2), (1, "a", 2)}))
    texts = {0: "x", 1: "x", 2: "y"}.__getitem__
    assert cli._lts_text(graph, texts).splitlines()[4:] == ["  x --a--> y", "  x --b--> y"]
    assert _cli_json(graph, texts) == json.dumps(
        lts_to_json_obj(graph, texts), indent=2, sort_keys=True, ensure_ascii=False
    )


@pytest.mark.parametrize("export", [lts_to_dot, lts_to_json_obj, _cli_json, cli._lts_text])
def test_graph_exports_read_each_state_text_once(two_site_model, export):
    graph = build_lts(two_site_model)
    calls = []

    def label_fn(state):
        calls.append(state)
        return str(state)

    export(graph, label_fn)
    assert sorted(map(str, calls)) == sorted(map(str, graph.states))
    assert len(calls) == graph.n_states == 8


def test_json_export_sorted(two_site_model):
    graph = build_lts(two_site_model)
    obj = lts_to_json_obj(graph)
    assert obj["states"] == sorted(obj["states"])
    assert obj["transitions"] == sorted(obj["transitions"])
    assert obj["initial"] == "1 P(S{i},T{i})::cell"
    json.dumps(obj)  # serializable
    tree_obj = tree_to_json_obj(unroll(M0, RuleMatcher(two_site_model).successors, 4))
    assert len(tree_obj["nodes"]) == 10
    assert len(tree_obj["edges"]) == 9


def test_map_states_projects(two_site_model):
    graph = build_lts(two_site_model)
    tagged = map_states(graph, lambda s: (s, None))
    assert map_states(tagged, lambda node: node[0]) == graph
