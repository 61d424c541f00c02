import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

import bcsl.mrs
from bcsl import (
    EPSILON_LABEL,
    MrsRule,
    Multiset,
    Pattern,
    apply_rule,
    build_mrs,
    check_equivalence,
    enabled,
    explore,
    ground_pattern,
    parse_agent,
    parse_model,
    parse_multiset,
    sample_run,
    successors,
)
from bcsl.cli import main
from conftest import REGULATION_CONFIGS, TWO_SITE_MODEL, UNREGULATED_SEQUENCES, bench_module
from corpus import random_model_text

# The grounding of the two-site model, frozen as (label, pre, post) texts.
EXPECTED_ELEMENTS = {
    "P(S{i},T{i})::cell",
    "P(S{a},T{i})::cell",
    "P(S{i},T{a})::cell",
    "P(S{a},T{a})::cell",
    "P(S{i},T{i})::out",
    "P(S{a},T{i})::out",
    "P(S{i},T{a})::out",
    "P(S{a},T{a})::out",
}

EXPECTED_RULES = {
    ("r1_S", "1 P(S{i},T{i})::cell", "1 P(S{a},T{i})::cell"),
    ("r1_S", "1 P(S{i},T{a})::cell", "1 P(S{a},T{a})::cell"),
    ("r1_T", "1 P(S{i},T{i})::cell", "1 P(S{i},T{a})::cell"),
    ("r1_T", "1 P(S{a},T{i})::cell", "1 P(S{a},T{a})::cell"),
    ("r2", "1 P(S{i},T{i})::cell", "1 P(S{i},T{i})::out"),
    ("r2", "1 P(S{a},T{i})::cell", "1 P(S{a},T{i})::out"),
    ("r2", "1 P(S{i},T{a})::cell", "1 P(S{i},T{a})::out"),
    ("r2", "1 P(S{a},T{a})::cell", "1 P(S{a},T{a})::out"),
}


def rule(label: str, pre: str, post: str) -> MrsRule:
    return MrsRule(label, parse_multiset(pre), parse_multiset(post))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_build_mrs_two_site(two_site_model):
    mrs = build_mrs(two_site_model)
    assert {str(a) for a in mrs.elements} == EXPECTED_ELEMENTS
    assert {(r.label, str(r.pre), str(r.post)) for r in mrs.rules} == EXPECTED_RULES
    assert mrs.init == two_site_model.init


def test_build_mrs_no_rules():
    mrs = build_mrs(parse_model("#! rules\n#! inits\n1 A{x}::c\n"))
    assert {str(a) for a in mrs.elements} == {"A{x}::c"}
    assert mrs.rules == ()
    assert str(mrs.init) == "1 A{x}::c"


def test_build_mrs_single_grounded_rule():
    mrs = build_mrs(parse_model("#! rules\nr ~ A{x}::c => B{y}::c\n#! inits\n1 A{x}::c\n"))
    assert {str(a) for a in mrs.elements} == {"A{x}::c", "B{y}::c"}
    assert [(r.label, str(r.pre), str(r.post)) for r in mrs.rules] == [
        ("r", "1 A{x}::c", "1 B{y}::c")
    ]


def test_rule_agents_within_elements(two_site_model):
    mrs = build_mrs(two_site_model)
    for r in mrs.rules:
        for agent in (*r.pre.agents(), *r.post.agents()):
            assert agent in mrs.elements


def test_duplicate_groundings_collapse():
    # both ε choices resolve to the same grounded rule when only one feature exists
    mrs = build_mrs(parse_model("#! rules\nr ~ X()::c => X()::d\n#! inits\n1 X(A{u})::c\n"))
    assert len(mrs.rules) == 1


# ---------------------------------------------------------------------------
# Enabledness and application
# ---------------------------------------------------------------------------

M0 = parse_multiset("1 P(S{i},T{i})::cell")


def test_enabled_at_initial_state():
    mu = rule("r1_S", "1 P(S{i},T{i})::cell", "1 P(S{a},T{i})::cell")
    assert enabled(mu, M0)


def test_enabled_reflexive_on_own_pre():
    mu = rule("r2", "1 P(S{a},T{a})::cell", "1 P(S{a},T{a})::out")
    assert enabled(mu, mu.pre)


def test_not_enabled_when_pre_missing():
    mu = rule("r2", "1 P(S{a},T{a})::cell", "1 P(S{a},T{a})::out")
    assert not enabled(mu, M0)


def test_apply_rewrites_state():
    mu = rule("r1_S", "1 P(S{i},T{i})::cell", "1 P(S{a},T{i})::cell")
    assert apply_rule(mu, M0) == parse_multiset("1 P(S{a},T{i})::cell")


def test_apply_epsilon_is_identity():
    eps = MrsRule(EPSILON_LABEL, Multiset.empty(), Multiset.empty())
    assert apply_rule(eps, M0) == M0


def test_apply_respects_multiplicities():
    mu = rule("r2", "1 P(S{i},T{i})::cell", "1 P(S{i},T{i})::out")
    doubled = parse_multiset("2 P(S{i},T{i})::cell")
    assert apply_rule(mu, doubled) == parse_multiset(
        "1 P(S{i},T{i})::cell + 1 P(S{i},T{i})::out"
    )


def test_apply_requires_enabled():
    mu = rule("r2", "1 P(S{a},T{a})::cell", "1 P(S{a},T{a})::out")
    with pytest.raises(ValueError, match="not enabled"):
        apply_rule(mu, M0)


def test_apply_never_goes_negative(two_site_model):
    mrs = build_mrs(two_site_model)
    for mu in mrs.rules:
        if enabled(mu, M0):
            result = apply_rule(mu, M0)
            for agent in mrs.elements:
                expected = M0.count(agent) - mu.pre.count(agent) + mu.post.count(agent)
                assert expected >= 0
                assert result.count(agent) == expected


# ---------------------------------------------------------------------------
# Successors
# ---------------------------------------------------------------------------

def test_three_successors_at_initial_state(two_site_model):
    mrs = build_mrs(two_site_model)
    succ = successors(mrs, M0)
    assert {label for label, _ in succ} == {"r1_S", "r1_T", "r2"}
    assert len(succ) == 3


def test_epsilon_when_deadlocked(two_site_model):
    mrs = build_mrs(two_site_model)
    out_state = parse_multiset("1 P(S{a},T{a})::out")
    assert successors(mrs, out_state) == frozenset({(EPSILON_LABEL, out_state)})


def test_empty_pre_rule_beats_epsilon():
    mrs = build_mrs(parse_model("#! rules\nmk ~ => A{u}::c\n#! inits\n1 A{u}::c\n"))
    succ = successors(mrs, Multiset.empty())
    assert {label for label, _ in succ} == {"mk"}


def test_epsilon_exclusive_on_reachable_states(two_site_model):
    mrs = build_mrs(two_site_model)
    frontier = [mrs.init]
    seen = {mrs.init}
    while frontier:
        state = frontier.pop()
        succ = successors(mrs, state)
        any_enabled = any(enabled(mu, state) for mu in mrs.rules)
        assert (EPSILON_LABEL in {l for l, _ in succ}) == (not any_enabled)
        for _, target in succ:
            if target not in seen:
                seen.add(target)
                frontier.append(target)


def test_epsilon_label_reserved():
    model = parse_model("#! rules\nr ~ A{x}::c => A{y}::c\n#! inits\n1 A{x}::c\n")
    hacked = model.rules[0].__class__("ε", model.rules[0].lhs, model.rules[0].rhs)
    model.rules = (hacked,)
    with pytest.raises(ValueError, match="reserved"):
        build_mrs(model)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _grounded(mrs):
    """The grounded system's successor function."""
    return lambda state: successors(mrs, state)


def test_zero_steps(two_site_model):
    mrs = build_mrs(two_site_model)
    run = sample_run(mrs.init, _grounded(mrs), 0, seed=5)
    assert run.states == (mrs.init,)
    assert run.labels == ()


def test_sample_run_reproducible(two_site_model):
    mrs = build_mrs(two_site_model)
    assert sample_run(mrs.init, _grounded(mrs), 10, seed=42) == sample_run(
        mrs.init, _grounded(mrs), 10, seed=42
    )


def test_sampled_labels_are_maximal_sequences(two_site_model):
    mrs = build_mrs(two_site_model)
    for seed in range(20):
        run = sample_run(mrs.init, _grounded(mrs), 3, seed=seed)
        stripped = tuple(l for l in run.labels if l != EPSILON_LABEL)
        assert stripped in UNREGULATED_SEQUENCES
        # ε only ever trails
        if EPSILON_LABEL in run.labels:
            first = run.labels.index(EPSILON_LABEL)
            assert all(l == EPSILON_LABEL for l in run.labels[first:])


def test_run_states_follow_applications(two_site_model):
    mrs = build_mrs(two_site_model)
    by_key = {(r.label, r.pre): r for r in mrs.rules}
    run = sample_run(mrs.init, _grounded(mrs), 4, seed=3)
    for i, label in enumerate(run.labels):
        if label == EPSILON_LABEL:
            assert run.states[i + 1] == run.states[i]
        else:
            candidates = [r for r in mrs.rules if r.label == label and enabled(r, run.states[i])]
            assert any(apply_rule(r, run.states[i]) == run.states[i + 1] for r in candidates)


def test_negative_steps_rejected(two_site_model):
    mrs = build_mrs(two_site_model)
    with pytest.raises(ValueError):
        sample_run(mrs.init, _grounded(mrs), -1)


# ---------------------------------------------------------------------------
# Rule index: indexed successors against the plain scan
# ---------------------------------------------------------------------------

_models = bench_module("models")
BOUNDS = {"max_states": 300, "max_depth": 25}

# Hand models for the corners of the index: a rule with an empty pre, a pre
# needing two copies of its key agent, and rules sharing one key agent.
HAND_MODELS = {
    "empty-pre": "#! rules\nmk ~ => A{u}::c\nrm ~ A{u}::c => B{v}::c\n#! inits\n1 A{u}::c\n",
    "two-copies": "#! rules\npair ~ A{u}::c + A{u}::c => B{v}::c\n#! inits\n3 A{u}::c\n",
    "shared-key": (
        "#! rules\n"
        "r1 ~ A{u}::c + B{v}::c => C{w}::c\n"
        "r2 ~ A{u}::c => B{v}::c\n"
        "#! inits\n"
        "2 A{u}::c\n"
    ),
}

# Grounded agents that no rule of any model here mentions.
STRAY_AGENTS = [parse_agent("A{w}::e"), parse_agent("P(S{i},T{i})::nowhere")]


def plain_successors(mrs, state):
    """``successors`` by its definition: every rule tested at every state."""
    out = {(r.label, apply_rule(r, state)) for r in mrs.rules if enabled(r, state)}
    return frozenset(out) if out else frozenset({(EPSILON_LABEL, state)})


def reached_states(mrs, max_states=100_000, max_depth=1_000):
    """States reachable under the plain scan, within the bounds."""
    graph = explore(mrs.init, lambda s: plain_successors(mrs, s), max_states, max_depth)
    return graph.states


def assert_index_agrees(mrs, states, context):
    for state in states:
        assert successors(mrs, state) == plain_successors(mrs, state), (context, str(state))


def test_indexed_successors_on_corpus_states():
    for k, text in enumerate(_models.corpus_models(200)):
        mrs = build_mrs(parse_model(text))
        assert_index_agrees(mrs, reached_states(mrs, **BOUNDS), k)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2)])
def test_indexed_successors_on_site_model_states(shape):
    mrs = build_mrs(parse_model(_models.site_model(*shape)))
    states = reached_states(mrs)
    assert len(states) >= 36
    assert_index_agrees(mrs, states, shape)


@pytest.mark.parametrize("name", sorted(HAND_MODELS))
def test_indexed_successors_on_hand_models(name):
    mrs = build_mrs(parse_model(HAND_MODELS[name]))
    states = {*reached_states(mrs, **BOUNDS), Multiset.empty()}
    a, b = parse_agent("A{u}::c"), parse_agent("B{v}::c")
    states |= {Multiset({a: n, b: m}) for n in range(4) for m in range(3)}
    assert_index_agrees(mrs, states, name)


def test_empty_pre_rule_fires_everywhere():
    mrs = build_mrs(parse_model(HAND_MODELS["empty-pre"]))
    made = parse_multiset("1 A{u}::c")
    assert successors(mrs, Multiset.empty()) == {("mk", made)}
    assert {label for label, _ in successors(mrs, parse_multiset("1 B{v}::c"))} == {"mk"}
    assert {label for label, _ in successors(mrs, made)} == {"mk", "rm"}


def test_pre_needing_two_copies_of_its_key_agent():
    mrs = build_mrs(parse_model(HAND_MODELS["two-copies"]))
    one = parse_multiset("1 A{u}::c")
    assert successors(mrs, one) == {(EPSILON_LABEL, one)}
    assert successors(mrs, parse_multiset("2 A{u}::c")) == {("pair", parse_multiset("1 B{v}::c"))}
    assert successors(mrs, parse_multiset("3 A{u}::c")) == {
        ("pair", parse_multiset("1 A{u}::c + 1 B{v}::c"))
    }


def test_rules_sharing_a_key_agent_both_fire():
    mrs = build_mrs(parse_model(HAND_MODELS["shared-key"]))
    keyed, unconditional = mrs.rule_index
    assert unconditional == () and len(keyed) == 1  # both rules sit under A{u}::c
    state = parse_multiset("1 A{u}::c + 1 B{v}::c")
    assert successors(mrs, state) == {
        ("r1", parse_multiset("1 C{w}::c")),
        ("r2", parse_multiset("2 B{v}::c")),
    }
    only_b = parse_multiset("2 B{v}::c")
    assert successors(mrs, only_b) == {(EPSILON_LABEL, only_b)}


def test_replaced_rules_are_indexed_afresh(two_site_model):
    mrs = build_mrs(two_site_model)
    states = reached_states(mrs)
    assert_index_agrees(mrs, states, "full")  # the full system has its index now
    for i in range(len(mrs.rules)):
        dropped = dataclasses.replace(mrs, rules=mrs.rules[:i] + mrs.rules[i + 1 :])
        assert_index_agrees(dropped, states, ("dropped", i))
    bogus = rule("bogus", "1 P(S{a},T{a})::out", "1 P(S{i},T{i})::cell")
    spurious = dataclasses.replace(mrs, rules=mrs.rules + (bogus,))
    assert_index_agrees(spurious, states, "spurious")
    assert ("bogus", M0) in successors(spurious, parse_multiset("1 P(S{a},T{a})::out"))


PROPERTY_SYSTEMS = [
    build_mrs(parse_model(text))
    for text in (
        TWO_SITE_MODEL,
        *HAND_MODELS.values(),
        _models.site_model(2, 2, 2),
        *_models.corpus_models(12),
    )
]


@st.composite
def systems_and_states(draw):
    mrs = draw(st.sampled_from(PROPERTY_SYSTEMS))
    pool = sorted(mrs.elements, key=str) + STRAY_AGENTS
    counts = draw(st.lists(st.integers(0, 3), min_size=len(pool), max_size=len(pool)))
    return mrs, Multiset(dict(zip(pool, counts)))


@settings(max_examples=300, deadline=None)
@given(systems_and_states())
def test_indexed_successors_on_random_states(case):
    mrs, state = case
    assert successors(mrs, state) == plain_successors(mrs, state)


# ---------------------------------------------------------------------------
# The element universe
# ---------------------------------------------------------------------------

def universe_by_definition(model):
    """The init agents plus every grounding of every agent of every rule."""
    elements = set(model.init.agents())
    for r in model.rules:
        for pattern in (r.lhs, r.rhs):
            for agent in pattern.agents:
                for ms in ground_pattern(
                    Pattern((agent,)), model.structure_signature, model.atomic_signature
                ):
                    elements.update(ms.agents())
    return frozenset(elements)


# Hand models for the element universe: an empty left-hand side whose
# right-hand side has ε atomics with no left-hand counterpart (``mk``,
# ``grow``), an empty right-hand side (``drop``), compositions that omit
# atomics, and an init agent (``Q{z}::d``) that no rule mentions.
UNIVERSE_EDGE_MODELS = (
    "#! rules\n"
    "mk ~ => P(S{a})::c\n"
    "drop ~ P(T{a})::c =>\n"
    "grow ~ A{u}::c => A{u}::c + P()::c\n"
    "flip ~ P(S{i})::c => P(S{a})::c\n"
    "#! inits\n"
    "1 P(S{i},T{i})::c\n"
    "1 A{u}::c\n"
    "1 Q{z}::d\n",
    "#! rules\n"
    "bind ~ A{u}::c + X(B{v})::c => A{v}.X()::c\n"
    "free ~ A{v}.X(B{u})::c =>\n"
    "#! inits\n"
    "2 X(B{u},C{w})::c\n",
)


def test_elements_equal_their_definition():
    texts = (
        TWO_SITE_MODEL,
        *UNIVERSE_EDGE_MODELS,
        *_models.corpus_models(200),
        *(random_model_text(seed) for seed in range(100)),
    )
    for text in texts:
        model = parse_model(text)
        assert build_mrs(model).elements == universe_by_definition(model), text


def test_elements_are_computed_once():
    mrs = build_mrs(parse_model(TWO_SITE_MODEL))
    assert mrs.elements is mrs.elements
    assert dataclasses.replace(mrs, rules=()).elements == frozenset(mrs.init.agents())


def test_check_simulate_and_concurrent_free_never_ground_the_universe(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("the element universe was grounded")

    monkeypatch.setattr(bcsl.mrs.Mrs, "elements", property(refuse))
    for text in (TWO_SITE_MODEL, *_models.corpus_models(20)):
        report = check_equivalence(parse_model(text), **BOUNDS)
        assert report.passed, text
    path = tmp_path / "model.bcsl"
    path.write_text(TWO_SITE_MODEL, encoding="utf-8")
    regulation = tmp_path / "concurrent-free.json"
    regulation.write_text(json.dumps(REGULATION_CONFIGS["concurrent-free"]), encoding="utf-8")
    out = str(tmp_path / "out")
    assert main(["check", str(path), "-o", out]) == 0
    assert main(["simulate", str(path), "--steps", "6", "-o", out]) == 0
    assert main(["simulate", str(path), "--regulation", str(regulation), "-o", out]) == 0
    assert main(["lts", str(path), "--regulation", str(regulation), "-o", out]) == 0
    with pytest.raises(AssertionError, match="grounded"):
        build_mrs(parse_model(TWO_SITE_MODEL)).elements
