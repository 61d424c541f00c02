import functools
import hashlib
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import bcsl.regulation
from bcsl import (
    EPSILON_LABEL,
    LabelSequences,
    Multiset,
    RegulationError,
    RegulationWarning,
    RuleMatcher,
    build_lts,
    build_mrs,
    compile_label_regex,
    compile_regulation,
    concurrency_relation,
    direct_walk,
    explore,
    guarded,
    make_guard,
    maximal_label_sequences,
    parse_model,
    parse_multiset,
    sample_run,
    successors,
    unroll,
)
from bcsl.syntax import BcslModel, BcslRule
from bcsl.terms import EPSILON, Agent, Atomic, Pattern, Structure
from conftest import (
    EXPECTED_REGULATED_SEQUENCES,
    EXPECTED_TREE_EDGES,
    REGULATION_CONFIGS,
    TWO_SITE_MODEL,
    UNREGULATED_SEQUENCES,
    bench_module,
)
from corpus import random_model_text
from oracles import (
    grounded_concurrency,
    map_states,
    transitive_closure,
)

LABELS = ("r1_S", "r1_T", "r2")


# ---------------------------------------------------------------------------
# Regex compilation
# ---------------------------------------------------------------------------

def test_dfa_for_example_expression():
    dfa = compile_label_regex("r1_S.r1_T.r2|r1_T.r1_S", LABELS)
    assert len(dfa.live) == 5
    assert dfa.accepts(("r1_S", "r1_T", "r2"))
    assert dfa.accepts(("r1_T", "r1_S"))
    assert not dfa.accepts(("r1_T",))
    assert not dfa.accepts(("r1_S", "r1_T"))
    assert not dfa.accepts(("r1_T", "r1_S", "r2"))


def test_dfa_star_and_parentheses():
    dfa = compile_label_regex("(r1_S.r1_T)*.r2", LABELS)
    assert dfa.accepts(("r2",))
    assert dfa.accepts(("r1_S", "r1_T", "r2"))
    assert dfa.accepts(("r1_S", "r1_T", "r1_S", "r1_T", "r2"))
    assert not dfa.accepts(("r1_S", "r2"))


def test_regex_errors():
    with pytest.raises(RegulationError, match="unknown rule label"):
        compile_label_regex("r1_S.nope", LABELS)
    with pytest.raises(RegulationError, match="found end of expression$"):
        compile_label_regex("r1_S.", LABELS)
    with pytest.raises(RegulationError, match="found '\\|'$"):
        compile_label_regex("r1_S.|r2", LABELS)
    with pytest.raises(RegulationError, match="missing"):
        compile_label_regex("(r1_S", LABELS)
    with pytest.raises(RegulationError, match="empty"):
        compile_label_regex("   ", LABELS)
    with pytest.raises(RegulationError, match="unexpected character"):
        compile_label_regex("r1_S+r2", LABELS)
    # Syntax errors come before the unknown-label check.
    with pytest.raises(RegulationError, match="expected a rule label"):
        compile_label_regex("nope.", LABELS)
    with pytest.raises(RegulationError, match="missing"):
        compile_label_regex("(nope", LABELS)
    with pytest.raises(RegulationError, match="unexpected character"):
        compile_label_regex("nope.$", LABELS)
    # (a|b)*.a.(a|b)^n needs 2^(n+1) subset states.
    with pytest.raises(RegulationError, match="automaton states"):
        compile_label_regex("(a|b)*.a" + ".(a|b)" * 16, ("a", "b"))


@pytest.mark.parametrize(
    "deep, shallow",
    [("(" * 3000 + "r1_S" + ")" * 3000, "r1_S"), ("r1_S" + "*" * 3000, "r1_S*")],
    ids=["parenthesised", "starred"],
)
def test_deep_expressions_compile_without_recursion(deep, shallow):
    dfa = compile_label_regex(deep, LABELS)
    expected = compile_label_regex(shallow, LABELS)
    assert len(dfa.live) == len(expected.live)
    for n in range(5):
        for word in itertools.product(LABELS, repeat=n):
            assert dfa.accepts(word) == expected.accepts(word), word


def test_nested_expression_keeps_its_structure():
    # (r1_S.(r1_T|r2)*)* . r2: groups, precedence and postfix stars at depth.
    dfa = compile_label_regex("(r1_S.(r1_T|r2)*)*.r2", LABELS)
    assert dfa.accepts(("r2",))
    assert dfa.accepts(("r1_S", "r2"))
    assert dfa.accepts(("r1_S", "r1_T", "r2", "r1_S", "r2"))
    assert not dfa.accepts(("r1_T", "r2"))
    assert not dfa.accepts(("r1_S",))
    with pytest.raises(RegulationError, match="unexpected '\\)'"):
        compile_label_regex("r1_S)", LABELS)
    with pytest.raises(RegulationError, match="missing"):
        compile_label_regex("(r1_S r2)", LABELS)


# Expression trees over LABELS, at most four operators deep:
# ("sym", label) | ("cat", parts) | ("alt", parts) | ("star", part).
_EXPRESSIONS = st.sampled_from(LABELS).map(lambda label: ("sym", label))
for _ in range(4):
    _EXPRESSIONS = st.one_of(
        st.sampled_from(LABELS).map(lambda label: ("sym", label)),
        st.tuples(st.sampled_from(("cat", "alt")), st.lists(_EXPRESSIONS, min_size=2, max_size=3)),
        st.tuples(st.just("star"), _EXPRESSIONS),
    )

_PRECEDENCE = {"alt": 0, "cat": 1, "star": 2, "sym": 3}


def _label_text(tree, loosest=0) -> str:
    """``tree`` as a label expression, parenthesised only where precedence needs it."""
    kind, body = tree
    if kind == "sym":
        return body
    if kind == "star":
        text = _label_text(body, _PRECEDENCE["star"]) + "*"
    else:
        operator = "." if kind == "cat" else "|"
        text = operator.join(_label_text(part, _PRECEDENCE[kind]) for part in body)
    return f"({text})" if _PRECEDENCE[kind] < loosest else text


def _python_re(tree) -> str:
    """``tree`` in Python ``re`` syntax, each label one character."""
    kind, body = tree
    if kind == "sym":
        return "abc"[LABELS.index(body)]
    if kind == "star":
        return f"(?:{_python_re(body)})*"
    return "(?:" + ("" if kind == "cat" else "|").join(map(_python_re, body)) + ")"


@given(_EXPRESSIONS)
@settings(deadline=None)
def test_compiled_expressions_agree_with_python_re(tree):
    dfa = compile_label_regex(_label_text(tree), LABELS)
    pattern = re.compile(_python_re(tree))
    for n in range(5):
        for word in itertools.product(LABELS, repeat=n):
            text = "".join("abc"[LABELS.index(label)] for label in word)
            assert dfa.accepts(word) == bool(pattern.fullmatch(text)), (_label_text(tree), word)
    # No dead state: every state reaches an accepting one, and is live.
    states = {dfa.start, *(s for s, _ in dfa.transitions), *dfa.transitions.values()}
    reaching = set(dfa.accepting)
    while more := {s for (s, _), t in dfa.transitions.items() if t in reaching} - reaching:
        reaching |= more
    assert reaching == states == dfa.live, _label_text(tree)


def _regular_cases():
    """Every regular expression of the tests and the benchmark, once, with its labels."""
    cases = {
        expression: LABELS
        for expression in (
            REGULATION_CONFIGS["regular"]["expression"],
            "(r1_S.r1_T)*.r2",
            "(r1_S.(r1_T|r2)*)*.r2",
            "r1_S*",
            "r2|r1_T.r2",
            "r1_S.r1_T|r1_T",
            *ORACLE_CASES["two-site"][1],
        )
    }
    for n, k in [(2, 2), (3, 2), (4, 2), (4, 3), (6, 2)]:
        cases[_models.regulation_configs(n, k)["regular"]["expression"]] = _models.site_labels(n, k)
    for expression in ORACLE_CASES["sites-2x2x2"][1]:
        cases.setdefault(expression, _models.site_labels(2, 2))
    return list(cases.items())


# (a|b)*.a followed by n × .(a|b): its subset construction needs 2^(n+1) states.
BLOW_UP_FAMILY = [("(a|b)*.a" + ".(a|b)" * n, ("a", "b")) for n in range(9)]

# sha256 prefixes of ``_dfa_digest`` for ``_regular_cases()`` and then
# ``BLOW_UP_FAMILY``, in order, recorded when each subset's ε-closure was
# still walked from scratch.
PINNED_DFAS = (
    "5186f939e51e6258", "71b1a53a5674d4ed", "951b948d176ea206", "0a2e4d59be97e3bc",
    "035ae8e1312596f2", "efd2980ec58a5757", "65ce977ac01e4fe1", "add50f0e740b7b20",
    "717dab0eece9de59", "94a6eb18fe288a1f", "6106dad126322571", "32e0b8f33d2c656b",
    "c3f0139069c23ca7", "52a8f196dae9807e", "0e61b9ca3f71ef93",
    "246813c134ddff3a", "1d5a5bb518147f6a", "d1e663d63ae71c5f", "4c1c87a64dd88eb2",
    "a552e33678580708", "cda1115b5fa6e938", "85a071071104c452", "ad0ca8dce2a35a32",
    "c0506978b7f0ab61",
)


def _dfa_digest(dfa):
    fields = (dfa.start, sorted(dfa.accepting), sorted(dfa.transitions.items()), sorted(dfa.live))
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def _random_expression(rng, depth):
    """A seeded expression over ``a`` to ``d``, heavy in nullable shapes."""
    if depth == 0:
        return rng.choice("abcd") + "*" * rng.choice((0, 0, 1, 2))
    x, y, z = (_random_expression(rng, depth - 1) for _ in range(3))
    return rng.choice(
        (
            f"({x}*.{y}*)*",  # a starred sequence of stars
            f"({x}|{y}*)*.{z}",  # a starred choice with a nullable branch
            f"({x})**",  # a star of a star
            f"({x}.{y})*",
            f"{x}|{y}.{z}",  # precedence without parentheses
            f"({x}|{y}).{z}*",
            f"({x}.{y}|{z})",
        )
    )


def test_regular_expressions_keep_their_automata():
    digests = [
        _dfa_digest(compile_label_regex(expression, labels))
        for expression, labels in _regular_cases() + BLOW_UP_FAMILY
    ]
    assert tuple(digests) == PINNED_DFAS
    assert [len(compile_label_regex(*case).live) for case in BLOW_UP_FAMILY] == [
        2 ** (n + 1) for n in range(9)
    ]
    # 600 seeded random expressions, one digest over all their automata,
    # recorded when the automata still came from a Thompson ε-automaton.
    rng = random.Random(25)
    drawn = hashlib.sha256()
    for _ in range(600):
        expression = _random_expression(rng, rng.randint(1, 3))
        drawn.update(_dfa_digest(compile_label_regex(expression, "abcd")).encode())
    assert drawn.hexdigest()[:16] == "cb6ae3c69a0624d6"


def test_every_regular_config_stays_far_below_the_state_bound(monkeypatch):
    # Every regular config of the tests and the benchmark needs fewer than
    # 32 subset states.
    monkeypatch.setattr(bcsl.regulation, "MAX_DFA_STATES", 32)
    for expression, labels in _regular_cases():
        compile_label_regex(expression, labels)


def test_a_long_label_chain_compiles_fast():
    # A chain of n labels needs n + 1 states, all distinct.  Moore-style
    # rounds split one block per round on it, quadratic in n: about 25 s.
    start = time.perf_counter()
    dfa = compile_label_regex(".".join(["r1_S"] * 4000), LABELS)
    assert time.perf_counter() - start < 2.0
    assert len(dfa.live) == 4001
    assert dfa.accepts(["r1_S"] * 4000) and not dfa.accepts(["r1_S"] * 3999)


# ---------------------------------------------------------------------------
# Config compilation
# ---------------------------------------------------------------------------

def test_compile_rejects_unknown_labels():
    bad = [
        {"type": "regular", "expression": "zap"},
        {"type": "ordered", "pairs": [["zap", "r2"]]},
        {"type": "programmed", "successors": {"zap": []}},
        {"type": "conditional", "prohibited": {"zap": []}},
        {"type": "concurrent-free", "priority": [["zap", "r2"]]},
    ]
    for config in bad:
        with pytest.raises(RegulationError, match="unknown rule label"):
            compile_regulation(config, LABELS)


def test_compile_rejects_cyclic_order():
    with pytest.raises(RegulationError, match="not a strict partial order"):
        compile_regulation(
            {"type": "ordered", "pairs": [["r1_S", "r2"], ["r2", "r1_S"]]}, LABELS
        )


def test_compile_rejects_unknown_type():
    with pytest.raises(RegulationError, match="unknown regulation type"):
        compile_regulation({"type": "stochastic"}, LABELS)
    with pytest.raises(RegulationError, match="'type'"):
        compile_regulation({}, LABELS)


def test_compile_rejects_bad_prohibited_context():
    with pytest.raises(RegulationError, match="invalid prohibited context"):
        compile_regulation(
            {"type": "conditional", "prohibited": {"r2": ["P(S{a}"]}}, LABELS
        )


def test_compile_rejects_self_priority():
    with pytest.raises(RegulationError, match="distinct"):
        compile_regulation({"type": "concurrent-free", "priority": [["r2", "r2"]]}, LABELS)


def test_programmed_fills_missing_entries_with_warning():
    with pytest.warns(RegulationWarning, match="defaulting to all rules"):
        reg = compile_regulation(
            {"type": "programmed", "successors": {"r1_S": ["r2"]}}, LABELS
        )
    assert reg.moves["r1_T"].keys() == frozenset(LABELS)
    assert reg.moves["r2"].keys() == frozenset(LABELS)


def test_ordered_closure_is_transitive():
    reg = compile_regulation(
        {"type": "ordered", "pairs": [["r1_S", "r1_T"], ["r1_T", "r2"]]}, LABELS
    )
    assert "r2" not in reg.moves["r1_S"]


# At most six labels, and any pairs over them: self-pairs and cycles too.
_label_pair_sets = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just([f"r{i}" for i in range(n)]),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))).map(
            lambda pairs: sorted((f"r{a}", f"r{b}") for a, b in pairs)
        ),
    )
)


@given(case=_label_pair_sets)
def test_ordered_compiles_as_the_fix_point_closure_does(case):
    labels, pairs = case
    order = transitive_closure(frozenset(pairs))
    cyclic = sorted({a for a, b in order if a == b})
    config = {"type": "ordered", "pairs": [list(pair) for pair in pairs]}
    if cyclic:
        expected = f"'pairs' is not a strict partial order (cycle through {', '.join(cyclic)})"
        with pytest.raises(RegulationError) as caught:
            compile_regulation(config, labels)
        assert str(caught.value) == expected
        return
    regulation = compile_regulation(config, labels)
    expected_moves = {None: {label: label for label in labels}}
    for a in labels:
        expected_moves[a] = {b: b for b in labels if (a, b) not in order}
    assert regulation.moves == expected_moves


def test_a_long_ordered_chain_compiles_fast():
    labels = [f"r{i}" for i in range(200)]
    config = {"type": "ordered", "pairs": [[a, b] for a, b in zip(labels, labels[1:])]}
    start = time.perf_counter()
    regulation = compile_regulation(config, labels)
    assert time.perf_counter() - start < 1.0
    assert regulation.moves["r0"] == {"r0": "r0"}
    assert regulation.moves["r199"].keys() == set(labels)


# Labels of corpus models, and pairs drawn along a ranking of them, so that
# every drawn set of pairs generates a strict partial order.
CORPUS_LABELS = sorted(
    {label for seed in range(20) for label in parse_model(random_model_text(seed)).labels}
)


@st.composite
def strict_orders(draw, labels, max_size=8):
    ranking = draw(st.permutations(sorted(labels)))
    ranked = list(itertools.combinations(ranking, 2))
    return draw(st.lists(st.sampled_from(ranked), max_size=max_size, unique=True))


@settings(max_examples=60, deadline=None)
@given(pairs=strict_orders(CORPUS_LABELS))
def test_compiled_ordered_equals_its_definition(pairs):
    regulation = compile_regulation({"type": "ordered", "pairs": pairs}, CORPUS_LABELS)
    closure = transitive_closure(pairs)
    for memory in [None, *CORPUS_LABELS]:
        for candidate in CORPUS_LABELS:
            expected = memory is None or (memory, candidate) not in closure
            got = regulation.permits(memory, None, candidate, frozenset(), frozenset())
            assert got == expected, (memory, candidate)
    assert regulation.describe_memory(None) == "start"
    assert regulation.describe_memory(CORPUS_LABELS[0]) == f"after {CORPUS_LABELS[0]}"


# ---------------------------------------------------------------------------
# permits / advance on the worked examples
# ---------------------------------------------------------------------------

ENABLED_ALL = frozenset(LABELS)


def _guard(name, model):
    return make_guard(compile_regulation(REGULATION_CONFIGS[name], model.labels), model)


def test_regular_permits_depends_on_history(two_site_model):
    guard = _guard("regular", two_site_model)
    memory = guard.initial_memory()
    after_s_t = guard.advance(guard.advance(memory, "r1_S"), "r1_T")
    assert guard.permits(after_s_t, None, "r2", ENABLED_ALL)
    after_t_s = guard.advance(guard.advance(memory, "r1_T"), "r1_S")
    assert not guard.permits(after_t_s, None, "r2", ENABLED_ALL)


def test_ordered_permits(two_site_model):
    guard = _guard("ordered", two_site_model)
    memory = guard.initial_memory()
    assert guard.permits(memory, None, "r2", ENABLED_ALL)  # first step
    after_s = guard.advance(memory, "r1_S")
    assert not guard.permits(after_s, None, "r2", ENABLED_ALL)
    assert guard.permits(after_s, None, "r1_T", ENABLED_ALL)


def test_programmed_permits(two_site_model):
    guard = _guard("programmed", two_site_model)
    memory = guard.initial_memory()
    after_t = guard.advance(memory, "r1_T")
    assert not guard.permits(after_t, None, "r2", ENABLED_ALL)
    after_s = guard.advance(memory, "r1_S")
    assert guard.permits(after_s, None, "r2", ENABLED_ALL)


def test_conditional_permits(two_site_model):
    guard = _guard("conditional", two_site_model)
    memory = guard.initial_memory()
    blocked_state = parse_multiset("1 P(S{a},T{i})::cell")
    free_state = parse_multiset("1 P(S{i},T{a})::cell")
    assert not guard.permits(memory, blocked_state, "r2", frozenset({"r2"}))
    assert guard.permits(memory, free_state, "r2", frozenset({"r2"}))


def test_concurrent_free_permits(two_site_model):
    guard = _guard("concurrent-free", two_site_model)
    memory = guard.initial_memory()
    assert not guard.permits(memory, None, "r2", ENABLED_ALL)
    assert guard.permits(memory, None, "r2", frozenset({"r2"}))
    assert guard.permits(memory, None, "r1_S", ENABLED_ALL)


def test_advance_memoryless_and_epsilon(two_site_model):
    conditional = _guard("conditional", two_site_model)
    assert conditional.advance(None, "r2") is None
    programmed = _guard("programmed", two_site_model)
    memory = programmed.advance(programmed.initial_memory(), "r1_S")
    assert programmed.advance(memory, EPSILON_LABEL) == memory


def test_advance_rejects_a_label_that_the_memory_does_not_permit(two_site_model):
    programmed = compile_regulation(REGULATION_CONFIGS["programmed"], two_site_model.labels)
    after_t = programmed.advance(programmed.initial_memory(), "r1_T")
    assert type(programmed).__name__ == "AutomatonRegulation"
    assert not programmed.permits(after_t, None, "r2", ENABLED_ALL, None)
    with pytest.raises(ValueError, match="^label 'r2' was not permitted from this memory$"):
        programmed.advance(after_t, "r2")


# ---------------------------------------------------------------------------
# Concurrency relation
# ---------------------------------------------------------------------------

def test_concurrency_on_two_site(two_site_model):
    relation = concurrency_relation(two_site_model)
    assert ("r1_S", "r2") in relation and ("r2", "r1_S") in relation
    assert ("r1_S", "r1_T") in relation
    assert relation == grounded_concurrency(build_mrs(two_site_model))


def test_empty_pre_rule_not_concurrent():
    model = parse_model(
        "#! rules\nmk ~ => A{u}::c\nuse ~ A{u}::c =>\n#! inits\n1 A{u}::c\n"
    )
    relation = concurrency_relation(model)
    assert ("mk", "use") not in relation
    assert ("mk", "mk") not in relation
    assert ("use", "use") in relation
    assert relation == grounded_concurrency(build_mrs(model))


def test_concurrency_unifies_as_it_grounds_on_corpus_models():
    for k, text in enumerate(_models.corpus_models(200)):
        model = parse_model(text)
        assert concurrency_relation(model) == grounded_concurrency(build_mrs(model)), k


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2), (4, 2, 2), (3, 2, 3)])
def test_concurrency_unifies_as_it_grounds_on_site_models(shape):
    model = parse_model(_models.site_model(*shape))
    relation = concurrency_relation(model)
    assert relation == grounded_concurrency(build_mrs(model))
    # Rules of different sites meet in P, rules of one site only at one feature.
    assert {("act0_0", "act1_0"), ("export", "deact0")} <= relation
    assert ("act0_0", "deact0") not in relation


# A small signature for drawn left-hand sides.  "z" is a feature outside
# it, which an ε must not take.
_ATOMICS = {"s": frozenset({"a", "b"}), "t": frozenset({"a", "b"}), "u": frozenset({"a", "b"})}
_STRUCTURES = {"P": frozenset({"s", "t"}), "Q": frozenset({"u"})}
_FEATURES = st.sampled_from(["a", "b", "z", EPSILON])
_COMPARTMENTS = st.sampled_from(["c", "d"])


@st.composite
def _drawn_components(draw):
    """An atomic or a structure with some of its atomics, any feature or ε each."""
    name = draw(st.sampled_from(["P", "Q", "s", "u"]))
    if name in _STRUCTURES:
        names = sorted(draw(st.sets(st.sampled_from(sorted(_STRUCTURES[name])))))
        return Structure(name, tuple(Atomic(n, draw(_FEATURES)) for n in names))
    return Atomic(name, draw(_FEATURES))


def _redrawn(component, draw):
    """``component`` with about half of its features, ε included, drawn anew."""
    if isinstance(component, Atomic):
        feature = draw(_FEATURES) if draw(st.booleans()) else component.feature
        return Atomic(component.name, feature)
    return Structure(component.name, tuple(_redrawn(a, draw) for a in component.composition))


@st.composite
def _drawn_agents(draw, like=None):
    """An agent pattern whose chain often repeats a component; given
    ``like``, mostly a variant of it: its chain shuffled, features redrawn
    and the compartment drawn anew."""
    if like is not None and draw(st.integers(0, 3)):
        chain = draw(st.permutations([_redrawn(c, draw) for c in like.chain]))
    else:
        chain = draw(st.lists(_drawn_components(), min_size=1, max_size=2))
        if draw(st.booleans()):
            chain.append(chain[0])
    return Agent(tuple(chain), draw(_COMPARTMENTS))


@st.composite
def drawn_left_hand_pairs(draw):
    """Two rules ``a`` and ``b`` whose left-hand sides hold one or two agent
    patterns; ``b``'s first agent mostly a variant of ``a``'s."""
    first = draw(st.lists(_drawn_agents(), min_size=1, max_size=2))
    second = [draw(_drawn_agents(like=first[0]))]
    if draw(st.booleans()):
        second.append(draw(_drawn_agents()))
    rules = (
        BcslRule("a", Pattern(tuple(first)), Pattern()),
        BcslRule("b", Pattern(tuple(second)), Pattern()),
    )
    return BcslModel(rules, _ATOMICS, _STRUCTURES, Multiset())


@settings(max_examples=300, deadline=None)
@given(drawn_left_hand_pairs())
def test_concurrency_unifies_as_it_grounds_on_drawn_pairs(model):
    assert concurrency_relation(model) == grounded_concurrency(build_mrs(model))


def test_epsilon_meets_epsilon_only_over_features():
    # ``v`` has no feature at all, so ``v{ε}`` stands for no agent.
    lhs = Pattern((Agent((Atomic("v", EPSILON),), "c"),))
    rules = (BcslRule("a", lhs, Pattern()), BcslRule("b", lhs, Pattern()))
    model = BcslModel(rules, {**_ATOMICS, "v": frozenset()}, _STRUCTURES, Multiset())
    assert concurrency_relation(model) == frozenset()
    model = BcslModel(rules, {**_ATOMICS, "v": frozenset({"a"})}, _STRUCTURES, Multiset())
    assert concurrency_relation(model) == {(a, b) for a in "ab" for b in "ab"}


# ---------------------------------------------------------------------------
# Regulated exploration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(REGULATION_CONFIGS))
def test_regulated_sequences_and_tree(two_site_model, name):
    guard = _guard(name, two_site_model)
    product = explore(*direct_walk(two_site_model, guard)[:2])
    seqs = maximal_label_sequences(product, 6)
    assert seqs.complete == frozenset(EXPECTED_REGULATED_SEQUENCES[name])
    assert seqs.incomplete == frozenset()
    tree = unroll(*direct_walk(two_site_model, guard)[:2], 4)
    assert tree.n_edges == EXPECTED_TREE_EDGES[name]


@pytest.mark.parametrize("name", sorted(REGULATION_CONFIGS))
def test_regulated_sequences_subset_of_unregulated(two_site_model, name):
    product = explore(*direct_walk(two_site_model, _guard(name, two_site_model))[:2])
    complete = maximal_label_sequences(product, 6).complete
    # every regulated run is an unregulated run (possibly stopped early)
    for seq in complete:
        assert any(
            full[: len(seq)] == seq for full in UNREGULATED_SEQUENCES | {()}
        ) or seq in UNREGULATED_SEQUENCES


def test_neutral_regulation_matches_plain_lts(two_site_model):
    matcher = RuleMatcher(two_site_model)
    plain = explore(
        two_site_model.init, lambda s: matcher.successors(s) or {(EPSILON_LABEL, s)}
    )
    permit_all = compile_regulation(
        {"type": "conditional", "prohibited": {}}, two_site_model.labels
    )
    guard = make_guard(permit_all, two_site_model)
    neutral = map_states(explore(*direct_walk(two_site_model, guard)[:2]), lambda node: node[0])
    assert neutral.states == plain.states
    assert neutral.transitions == plain.transitions
    assert neutral.initial == plain.initial


@pytest.mark.parametrize("name", ["conditional", "concurrent-free"])
def test_memoryless_regulations_quotient_cleanly(two_site_model, name):
    product = explore(*direct_walk(two_site_model, _guard(name, two_site_model))[:2])
    quotient = map_states(product, lambda node: node[0])
    assert len(quotient.states) == len(product.states)
    assert maximal_label_sequences(product, 6) == maximal_label_sequences(quotient, 6)


def test_degenerate_programmed_blocks_after_first_step(two_site_model):
    config = {"type": "programmed", "successors": {l: [] for l in LABELS}}
    regulation = compile_regulation(config, two_site_model.labels)
    product = explore(*direct_walk(two_site_model, make_guard(regulation, two_site_model))[:2])
    seqs = maximal_label_sequences(product, 6)
    assert seqs.complete == frozenset({("r1_S",), ("r1_T",), ("r2",)})


def test_star_expression_regulation(two_site_model):
    regulation = compile_regulation(
        {"type": "regular", "expression": "(r1_S.r1_T)*.r2"}, two_site_model.labels
    )
    product = explore(*direct_walk(two_site_model, make_guard(regulation, two_site_model))[:2])
    seqs = maximal_label_sequences(product, 8)
    assert seqs.complete == frozenset({("r2",), ("r1_S", "r1_T", "r2")})


def test_empty_word_language_blocks_everything(two_site_model):
    regulation = compile_regulation(
        {"type": "regular", "expression": "r1_S*"}, two_site_model.labels
    )
    product = explore(*direct_walk(two_site_model, make_guard(regulation, two_site_model))[:2])
    seqs = maximal_label_sequences(product, 6)
    assert seqs.complete == frozenset({()})


# Word-enumeration oracle for star-free expressions: the maximal sequences
# of a regular regulation are exactly the language's words that can execute
# from the initial state (none of these examples deadlocks mid-word).
def _words(expression: str) -> set[tuple[str, ...]]:
    def split_top(text, sep):
        parts, depth, current = [], 0, []
        for ch in text:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == sep and depth == 0:
                parts.append("".join(current))
                current = []
            else:
                current.append(ch)
        parts.append("".join(current))
        return parts

    text = expression.replace(" ", "")
    alts = split_top(text, "|")
    if len(alts) > 1:
        return set().union(*(_words(a) for a in alts))
    pieces = split_top(text, ".")
    if len(pieces) > 1:
        out = {()}
        for piece in pieces:
            out = {w + v for w in out for v in _words(piece)}
        return out
    if text.startswith("(") and text.endswith(")"):
        return _words(text[1:-1])
    return {(text,)}


@pytest.mark.parametrize(
    "expression",
    ["r1_S.r1_T.r2|r1_T.r1_S", "r2|r1_T.r2", "r1_S.r1_T|r1_T"],
)
def test_star_free_regular_matches_word_enumeration(two_site_model, expression):
    executable = {
        w
        for w in _words(expression)
        if w in UNREGULATED_SEQUENCES or any(f[: len(w)] == w for f in UNREGULATED_SEQUENCES)
    }
    regulation = compile_regulation(
        {"type": "regular", "expression": expression}, two_site_model.labels
    )
    product = explore(*direct_walk(two_site_model, make_guard(regulation, two_site_model))[:2])
    assert maximal_label_sequences(product, 8).complete == frozenset(executable)


# ---------------------------------------------------------------------------
# Regulated sampling
# ---------------------------------------------------------------------------

def test_regulated_sampling_follows_regular_language(two_site_model):
    guard = _guard("regular", two_site_model)
    root = (two_site_model.init, guard.initial_memory())
    product = guarded(_grounded_successor_fn(two_site_model), guard)
    seen = set()
    for seed in range(12):
        run = sample_run(root, product, 4, seed)
        seen.add(run.labels)
    assert seen <= {
        ("r1_S", "r1_T", "r2", EPSILON_LABEL),
        ("r1_T", "r1_S", EPSILON_LABEL, EPSILON_LABEL),
    }
    assert len(seen) == 2


def _grounded_successor_fn(model):
    """The grounded system's successors with ε removed."""
    system = build_mrs(model)

    def successor_fn(state):
        return [(label, t) for label, t in successors(system, state) if label != EPSILON_LABEL]

    return successor_fn


@pytest.mark.parametrize("name", sorted(REGULATION_CONFIGS))
def test_regulated_sampling_follows_the_grounded_product(two_site_model, name):
    # Runs sampled over the direct matcher's product are paths of the
    # grounded system's product, ε stutters included.
    guard = _guard(name, two_site_model)
    root, direct, _ = direct_walk(two_site_model, guard)
    product = explore(root, guarded(_grounded_successor_fn(two_site_model), guard))
    for seed in range(12):
        run = sample_run(root, direct, 6, seed)
        assert run.states[0] == root
        steps = zip(run.states, run.labels, run.states[1:])
        assert set(steps) <= product.transitions, (seed, run.labels)


# The two-site model with its configs, and the 2 x 2 x 2 site model of the
# benchmark family with its configs; then the product's state count per
# config.
_models = bench_module("models")
GUARDED_CASES = {
    "two-site": (
        TWO_SITE_MODEL,
        REGULATION_CONFIGS,
        {"regular": 6, "ordered": 6, "programmed": 8, "conditional": 7, "concurrent-free": 5},
    ),
    "sites-2x2x2": (
        _models.site_model(2, 2, 2),
        _models.regulation_configs(2, 2),
        {"regular": 36, "ordered": 15, "programmed": 33, "conditional": 36, "concurrent-free": 36},
    ),
}


@pytest.mark.parametrize("name", sorted(REGULATION_CONFIGS))
@pytest.mark.parametrize("case", sorted(GUARDED_CASES))
def test_guarded_gives_one_product_over_both_semantics(case, name):
    text, configs, n_states = GUARDED_CASES[case]
    model = parse_model(text)
    guard = make_guard(compile_regulation(configs[name], model.labels), model)
    root = (model.init, guard.initial_memory())
    grounded = guarded(_grounded_successor_fn(model), guard)
    direct_root, direct, _ = direct_walk(model, guard)
    assert direct_root == root

    direct_graph = explore(direct_root, direct)
    grounded_graph = explore(root, grounded)
    assert direct_graph.n_states == n_states[name]
    assert direct_graph == grounded_graph

    direct_tree = unroll(direct_root, direct, 4)
    assert unroll(root, grounded, 4) == direct_tree

    # Cached, as the CLI's ``--unroll`` and ``simulate`` cache it, the walk
    # gives what the uncached one gives.
    cached = functools.cache(direct)
    assert explore(root, cached) == direct_graph
    assert unroll(root, cached, 4) == direct_tree
    for seed in range(4):
        assert sample_run(root, cached, 12, seed) == sample_run(root, direct, 12, seed)


# ---------------------------------------------------------------------------
# The history regulations against their definitions
# ---------------------------------------------------------------------------

def _sequences_by_definition(model, permitted, depth):
    """Maximal label sequences of the unregulated direct graph under a predicate.

    Walks the direct graph from the initial state, carrying the label
    history; ``permitted(history, label, state, enabled_labels)`` decides
    each step, where ``enabled_labels`` are the labels of the state's
    unregulated successors.  A history with no permitted step is complete
    (only ε may follow), and one the depth bound cuts while a step is
    permitted is incomplete, as in ``maximal_label_sequences``.
    """
    matcher = RuleMatcher(model)
    moves = {}
    complete, incomplete = set(), set()
    stack = [(model.init, ())]
    while stack:
        state, history = stack.pop()
        if state not in moves:
            moves[state] = matcher.successors(state)
        enabled_labels = frozenset(label for label, _ in moves[state])
        steps = [
            (label, target)
            for label, target in moves[state]
            if permitted(history, label, state, enabled_labels)
        ]
        if not steps:
            complete.add(history)
        elif len(history) == depth:
            incomplete.add(history)
        else:
            stack.extend((target, history + (label,)) for label, target in steps)
    return LabelSequences(frozenset(complete), frozenset(incomplete))


def _ordered_by_definition(pairs):
    """Ordered (Dassow & Păun): with ``<`` the transitive closure of the
    pairs, no ``b`` fires right after ``a`` when ``a < b``."""
    order = transitive_closure(pairs)
    return lambda history, label, state, enabled: not history or (history[-1], label) not in order


def _programmed_by_definition(successor_sets):
    """Programmed: each next label lies in the successor set of the
    label before it; the first label is free."""
    return lambda history, label, state, enabled: (
        not history or label in successor_sets[history[-1]]
    )


def _regular_by_definition(expression, labels):
    """Regular: a label may fire when the history is not yet a word of
    the language and history + label is a prefix of some word.

    Words are decided by ``Dfa.accepts`` alone.  A prefix is found by
    trying every completion up to the automaton's live-state count: a
    shortest completion visits each live state at most once.
    """
    dfa = compile_label_regex(expression, labels)
    alphabet = sorted(labels)

    @functools.cache
    def is_prefix(word):
        return any(
            dfa.accepts(word + rest)
            for n in range(len(dfa.live))
            for rest in itertools.product(alphabet, repeat=n)
        )

    return lambda history, label, state, enabled: (
        not dfa.accepts(history) and is_prefix(history + (label,))
    )


# Per model: its text and the expressions checked.  Each list holds a
# language where a word is a proper prefix of another, so an accepting
# memory that still permits a label shows.
ORACLE_CASES = {
    "two-site": (
        TWO_SITE_MODEL,
        [
            REGULATION_CONFIGS["regular"]["expression"],
            "(r1_S.r1_T)*.r2",
            "r1_S.r1_T*|r2",
            "r1_T.(r1_S|r2)*",
        ],
    ),
    "sites-2x2x2": (
        _models.site_model(2, 2, 2),
        [
            _models.regulation_configs(2, 2)["regular"]["expression"],
            "act0_0.(deact0|export)*",
            "export|export.act0_0.export",
        ],
    ),
}
ORACLE_DEPTH = 6


def _assert_matches_definition(text, config, permitted):
    model = parse_model(text)
    guard = make_guard(compile_regulation(config, model.labels), model)
    product = explore(*direct_walk(model, guard)[:2])
    expected = _sequences_by_definition(model, permitted, ORACLE_DEPTH)
    assert maximal_label_sequences(product, ORACLE_DEPTH) == expected


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_regular_equals_its_definition(case):
    text, expressions = ORACLE_CASES[case]
    labels = parse_model(text).labels
    for expression in expressions:
        config = {"type": "regular", "expression": expression}
        _assert_matches_definition(text, config, _regular_by_definition(expression, labels))


@settings(max_examples=50, deadline=None)
@given(case=st.sampled_from(sorted(ORACLE_CASES)), data=st.data())
def test_ordered_equals_its_definition(case, data):
    text, _ = ORACLE_CASES[case]
    pairs = data.draw(strict_orders(parse_model(text).labels, max_size=6))
    config = {"type": "ordered", "pairs": pairs}
    _assert_matches_definition(text, config, _ordered_by_definition(pairs))


@settings(max_examples=50, deadline=None)
@given(case=st.sampled_from(sorted(ORACLE_CASES)), data=st.data())
def test_programmed_equals_its_definition(case, data):
    text, _ = ORACLE_CASES[case]
    labels = sorted(parse_model(text).labels)
    successor_sets = {
        label: data.draw(st.frozensets(st.sampled_from(labels)), label=label) for label in labels
    }
    config = {"type": "programmed", "successors": {a: sorted(b) for a, b in successor_sets.items()}}
    _assert_matches_definition(text, config, _programmed_by_definition(successor_sets))


def _conditional_by_definition(prohibited):
    """Conditional (forbidding contexts): a label may fire only when none
    of its prohibited multisets is contained in the state, i.e. the state
    holds at least as many copies of each of the context's agents.  The
    memory plays no part."""

    def contained(context, state):
        return all(state.count(agent) >= n for agent, n in context.items())

    return lambda history, label, state, enabled: not any(
        contained(context, state) for context in prohibited.get(label, ())
    )


def _concurrent_free_by_definition(model, priority):
    """Concurrent-free: ``low`` is blocked when some pair ``(high, low)``
    has ``high`` enabled in the state, and some grounded rule of ``high``
    and some grounded rule of ``low`` consume a common agent (share an
    agent of their ``pre``).  The memory plays no part."""
    pres = {}
    for rule in build_mrs(model).rules:
        pres.setdefault(rule.label, []).append(set(rule.pre.agents()))

    def concurrent(a, b):
        return any(pa & pb for pa in pres.get(a, ()) for pb in pres.get(b, ()))

    return lambda history, label, state, enabled: not any(
        low == label and high in enabled and concurrent(high, low) for high, low in priority
    )


@functools.cache
def _reached_states(text):
    """The states of the unregulated direct graph, in text order."""
    return tuple(sorted(build_lts(parse_model(text)).states, key=str))


@st.composite
def reached_contexts(draw, states):
    """A sub-multiset of a reached state, so that it blocks somewhere."""
    state = draw(st.sampled_from(states))
    chosen = draw(st.lists(st.sampled_from(state.items()), min_size=1, max_size=2, unique=True))
    return Multiset({agent: draw(st.integers(1, n)) for agent, n in chosen})


@settings(max_examples=50, deadline=None)
@given(case=st.sampled_from(sorted(ORACLE_CASES)), data=st.data())
def test_conditional_equals_its_definition(case, data):
    text, _ = ORACLE_CASES[case]
    labels = sorted(parse_model(text).labels)
    states = _reached_states(text)
    prohibited = {
        label: data.draw(st.lists(reached_contexts(states), max_size=3), label=label)
        for label in data.draw(st.lists(st.sampled_from(labels), unique=True))
    }
    config = {
        "type": "conditional",
        "prohibited": {label: [str(c) for c in cs] for label, cs in prohibited.items()},
    }
    _assert_matches_definition(text, config, _conditional_by_definition(prohibited))


@settings(max_examples=50, deadline=None)
@given(case=st.sampled_from(sorted(ORACLE_CASES)), data=st.data())
def test_concurrent_free_equals_its_definition(case, data):
    text, _ = ORACLE_CASES[case]
    model = parse_model(text)
    distinct = list(itertools.permutations(sorted(model.labels), 2))
    priority = data.draw(st.lists(st.sampled_from(distinct), max_size=6, unique=True))
    config = {"type": "concurrent-free", "priority": priority}
    _assert_matches_definition(text, config, _concurrent_free_by_definition(model, priority))
