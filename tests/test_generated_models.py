"""Both semantics agree on hypothesis-drawn model text, ``ground_rule``
gives the reactions of its definition there, and that text survives
``model_to_text``.

The fixed corpus (``tests/corpus.py``) has counts of at most 2, chains
of at most 2 components and two compartments.  The models drawn here
add the shapes it lacks: init counts up to 4, chains of 3 (with a
structure repeated in one chain, the case where two assignments give one
agent), three compartments, empty left-hand, right-hand and init sides,
and rules that only move an agent between compartments.

Rule and init agents share one or two chain shapes, most right-hand
sides begin with changed copies of their left-hand agents, and most init
lines ground a whole left-hand side, so that rules fire and right-hand
slots are forced by the left.  Omitted composition members are ε slots
after expansion; each rule omits at most ``_SLOTS`` of them, which keeps
grounding small.

Each drawn model also runs under a drawn regulation of each of the five
kinds, where the product walk under ``functools.cache``, as the CLI's
``--unroll`` and ``simulate`` take it, must give what the uncached walk
gives: the matcher's tables and the guard must be pure.

The default profile draws 100 models; ``--hypothesis-profile=long``
(``tests/conftest.py``) draws 1,000.
"""

import functools

from hypothesis import HealthCheck, given, settings, strategies as st

from bcsl import (
    RuleMatcher,
    check_equivalence,
    compile_regulation,
    direct_walk,
    explore,
    ground_rule,
    make_guard,
    model_to_text,
    parse_model,
    sample_run,
    unroll,
)
from oracles import reactions_by_definition

ATOMICS = {"A": ("u", "v"), "B": ("u", "v")}
STRUCTURES = {"X": ("A", "B"), "Y": ("B",)}
COMPARTMENTS = ("c", "d", "e")
_SLOTS = 5


def _agent_text(agent) -> str:
    chain, compartment = agent
    parts = []
    for name, value in chain:
        if isinstance(value, dict):
            members = ",".join(f"{a}{{{f}}}" for a, f in sorted(value.items()))
            parts.append(f"{name}({members})")
        else:
            parts.append(f"{name}{{{value}}}")
    return ".".join(parts) + "::" + compartment


def _pattern_text(agents) -> str:
    return " + ".join(_agent_text(agent) for agent in agents)


@st.composite
def model_texts(draw):
    names = st.sampled_from(["A", "X", "Y", "Y"])

    def shape():
        # Often a chain repeats its first component: with both copies
        # partial, two assignments give one agent (``P().P()``).
        first = draw(names)
        rest = range(draw(st.integers(0, 2)))
        return [first, *(first if draw(st.booleans()) else draw(names) for _ in rest)]

    shapes = [shape() for _ in range(draw(st.integers(1, 2)))]

    def feature(atomic):
        return draw(st.sampled_from(ATOMICS[atomic]))

    def pattern_agent(slots):
        # ``slots``: the ε slots the rule may still omit (a one-item list).
        chain = []
        for name in draw(st.sampled_from(shapes)):
            if name in ATOMICS:
                chain.append((name, feature(name)))
                continue
            members = {}
            for atomic in STRUCTURES[name]:
                if slots[0] > 0 and draw(st.integers(0, 2)):
                    slots[0] -= 1
                else:
                    members[atomic] = feature(atomic)
            chain.append((name, members))
        return chain, draw(st.sampled_from(COMPARTMENTS))

    def variant(agent):
        # The same chain, where each written member may change, and the
        # members omitted on the left stay omitted (forced slots) in every
        # other structure and get a feature in the rest.  A chain that
        # repeats a structure then tells its two assignments apart.
        chain, compartment = agent
        changed = []
        write = draw(st.booleans())
        for name, value in chain:
            if isinstance(value, dict):
                write = not write
                value = {
                    a: value[a] if a in value and draw(st.booleans()) else feature(a)
                    for a in STRUCTURES[name]
                    if a in value or write
                }
            changed.append((name, value))
        return changed, draw(st.sampled_from(COMPARTMENTS))

    def grounded(agent):
        # Omitted members take their atomic's two features in turn, so that
        # the copies of a repeated structure differ.
        chain, compartment = agent
        turn = draw(st.integers(0, 1))
        full = []
        for name, value in chain:
            if isinstance(value, dict):
                value = dict(value)
                for a in STRUCTURES[name]:
                    if a not in value:
                        turn = 1 - turn
                        value[a] = ATOMICS[a][turn]
            full.append((name, value))
        return full, compartment

    lines = ["#! rules"]
    left_sides = []
    for i in range(draw(st.integers(1, 5))):
        slots = [_SLOTS]
        if draw(st.integers(0, 3)) == 0:
            # Only moves an agent: the same chain text into another compartment.
            chain, compartment = pattern_agent(slots)
            target = draw(st.sampled_from([c for c in COMPARTMENTS if c != compartment]))
            lhs, rhs = [(chain, compartment)], [(chain, target)]
        else:
            lhs = [pattern_agent(slots) for _ in range(draw(st.integers(0, 3)))]
            # A prefix of the left-hand agents, changed in place, so that
            # their omitted members line up with the left-hand ones.
            kept = [variant(agent) for agent in lhs[: draw(st.integers(0, 2 * len(lhs)))]]
            rhs = kept + [pattern_agent(slots) for _ in range(draw(st.integers(0, 3 - len(kept))))]
        if lhs:
            left_sides.append(lhs)
        lines.append(f"r{i} ~ {_pattern_text(lhs)} => {_pattern_text(rhs)}")
    lines.append("#! inits")
    for _ in range(draw(st.integers(0, 3))):
        # Mostly a grounding of a whole left-hand side, so that its rule fires.
        if left_sides and draw(st.integers(0, 3)):
            sources = draw(st.sampled_from(left_sides))
        else:
            sources = [pattern_agent([0])]
        for source in sources:
            lines.append(f"{draw(st.integers(1, 4))} {_agent_text(grounded(source))}")
    return "\n".join(lines) + "\n"


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model_texts())
def test_generated_models_conform(text):
    report = check_equivalence(parse_model(text), max_states=50, max_depth=25)
    assert report.passed, (text, report.counterexample)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model_texts())
def test_generated_models_ground_by_definition(text):
    model = parse_model(text)
    signatures = (model.structure_signature, model.atomic_signature)
    for rule in model.rules:
        assert ground_rule(rule, *signatures) == reactions_by_definition(rule, *signatures), (
            text,
            rule,
        )


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model_texts())
def test_generated_models_survive_model_to_text(text):
    model = parse_model(text)
    again = parse_model(model_to_text(model))
    assert again.rules == model.rules
    assert again.init == model.init
    assert again.atomic_signature == model.atomic_signature
    assert again.structure_signature == model.structure_signature


def _label_expression(draw, labels, depth=2) -> str:
    """A regular expression over ``labels``: labels joined by ``.``, ``|`` and ``*``."""
    kind = draw(st.sampled_from(["label", "sequence", "choice", "star"] if depth else ["label"]))
    if kind == "label":
        return draw(st.sampled_from(labels))
    if kind == "star":
        return f"({_label_expression(draw, labels, depth - 1)})*"
    parts = [_label_expression(draw, labels, depth - 1) for _ in range(draw(st.integers(2, 3)))]
    return "(" + (".", "|")[kind == "choice"].join(parts) + ")"


@st.composite
def regulation_configs(draw, kind, labels, agents):
    """A regulation of ``kind`` over ``labels``; contexts are made of ``agents``."""
    if kind == "regular":
        return {"type": kind, "expression": _label_expression(draw, labels)}
    if kind == "programmed":
        subsets = st.lists(st.sampled_from(labels), unique=True)
        return {"type": kind, "successors": {label: draw(subsets) for label in labels}}
    if kind == "conditional":
        contexts = st.lists(st.sampled_from(agents), min_size=1, max_size=2).map(" + ".join)
        chosen = draw(st.lists(st.sampled_from(labels), unique=True)) if agents else []
        return {
            "type": kind,
            "prohibited": {label: draw(st.lists(contexts, max_size=2)) for label in chosen},
        }
    # Pairs of distinct labels; for ``ordered``, only those along one drawn
    # order of the labels, so that they form a strict partial order.
    order = draw(st.permutations(labels)) if kind == "ordered" else labels
    pairs = [(a, b) for i, a in enumerate(order) for b in order[i + 1 :]]
    if kind != "ordered":
        pairs += [(b, a) for a, b in pairs]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return {"type": kind, "pairs" if kind == "ordered" else "priority": chosen}


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model_texts(), st.data())
def test_generated_models_walk_memoised_regulations_by_definition(text, data):
    model = parse_model(text)
    labels = sorted(model.labels)
    matcher = RuleMatcher(model)
    reached = explore(model.init, matcher.successors, max_states=50).states
    agents = sorted({str(agent) for state in reached for agent in state})
    for kind in ("regular", "ordered", "programmed", "conditional", "concurrent-free"):
        config = data.draw(regulation_configs(kind, labels, agents), label=kind)
        guard = make_guard(compile_regulation(config, labels), model)
        root, walk, _ = direct_walk(model, guard)
        cached = functools.cache(walk)
        assert explore(root, cached, 50, 25) == explore(root, walk, 50, 25), config
        assert unroll(root, cached, 4, 2_000) == unroll(root, walk, 4, 2_000), config
        for seed in range(2):
            run = sample_run(root, cached, 12, seed)
            assert run == sample_run(root, walk, 12, seed), config
