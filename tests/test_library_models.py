"""Models built in Python through the library, not parsed from text.

``parse_model`` rejects a composition that is not sorted by atomic name,
but ``BcslModel``, ``BcslRule`` and the term classes accept any order,
and a composition's order carries no meaning: ``P(t{a},s{a})`` and
``P(s{a},t{a})`` are one structure.  So a model rebuilt with every
composition shuffled must give the same reachable graph, the same
grounded rules and the same concurrency relation, and its two semantics
must agree.

The order of a rule side's chain and of its agents is not shuffled: it
is positional.  Deatomisation reads the atomics of a side left to right,
and grounding forces a right-hand ε slot by the left-hand atomic at the
same position.  ``r ~ P().Q(b{x})::c => Q(b{y}).P()::c`` grounds to 4
reactions, while ``=> P().Q(b{y})::c`` grounds to 2
(``test_chain_order_is_positional``).

The default profile draws 100 models; ``--hypothesis-profile=long``
(``tests/conftest.py``) draws 1,000.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from bcsl import (
    Agent,
    Atomic,
    Multiset,
    Pattern,
    RuleMatcher,
    Structure,
    build_lts,
    build_mrs,
    check_equivalence,
    concurrency_relation,
    lts_to_json_obj,
    parse_model,
    successors,
)
from bcsl.syntax import BcslModel, BcslRule
from corpus import random_model_text
from test_generated_models import model_texts

BOUNDS = {"max_states": 50, "max_depth": 25}


def _p_agent(*atoms) -> Agent:
    return Agent((Structure("P", tuple(Atomic(n, f) for n, f in atoms)),), "c")


# A left-hand composition written ``t`` before ``s``, matched against the
# canonical initial agent ``P(s{a},t{a})::c``.
UNSORTED_MODEL = BcslModel(
    (
        BcslRule(
            "r",
            Pattern((_p_agent(("t", "a"), ("s", "a")),)),
            Pattern((_p_agent(("t", "b"), ("s", "a")),)),
        ),
    ),
    {"s": frozenset({"a"}), "t": frozenset({"a", "b"})},
    {"P": frozenset({"s", "t"})},
    Multiset.from_agents([_p_agent(("s", "a"), ("t", "a"))]),
)


def test_an_unsorted_left_hand_composition_matches():
    model = UNSORTED_MODEL
    direct = RuleMatcher(model).successors(model.init)
    assert {(label, str(target)) for label, target in direct} == {("r", "1 P(s{a},t{b})::c")}
    assert direct == successors(build_mrs(model), model.init)
    assert check_equivalence(model).passed


def test_chain_order_is_positional():
    def reactions(rhs: str) -> int:
        text = f"#! rules\nr ~ P().Q(b{{x}})::c => {rhs}\n#! inits\n"
        return len(build_mrs(parse_model(text + "1 P(a{u}).Q(b{x})::c\n1 P(a{v})::c\n")).rules)

    assert reactions("Q(b{y}).P()::c") == 4
    assert reactions("P().Q(b{y})::c") == 2


def _shuffled(model: BcslModel, rnd) -> BcslModel:
    """``model`` with every composition, in rules and init, in a drawn order."""

    def agent(a: Agent) -> Agent:
        chain = tuple(
            Structure(c.name, tuple(rnd.sample(c.composition, len(c.composition))))
            if isinstance(c, Structure)
            else c
            for c in a.chain
        )
        return Agent(chain, a.compartment)

    def pattern(p: Pattern) -> Pattern:
        return Pattern(tuple(map(agent, p.agents)))

    rules = tuple(BcslRule(r.label, pattern(r.lhs), pattern(r.rhs)) for r in model.rules)
    init = Multiset.from_agents(agent(a) for a, n in model.init.items() for _ in range(n))
    return BcslModel(rules, model.atomic_signature, model.structure_signature, init)


def _lts_json(model: BcslModel) -> dict:
    return lts_to_json_obj(build_lts(model, **BOUNDS), str)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.integers(0, 199).map(random_model_text), model_texts()), st.randoms())
def test_shuffled_compositions_keep_the_model(text, rnd):
    model = parse_model(text)
    rebuilt = _shuffled(model, rnd)
    assert _lts_json(rebuilt) == _lts_json(model), text
    assert build_mrs(rebuilt).rules == build_mrs(model).rules, text
    assert concurrency_relation(rebuilt) == concurrency_relation(model), text
    report = check_equivalence(rebuilt, **BOUNDS)
    assert report.passed, (text, report.counterexample)
