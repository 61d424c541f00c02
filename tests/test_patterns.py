import itertools

import pytest

from bcsl import (
    Agent,
    Atomic,
    EPSILON,
    GroundingCapError,
    GroundingError,
    Multiset,
    Pattern,
    Structure,
    deatomise,
    enumerate_instantiations,
    expand_pattern,
    ground_rule,
    instantiation_count,
    parse_agent,
    parse_model,
    parse_pattern,
    parse_rule,
)
from bcsl.patterns import assign_features
from conftest import TWO_SITE_MODEL
from corpus import random_model_text
from oracles import consistent, ground_pattern, reactions_by_definition

TWO_SITE_ATOMIC = {"S": frozenset("ia"), "T": frozenset("ia")}
TWO_SITE_STRUCTURE = {"P": frozenset({"S", "T"})}


def eps(name: str) -> Atomic:
    return Atomic(name, EPSILON)


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------

def test_expand_adds_missing_atomics_in_order():
    p = parse_pattern("P(S{i})::cell")
    expanded = expand_pattern(p, TWO_SITE_STRUCTURE)
    assert str(expanded) == "P(S{i},T{ε})::cell"


def test_expand_leaves_complete_composition_alone():
    p = parse_pattern("P(S{i},T{i})::cell")
    assert expand_pattern(p, TWO_SITE_STRUCTURE) == p


def test_expand_empty_composition():
    p = parse_pattern("P()::cell")
    assert str(expand_pattern(p, TWO_SITE_STRUCTURE)) == "P(S{ε},T{ε})::cell"


def test_expand_is_idempotent():
    p = parse_pattern("P(S{i})::cell + P()::out")
    once = expand_pattern(p, TWO_SITE_STRUCTURE)
    assert expand_pattern(once, TWO_SITE_STRUCTURE) == once


def test_expand_preserves_existing_atom_order_prefixwise():
    p = parse_pattern("P(S{i})::cell")
    before = [a for a in deatomise(p)]
    after = [a for a in deatomise(expand_pattern(p, TWO_SITE_STRUCTURE)) if a.feature != EPSILON]
    assert before == after


def test_expand_unknown_structure_errors():
    with pytest.raises(GroundingError, match="no signature entry"):
        expand_pattern(parse_pattern("Q()::cell"), TWO_SITE_STRUCTURE)


def test_expand_ignores_standalone_atomics():
    p = parse_pattern("A{x}::c")
    assert expand_pattern(p, {}) == p


# ---------------------------------------------------------------------------
# Deatomisation
# ---------------------------------------------------------------------------

def test_deatomise_written_order():
    p = Pattern((Agent((Structure("P", (eps("S"), Atomic("T", "i"))),), "cell"),))
    assert deatomise(p) == (eps("S"), Atomic("T", "i"))


def test_deatomise_empty_pattern():
    assert deatomise(Pattern(())) == ()


def test_deatomise_mixes_chains_and_compositions():
    p = Pattern(
        (
            Agent((Atomic("A", "x"), Structure("P", (eps("B"),))), "c"),
            Agent((Atomic("C", "y"),), "c"),
        )
    )
    assert deatomise(p) == (Atomic("A", "x"), eps("B"), Atomic("C", "y"))


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------

def test_two_choices_for_single_epsilon():
    p = Pattern((Agent((Structure("P", (eps("S"), Atomic("T", "i"))),), "cell"),))
    insts = enumerate_instantiations(p, TWO_SITE_ATOMIC)
    assert [str(i) for i in insts] == [
        "P(S{a},T{i})::cell",
        "P(S{i},T{i})::cell",
    ]


def test_grounded_pattern_instantiates_to_itself():
    p = parse_pattern("P(S{i},T{i})::cell")
    insts = enumerate_instantiations(p, TWO_SITE_ATOMIC)
    assert len(insts) == 1
    assert insts[0] == p


def test_two_epsilons_give_four():
    p = Pattern((Agent((Structure("P", (eps("S"), eps("T"))),), "cell"),))
    assert len(enumerate_instantiations(p, TWO_SITE_ATOMIC)) == 4


def test_missing_signature_errors():
    p = Pattern((Agent((eps("Zed"),), "c"),))
    with pytest.raises(GroundingError, match="no features"):
        enumerate_instantiations(p, TWO_SITE_ATOMIC)
    with pytest.raises(GroundingError, match="no features"):
        enumerate_instantiations(p, {"Zed": frozenset()})


def test_cap_aborts_enumeration():
    agents = tuple(Agent((eps("S"),), "c") for _ in range(4))
    with pytest.raises(GroundingCapError, match="cap"):
        enumerate_instantiations(Pattern(agents), TWO_SITE_ATOMIC, cap=15)


# Brute-force oracle: try every feature assignment over *all* positions and
# keep those that agree with the source on non-ε positions and pick allowed
# features at ε positions.
def brute_force_instantiation_results(pattern, atomic_signature, universe):
    atoms = deatomise(pattern)
    results = set()
    for combo in itertools.product(universe, repeat=len(atoms)):
        ok = True
        for atom, feature in zip(atoms, combo):
            if atom.feature == EPSILON:
                if feature not in atomic_signature.get(atom.name, frozenset()):
                    ok = False
                    break
            elif feature != atom.feature:
                ok = False
                break
        if ok:
            results.add(assign_features(pattern, dict(enumerate(combo))))
    return results


SIGNATURE = {
    "A": frozenset({"u"}),
    "B": frozenset({"u", "v"}),
    "C": frozenset({"u", "v", "w"}),
    "D": frozenset({"v", "w"}),
}
UNIVERSE = ("u", "v", "w")


def _pattern_family():
    """Bounded exhaustive family of patterns with up to 4 ε atomics."""
    names = ("A", "B", "C", "D")
    family = []
    # one structure agent per subset of names, each member ε or its first feature
    for r in range(len(names) + 1):
        for subset in itertools.combinations(names, r):
            for eps_mask in itertools.product((True, False), repeat=r):
                comp = tuple(
                    eps(n) if is_eps else Atomic(n, sorted(SIGNATURE[n])[0])
                    for n, is_eps in zip(subset, eps_mask)
                )
                family.append(Pattern((Agent((Structure("X", comp),), "c"),)))
    # two-agent patterns of standalone atomics
    for n1, n2 in itertools.product(names[:2], names[2:]):
        family.append(Pattern((Agent((eps(n1),), "c"), Agent((eps(n2),), "d"))))
    return family


def test_instantiation_count_and_results_match_brute_force():
    for pattern in _pattern_family():
        expected = brute_force_instantiation_results(pattern, SIGNATURE, UNIVERSE)
        insts = enumerate_instantiations(pattern, SIGNATURE)
        assert set(insts) == expected
        assert instantiation_count(pattern, SIGNATURE) == len(insts) == len(expected)


# ---------------------------------------------------------------------------
# Consistency
# ---------------------------------------------------------------------------

def _expanded_insts(rule_text):
    """Each expanded side's instantiations as ``(source, result)`` pairs, by result text."""
    rule = parse_rule(rule_text)
    sides = [expand_pattern(side, TWO_SITE_STRUCTURE) for side in (rule.lhs, rule.rhs)]
    return [
        {str(result): (side, result) for result in enumerate_instantiations(side, TWO_SITE_ATOMIC)}
        for side in sides
    ]


def test_consistency_forces_shared_epsilon_positions():
    lhs_insts, rhs_insts = _expanded_insts("r1_S ~ P(S{i})::cell => P(S{a})::cell")
    same_t = (lhs_insts["P(S{i},T{i})::cell"], rhs_insts["P(S{a},T{i})::cell"])
    flip_t = (lhs_insts["P(S{i},T{i})::cell"], rhs_insts["P(S{a},T{a})::cell"])
    assert consistent(*same_t)
    assert not consistent(*flip_t)


def test_consistency_reflexive():
    lhs_insts, _ = _expanded_insts("r2 ~ P()::cell => P()::out")
    for inst in lhs_insts.values():
        assert consistent(inst, inst)


def test_consistency_vacuous_for_disjoint_positions():
    short = parse_pattern("A{x}::c")
    long = Pattern((Agent((eps("B"), eps("B2")), "c"),))
    for left in enumerate_instantiations(short, {"A": frozenset("xy")}):
        for right in enumerate_instantiations(long, {"B": frozenset("xy"), "B2": frozenset("xy")}):
            assert consistent((short, left), (long, right))


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

def test_ground_pattern_empty_composition():
    multisets = ground_pattern(parse_pattern("P()::cell"), TWO_SITE_STRUCTURE, TWO_SITE_ATOMIC)
    assert {str(m) for m in multisets} == {
        "1 P(S{i},T{i})::cell",
        "1 P(S{a},T{i})::cell",
        "1 P(S{i},T{a})::cell",
        "1 P(S{a},T{a})::cell",
    }


def test_ground_pattern_grounded_is_singleton():
    p = parse_pattern("P(S{i},T{i})::cell")
    assert ground_pattern(p, TWO_SITE_STRUCTURE, TWO_SITE_ATOMIC) == frozenset(
        {Multiset.from_agents(p.agents)}
    )


def test_ground_pattern_partial_composition():
    multisets = ground_pattern(parse_pattern("P(S{i})::cell"), TWO_SITE_STRUCTURE, TWO_SITE_ATOMIC)
    assert {str(m) for m in multisets} == {
        "1 P(S{i},T{i})::cell",
        "1 P(S{i},T{a})::cell",
    }


def test_ground_rule_counts(two_site_model):
    by_label = {rule.label: rule for rule in two_site_model.rules}
    assert len(ground_rule(by_label["r2"], TWO_SITE_STRUCTURE, TWO_SITE_ATOMIC)) == 4
    assert len(ground_rule(by_label["r1_S"], TWO_SITE_STRUCTURE, TWO_SITE_ATOMIC)) == 2
    grounded = parse_rule("g ~ A{x}::c => A{y}::c")
    assert len(ground_rule(grounded, {}, {"A": frozenset("xy")})) == 1


def test_ground_rule_reactions_are_positionally_consistent(two_site_model):
    for rule in two_site_model.rules:
        lhs_src = deatomise(expand_pattern(rule.lhs, TWO_SITE_STRUCTURE))
        rhs_src = deatomise(expand_pattern(rule.rhs, TWO_SITE_STRUCTURE))
        for lhs, rhs in ground_rule(rule, TWO_SITE_STRUCTURE, TWO_SITE_ATOMIC):
            lhs_res, rhs_res = deatomise(lhs), deatomise(rhs)
            for k in range(min(len(lhs_src), len(rhs_src))):
                if lhs_src[k] == rhs_src[k]:
                    assert lhs_res[k] == rhs_res[k]


def test_ground_rule_matches_definition_on_corpus():
    texts = [TWO_SITE_MODEL] + [random_model_text(seed) for seed in range(200)]
    for text in texts:
        model = parse_model(text)
        signatures = (model.structure_signature, model.atomic_signature)
        for rule in model.rules:
            assert ground_rule(rule, *signatures) == reactions_by_definition(rule, *signatures), (
                text,
                rule,
            )


def test_ground_rule_cap(two_site_model):
    rule = two_site_model.rules[2]  # both sides expand to two ε atomics
    with pytest.raises(GroundingCapError, match="candidate"):
        ground_rule(rule, TWO_SITE_STRUCTURE, TWO_SITE_ATOMIC, cap=15)


def test_pattern_multiset_requires_grounded():
    with pytest.raises(ValueError, match="not grounded"):
        Multiset.from_agents(Pattern((Agent((eps("S"),), "c"),)).agents)


def test_pattern_multiset_counts_duplicates():
    p = parse_pattern("A{x}::c + A{x}::c")
    assert Multiset.from_agents(p.agents) == Multiset({parse_agent("A{x}::c"): 2})
