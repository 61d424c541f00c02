import pytest

from bcsl import (
    EPSILON_LABEL,
    Mrs,
    MrsRule,
    RuleMatcher,
    build_lts,
    build_mrs,
    check_equivalence,
    conformance,
    explore,
    parse_model,
    parse_multiset,
    successors,
)
from bcsl.cli import main
from bcsl.terms import agent_id, agent_of
from conftest import TWO_SITE_MODEL, bench_module
from corpus import random_model_text
from oracles import check_lemmas, graph_view

BOUNDS = {"max_states": 300, "max_depth": 25}


# ---------------------------------------------------------------------------
# Positive checks
# ---------------------------------------------------------------------------

def test_two_site_model_conforms(two_site_model):
    report = check_equivalence(two_site_model)
    assert report.passed
    assert not report.truncated
    assert report.states_checked == 8
    assert report.direct_states == report.grounded_states == 8
    # 8 rule transitions plus 4 ε self-loops on each side
    assert report.direct_transitions == report.grounded_transitions == 12
    assert report.counterexample is None


def test_empty_model_conforms_trivially():
    report = check_equivalence(parse_model("#! rules\n#! inits\n"))
    assert report.passed
    assert report.states_checked == 1
    assert report.direct_transitions == 1  # the ε loop on the empty state


def test_truncated_comparison_still_passes(two_site_model):
    report = check_equivalence(two_site_model, max_states=3)
    assert report.passed
    assert report.truncated


def test_corpus_models_conform():
    for seed in range(40):
        model = parse_model(random_model_text(seed))
        report = check_equivalence(model, **BOUNDS)
        assert report.passed, (seed, report.counterexample)


@pytest.mark.parametrize("text", [TWO_SITE_MODEL, random_model_text(3), random_model_text(7)])
def test_both_semantics_hold_the_model_agent_objects(text):
    model = parse_model(text)
    direct = build_lts(model, **BOUNDS)
    system = build_mrs(model)
    grounded = explore(system.init, lambda m: successors(system, m), **BOUNDS)
    held = [a for graph in (direct, grounded) for state in graph.states for a in state.agents()]
    held += [a for rule in system.rules for side in (rule.pre, rule.post) for a in side.agents()]
    assert len(held) > len(model.init.agents())
    # every agent is the intern table's one object for its id
    assert all(agent_of(agent_id(agent)) is agent for agent in held)
    # and every state and rule side holds exactly those ids
    sides = [state for graph in (direct, grounded) for state in graph.states]
    sides += [side for rule in system.rules for side in (rule.pre, rule.post)]
    for side in sides:
        assert sorted(side.pairs()) == sorted((agent_id(a), n) for a, n in side.items())
    assert model == parse_model(text)
    assert repr(model) == repr(parse_model(text))


# ---------------------------------------------------------------------------
# Negative controls
# ---------------------------------------------------------------------------

def _drop_rule(mrs, index):
    rules = mrs.rules[:index] + mrs.rules[index + 1 :]
    return Mrs(rules, mrs.init)


def test_dropped_grounding_is_detected(two_site_model):
    mrs = build_mrs(two_site_model)
    target = next(
        i
        for i, rule in enumerate(mrs.rules)
        if rule.label == "r2" and rule.pre == parse_multiset("1 P(S{i},T{i})::cell")
    )
    report = check_equivalence(two_site_model, mrs=_drop_rule(mrs, target))
    assert not report.passed
    ce = report.counterexample
    assert ce is not None
    assert ce.direction == "direct_only"
    assert ce.label == "r2"
    assert ce.state == "1 P(S{i},T{i})::cell"


def test_spurious_rule_is_detected(two_site_model):
    mrs = build_mrs(two_site_model)
    bogus = MrsRule(
        "r2",
        parse_multiset("1 P(S{i},T{i})::cell"),
        parse_multiset("2 P(S{i},T{i})::cell"),
    )
    corrupted = Mrs(mrs.rules + (bogus,), mrs.init)
    report = check_equivalence(two_site_model, mrs=corrupted, **BOUNDS)
    assert not report.passed
    assert report.counterexample.direction == "grounded_only"
    assert report.counterexample.label == "r2"


def _uniquely_covering_rules(mrs, max_states, max_depth):
    """Indices of rules that alone produce some reachable transition."""
    graph = explore(mrs.init, lambda m: successors(mrs, m), max_states, max_depth)
    producers: dict[tuple, set[int]] = {}
    for state in graph.states:
        for i, rule in enumerate(mrs.rules):
            if rule.pre.issubset(state):
                edge = (state, rule.label, state.difference(rule.pre).union(rule.post))
                producers.setdefault(edge, set()).add(i)
    unique = set()
    for owners in producers.values():
        if len(owners) == 1:
            unique |= owners
    return sorted(unique)


def _negative_controls():
    """(seed, model, system with one uniquely covering rule dropped) on the corpus."""
    for seed in range(25):
        model = parse_model(random_model_text(seed))
        mrs = build_mrs(model)
        for index in _uniquely_covering_rules(mrs, **BOUNDS)[:2]:
            yield seed, model, _drop_rule(mrs, index)


def test_corpus_negative_controls_fail_with_counterexamples():
    mutated = 0
    for seed, model, dropped in _negative_controls():
        report = check_equivalence(model, mrs=dropped, **BOUNDS)
        assert not report.passed, seed
        assert report.counterexample is not None
        mutated += 1
    assert mutated >= 10


def _drop_r2_at(mrs, *texts):
    starts = {parse_multiset(text) for text in texts}
    rules = tuple(r for r in mrs.rules if not (r.label == "r2" and r.pre in starts))
    assert len(rules) == len(mrs.rules) - len(starts)
    return Mrs(rules, mrs.init)


def test_counterexample_comes_from_the_first_differing_state_in_walk_order(two_site_model):
    # r2 is lost at the initial state and one step later, at a state whose
    # text sorts first; the walk meets the initial state first.
    init, deeper = "1 P(S{i},T{i})::cell", "1 P(S{a},T{i})::cell"
    assert deeper < init
    lossy = _drop_r2_at(build_mrs(two_site_model), init, deeper)
    report = check_equivalence(two_site_model, mrs=lossy)
    ce = report.counterexample
    assert (ce.kind, ce.direction, ce.state, ce.label) == ("transition", "direct_only", init, "r2")
    assert ce.detail == (
        "direct rewriting reaches 1 P(S{i},T{i})::out via 'r2' but no grounded rule does"
    )
    assert (report.direct_states, report.direct_transitions) == (8, 12)
    assert (report.grounded_states, report.grounded_transitions) == (6, 8)
    assert (report.states_checked, report.truncated) == (8, False)


def test_a_difference_the_state_cap_drops_still_fails(
    two_site_model, tmp_path, monkeypatch, capsys
):
    # At three states the cap keeps the initial state's r1_S and r1_T edges
    # and drops its r2 edge, the only one that the grounded side lacks.
    # Both kept graphs agree, but the initial state, which the walk
    # expands, has two different successor sets.
    init = "1 P(S{i},T{i})::cell"
    lossy = _drop_r2_at(build_mrs(two_site_model), init)
    report = check_equivalence(two_site_model, max_states=3, mrs=lossy)
    assert report.truncated and not report.passed
    ce = report.counterexample
    assert (ce.direction, ce.state, ce.label) == ("direct_only", init, "r2")
    assert (report.direct_states, report.direct_transitions) == (3, 2)
    assert (report.grounded_states, report.grounded_transitions) == (3, 2)

    monkeypatch.setattr(conformance, "build_mrs", lambda model: lossy)
    path = tmp_path / "model.bcsl"
    path.write_text(TWO_SITE_MODEL, encoding="utf-8")
    assert main(["check", str(path), "--max-states", "3"]) == 1
    assert "warning: exploration truncated by bounds; prefixes compared" in capsys.readouterr().out


def test_a_system_that_starts_elsewhere_fails():
    # Both graphs hold the same two states and edges, but the runs start
    # at different states.
    model = parse_model(
        "#! rules\nr ~ A{x}::c => A{y}::c\ns ~ A{y}::c => A{x}::c\n#! inits\n1 A{x}::c\n"
    )
    elsewhere = Mrs(build_mrs(model).rules, parse_multiset("1 A{y}::c"))
    report = check_equivalence(model, mrs=elsewhere)
    assert not report.passed
    ce = report.counterexample
    assert (ce.kind, ce.direction, ce.state) == ("state", "direct_only", "1 A{x}::c")
    assert ce.detail == (
        "runs start here by direct rewriting but at 1 A{y}::c in the grounded system"
    )
    assert (report.direct_states, report.grounded_states, report.states_checked) == (2, 2, 2)


def _one_walk_against_two(model, mrs, bounds):
    """``check_equivalence``'s report, checked against separate walks of both sides.

    A passing report needs equal graphs, unequal graphs need a failing
    one, and the report's counts are the two graphs' counts.  Returns
    the report and whether the graphs are equal.
    """
    report = check_equivalence(model, mrs=mrs, **bounds)
    matcher = RuleMatcher(model)
    direct = explore(model.init, lambda m: matcher.successors(m) or {(EPSILON_LABEL, m)}, **bounds)
    grounded = explore(mrs.init, lambda m: successors(mrs, m), **bounds)
    same = graph_view(direct) == graph_view(grounded)
    assert report.passed <= same
    assert (report.states_checked, report.truncated) == (
        len({*direct.states, *grounded.states}),
        direct.truncated or grounded.truncated,
    )
    assert (report.direct_states, report.direct_transitions) == (
        direct.n_states,
        direct.n_transitions,
    )
    assert (report.grounded_states, report.grounded_transitions) == (
        grounded.n_states,
        grounded.n_transitions,
    )
    return report, same


def test_one_walk_agrees_with_two_independent_walks():
    bench_bounds = {"max_states": 50, "max_depth": 25}
    truncated = 0
    for text in bench_module("models").corpus_models(200):
        model = parse_model(text)
        report, equal = _one_walk_against_two(model, build_mrs(model), bench_bounds)
        assert equal and report.passed
        truncated += report.truncated
    assert truncated > 0
    unequal = 0
    for _, model, dropped in _negative_controls():
        for bounds in (BOUNDS, bench_bounds):
            unequal += not _one_walk_against_two(model, dropped, bounds)[1]
    assert unequal >= 10


# ---------------------------------------------------------------------------
# Per-state, per-rule agreement
# ---------------------------------------------------------------------------

def test_lemmas_at_initial_state(two_site_model):
    reports = check_lemmas(two_site_model, two_site_model.init)
    assert set(reports) == {"r1_S", "r1_T", "r2"}
    r2 = reports["r2"]
    assert r2.direct_enabled and r2.grounded_enabled
    assert r2.direct_targets == r2.grounded_targets == frozenset(
        {parse_multiset("1 P(S{i},T{i})::out")}
    )
    for report in reports.values():
        assert report.enabledness_agrees
        assert report.application_agrees


def test_lemmas_rule_with_absent_agent(two_site_model):
    state = parse_multiset("1 P(S{a},T{a})::out")
    reports = check_lemmas(two_site_model, state)
    for report in reports.values():
        assert not report.direct_enabled
        assert not report.grounded_enabled
        assert report.direct_targets == report.grounded_targets == frozenset()


def test_lemmas_partially_enabled_state(two_site_model):
    state = parse_multiset("1 P(S{a},T{a})::cell")
    reports = check_lemmas(two_site_model, state)
    assert not reports["r1_S"].direct_enabled
    assert not reports["r1_S"].grounded_enabled
    assert reports["r2"].direct_enabled
    assert reports["r2"].direct_targets == frozenset(
        {parse_multiset("1 P(S{a},T{a})::out")}
    )


def test_lemmas_agree_on_corpus_states():
    for seed in range(10):
        model = parse_model(random_model_text(seed))
        reports = check_lemmas(model, model.init)
        for report in reports.values():
            assert report.enabledness_agrees, (seed, report.label)
            assert report.application_agrees, (seed, report.label)
