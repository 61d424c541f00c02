"""Reference implementations that the tests compare the program against.

None of these is reached by a ``bcsl`` command.  Each states a definition
of the paper, or an earlier, slower form of a computation the program now
makes another way, as directly as it can:

* ``check_lemmas`` — the per-state lemmas relating the two semantics:
  enabledness and the successor set of each rule, direct vs grounded;
* ``consistent`` — positional consistency of two instantiations, each a
  ``(source, result)`` pair of patterns, the definition
  ``patterns.ground_rule`` computes by grouping;
* ``reactions_by_definition`` — every lhs × rhs instantiation pair that
  ``consistent`` accepts, lhs-major, the oracle of ``ground_rule``;
* ``ground_pattern`` — every concrete multiset a pattern stands for;
* ``enumerated_matches`` — the agents an expanded agent pattern matches,
  with the ε assignment of each, the oracle of the direct matcher's
  unification;
* ``resolved_effects`` — what one match of a prepared rule consumes and
  produces, each right-hand side rebuilt by ``assign_features``, the
  oracle of the matcher's text templates;
* ``grounded_concurrency`` — the concurrency relation read off the
  grounded rules, the oracle of ``regulation.concurrency_relation``;
* ``map_states`` — the quotient of an LTS by a projection of its states;
* ``transitive_closure`` — the fix-point closure of a label relation, the
  oracle of the reachability walks of an ``ordered`` regulation;
* ``dot_by_definition`` — the DOT text of an LTS with its nodes sorted by
  ``(label_fn text, str text)`` and its edges as ``(source index, label, target
  index)`` tuples, the oracle of ``lts_to_dot``'s integer edge codes;
* ``text_by_definition`` — the ``--format text`` lines of a graph or a run
  tree, read off ``lts_to_json_obj`` or ``tree_to_json_obj``, the oracle of
  the CLI's text rows from integer edge codes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

from bcsl.lts import (
    Lts,
    RuleMatcher,
    RunTree,
    _dot_quote,
    _PreparedRule,
    lts_to_json_obj,
    tree_to_json_obj,
)
from bcsl.mrs import Mrs, apply_rule, build_mrs, enabled
from bcsl.patterns import (
    DEFAULT_GROUNDING_CAP,
    assign_features,
    deatomise,
    enumerate_instantiations,
    expand_pattern,
)
from bcsl.syntax import BcslModel, BcslRule
from bcsl.terms import EPSILON, Agent, Multiset, Pattern, agent_id


@dataclass(frozen=True)
class LemmaReport:
    """Per-rule agreement of the two semantics at one state."""

    label: str
    direct_enabled: bool
    grounded_enabled: bool
    direct_targets: frozenset[Multiset]
    grounded_targets: frozenset[Multiset]

    @property
    def enabledness_agrees(self) -> bool:
        return self.direct_enabled == self.grounded_enabled

    @property
    def application_agrees(self) -> bool:
        return self.direct_targets == self.grounded_targets


def check_lemmas(model: BcslModel, state: Multiset) -> dict[str, LemmaReport]:
    """Per-rule agreement of enabledness and successor sets at ``state``.

    The direct side asks whether some instantiation of the (expanded)
    left-hand side is contained in the state and collects the matcher's
    rewrite targets; the grounded side asks ``enabled`` and
    ``apply_rule`` of the rules of ``build_mrs(model)`` with the label.
    """
    matcher = RuleMatcher(model)
    direct_successors = matcher.successors(state)
    grounded_rules = build_mrs(model).rules
    reports: dict[str, LemmaReport] = {}
    for rule in model.rules:
        lhs = expand_pattern(rule.lhs, model.structure_signature)
        direct_enabled = any(
            Multiset.from_agents(result.agents).issubset(state)
            for result in enumerate_instantiations(lhs, model.atomic_signature)
        )
        direct_targets = frozenset(
            target for label, target in direct_successors if label == rule.label
        )
        fired = [mu for mu in grounded_rules if mu.label == rule.label and enabled(mu, state)]
        grounded_targets = frozenset(apply_rule(mu, state) for mu in fired)
        reports[rule.label] = LemmaReport(
            rule.label, direct_enabled, bool(fired), direct_targets, grounded_targets
        )
    return reports


def consistent(first: tuple[Pattern, Pattern], second: tuple[Pattern, Pattern]) -> bool:
    """Positional consistency of two instantiations, each a ``(source,
    result)`` pair: a pattern and one of its ε-free instantiations.

    At every shared deatomisation position, equal source atomics (name and
    feature; ε equals only ε) must have received equal resolved atomics.
    """
    s1, s2 = deatomise(first[0]), deatomise(second[0])
    r1, r2 = deatomise(first[1]), deatomise(second[1])
    n = min(len(s1), len(s2))
    return all(s1[k] != s2[k] or r1[k] == r2[k] for k in range(n))


def reactions_by_definition(
    rule: BcslRule,
    structure_signature: Mapping[str, frozenset[str]],
    atomic_signature: Mapping[str, frozenset[str]],
) -> tuple[tuple[Pattern, Pattern], ...]:
    """Every lhs × rhs instantiation pair that ``consistent`` accepts, lhs-major."""
    lhs = expand_pattern(rule.lhs, structure_signature)
    rhs = expand_pattern(rule.rhs, structure_signature)
    return tuple(
        (left, right)
        for left in enumerate_instantiations(lhs, atomic_signature)
        for right in enumerate_instantiations(rhs, atomic_signature)
        if consistent((lhs, left), (rhs, right))
    )


def ground_pattern(
    pattern: Pattern,
    structure_signature: Mapping[str, frozenset[str]],
    atomic_signature: Mapping[str, frozenset[str]],
    cap: int = DEFAULT_GROUNDING_CAP,
) -> frozenset[Multiset]:
    """All concrete multisets the pattern can stand for."""
    expanded = expand_pattern(pattern, structure_signature)
    return frozenset(
        Multiset.from_agents(result.agents)
        for result in enumerate_instantiations(expanded, atomic_signature, cap)
    )


def enumerated_matches(
    agent: Agent, atomic_signature: Mapping[str, frozenset[str]]
) -> dict[int, list[tuple[str, ...]]]:
    """Each instantiation of the (expanded) agent pattern, canonicalised.

    Maps the id of each canonical agent to the ε assignments that
    instantiate the pattern to it, in enumeration order.  An assignment is
    read off the instantiation's atomics at the pattern's ε positions.
    """
    pattern = Pattern((agent,))
    slots = [k for k, atom in enumerate(deatomise(pattern)) if atom.feature == EPSILON]
    found: dict[int, list[tuple[str, ...]]] = {}
    for result in enumerate_instantiations(pattern, atomic_signature):
        atoms = deatomise(result)
        assignment = tuple(atoms[k].feature for k in slots)
        found.setdefault(agent_id(result.agents[0]), []).append(assignment)
    return found


def resolved_effects(
    rule: _PreparedRule,
    match: tuple[tuple[int, int], ...],
    atomic_signature: Mapping[str, frozenset[str]],
) -> tuple[tuple[str, dict[int, int], dict[int, int]], ...]:
    """What ``match`` (``(agent id, assignment index)`` per left-hand
    position) consumes and produces, one ``(label, consumed, produced)``
    per resolution of the right-hand ε atomics, in ``itertools.product``
    order.

    A right-hand ε atomic equal to the left-hand atomic at its position
    takes that atomic's assigned feature; any other ranges over its
    signature.  Each resolution rebuilds the right-hand side with
    ``assign_features``.
    """
    lhs, rhs = deatomise(rule.lhs), deatomise(rule.rhs)
    features = [f for i, (a, k) in enumerate(match) for f in rule.matches(i, a)[k]]
    assigned = dict(zip([j for j, atom in enumerate(lhs) if atom.feature == EPSILON], features))
    slots = [j for j, atom in enumerate(rhs) if atom.feature == EPSILON]
    options = []
    for j in slots:
        forced = j < len(lhs) and lhs[j] == rhs[j]
        options.append([assigned[j]] if forced else sorted(atomic_signature[rhs[j].name]))
    consumed = dict(Counter(a for a, _ in match))
    return tuple(
        (
            rule.label,
            consumed,
            dict(Counter(map(agent_id, assign_features(rule.rhs, dict(zip(slots, combo))).agents))),
        )
        for combo in itertools.product(*options)
    )


def grounded_concurrency(mrs: Mrs) -> frozenset[tuple[str, str]]:
    """Label pairs with a grounded rule each whose ``pre`` share an agent."""
    pres: dict[str, list[Multiset]] = {}
    for rule in mrs.rules:
        pres.setdefault(rule.label, []).append(rule.pre)
    related: set[tuple[str, str]] = set()
    for a, b in itertools.combinations_with_replacement(sorted(pres), 2):
        if any(bool(pa.intersection(pb)) for pa in pres[a] for pb in pres[b]):
            related.add((a, b))
            related.add((b, a))
    return frozenset(related)


def map_states(lts: Lts, project: Callable[[Hashable], Hashable]) -> Lts:
    """Quotient an LTS by projecting its states (e.g. dropping memory)."""
    return Lts(
        project(lts.initial),
        frozenset(project(s) for s in lts.states),
        frozenset((project(a), label, project(b)) for a, label, b in lts.transitions),
        frozenset(project(s) for s in lts.unsettled),
    )


def transitive_closure(pairs: frozenset[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """The transitive closure of ``pairs``, by a fix-point over all pairs of pairs."""
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(closure), repeat=2):
            if b == c and (a, d) not in closure:
                closure.add((a, d))
                changed = True
    return frozenset(closure)


def dot_by_definition(lts: Lts, label_fn: Callable[[Hashable], str] = str) -> str:
    """The DOT digraph ``lts_to_dot`` writes, with every edge sorted as a tuple."""
    text = {state: label_fn(state) for state in lts.states}
    ordered = sorted(lts.states, key=lambda s: (text[s], str(s)))
    order = {state: i for i, state in enumerate(ordered)}
    lines = ["digraph lts {"]
    for i, state in enumerate(ordered):
        root = ", peripheries=2" if state == lts.initial else ""
        lines.append(f"  s{i} [label={_dot_quote(text[state])}{root}];")
    for src, label, tgt in sorted((order[s], label, order[t]) for s, label, t in lts.transitions):
        lines.append(f"  s{src} -> s{tgt} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def text_by_definition(walk: Lts | RunTree, label_fn: Callable[[Hashable], str] = str) -> str:
    """The text ``bcsl lts --format text`` writes: the JSON object's counts,
    then its rows, one edge per line."""
    if isinstance(walk, Lts):
        obj = lts_to_json_obj(walk, label_fn)
        lines = [
            f"states: {len(obj['states'])}",
            f"transitions: {len(obj['transitions'])}",
            f"truncated: {str(obj['truncated']).lower()}",
            f"initial: {obj['initial']}",
        ]
        rows = obj["transitions"]
    else:
        obj = tree_to_json_obj(walk, label_fn)
        lines = [
            f"nodes: {len(obj['nodes'])}",
            f"edges: {len(obj['edges'])}",
            f"truncated: {str(obj['truncated']).lower()}",
        ]
        text = [node["state"] for node in obj["nodes"]]
        rows = [(text[parent], label, text[child]) for parent, label, child in obj["edges"]]
    lines.extend(f"  {src} --{label}--> {tgt}" for src, label, tgt in rows)
    return "\n".join(lines)
