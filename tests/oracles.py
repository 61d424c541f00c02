"""Reference implementations that the tests compare the program against.

None of these is reached by a ``bcsl`` command.  Each states a definition
of the paper, or an earlier, slower form of a computation the program now
makes another way, as directly as it can:

* ``check_lemmas`` — the per-state lemmas relating the two semantics:
  enabledness and the successor set of each rule, direct vs grounded;
* ``consistent`` — positional consistency of two instantiations, the
  definition ``patterns.ground_rule`` computes by grouping;
* ``ground_pattern`` — every concrete multiset a pattern stands for;
* ``enumerated_matches`` — the agents an expanded agent pattern matches,
  with the ε assignment of each, the oracle of the direct matcher's
  unification;
* ``map_states`` — the quotient of an LTS by a projection of its states;
* ``transitive_closure`` — the fix-point closure of a label relation, the
  oracle of the reachability walks of an ``ordered`` regulation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

from bcsl.lts import Lts, RuleMatcher
from bcsl.mrs import apply_rule, build_mrs, enabled
from bcsl.patterns import (
    DEFAULT_GROUNDING_CAP,
    Instantiation,
    deatomise,
    enumerate_instantiations,
    expand_pattern,
    pattern_multiset,
)
from bcsl.syntax import BcslModel
from bcsl.terms import Agent, Multiset, Pattern, agent_id


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
            pattern_multiset(inst.result).issubset(state)
            for inst in enumerate_instantiations(lhs, model.atomic_signature)
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


def consistent(first: Instantiation, second: Instantiation) -> bool:
    """Positional consistency of two instantiations.

    At every shared deatomisation position, equal source atomics (name and
    feature; ε equals only ε) must have received equal resolved atomics.
    """
    s1, s2 = deatomise(first.source), deatomise(second.source)
    r1, r2 = deatomise(first.result), deatomise(second.result)
    n = min(len(s1), len(s2))
    return all(s1[k] != s2[k] or r1[k] == r2[k] for k in range(n))


def ground_pattern(
    pattern: Pattern,
    structure_signature: Mapping[str, frozenset[str]],
    atomic_signature: Mapping[str, frozenset[str]],
    cap: int = DEFAULT_GROUNDING_CAP,
) -> frozenset[Multiset]:
    """All concrete multisets the pattern can stand for."""
    expanded = expand_pattern(pattern, structure_signature)
    return frozenset(
        pattern_multiset(inst.result)
        for inst in enumerate_instantiations(expanded, atomic_signature, cap)
    )


def enumerated_matches(
    agent: Agent, atomic_signature: Mapping[str, frozenset[str]]
) -> dict[int, list[tuple[str, ...]]]:
    """Each instantiation of the (expanded) agent pattern, canonicalised.

    Maps the id of each canonical agent to the ε assignments that
    instantiate the pattern to it, in enumeration order.
    """
    found: dict[int, list[tuple[str, ...]]] = {}
    for inst in enumerate_instantiations(Pattern((agent,)), atomic_signature):
        found.setdefault(agent_id(inst.result.agents[0]), []).append(inst.assignment)
    return found


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
