"""Multiset rewriting systems: representation, construction, run semantics.

A system is a finite element universe, a set of rewrite rules (pairs of
multisets tagged with the label of the originating model rule) and an
initial multiset.  The reserved rule ``ε = (∅, ∅)`` is implicit and fires
exactly when nothing else is enabled, so every run can be extended
forever; finite run prefixes therefore end in ε-stuttering.

Rule application here is definitional (``enabled``, ``apply_rule``,
``successors``): it is the oracle the direct matcher is checked against.
Only the state type and its intern table of agent ids (``terms.agent_id``)
are shared with the direct side.

Two parts of a system are computed on first read, so that ``check``
pays only for what it uses.
The element universe (``Mrs.elements``), which only ``bcsl ground``
reads, is read off the grounded rules; nothing is grounded twice.  Every
grounding of a single rule agent occurs in some reaction, because each
ε slot ranges over its signature independently.  The rule index narrows
the rules ``successors`` tests at a state to those that can be enabled
there: each rule sits under the id of one agent of its ``pre``, so a rule
whose key agent is absent cannot fire (the species -> reaction dependency
graph of Gibson and Bruck's next reaction method).  The index only narrows the
candidates; ``enabled`` and ``apply_rule`` decide as before.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection

from .patterns import ground_rule, pattern_multiset
from .syntax import BcslModel
from .terms import Agent, Multiset, agent_id

#: Reserved label of the implicit empty rule; model rules may not use it.
EPSILON_LABEL = "ε"


@dataclass(frozen=True)
class MrsRule:
    """One rewrite rule: consume ``pre``, produce ``post``."""

    label: str
    pre: Multiset
    post: Multiset

    def __str__(self) -> str:
        return f"{self.label}: {self.pre} => {self.post}"


@dataclass(frozen=True)
class Mrs:
    """A multiset rewriting system over a finite element universe.

    ``rules`` excludes the implicit ε rule and is stored sorted for
    reproducible output.  ``elements``, the universe, and the rule index
    of ``successors`` are computed on first read from this instance's own
    ``init`` and ``rules``, so a copy made with
    ``dataclasses.replace(mrs, rules=...)`` has its own.
    """

    rules: tuple[MrsRule, ...]
    init: Multiset

    @cached_property
    def elements(self) -> frozenset[Agent]:
        """The init agents plus the agents of every rule's ``pre`` and ``post``."""
        elements = set(self.init.agents())
        for rule in self.rules:
            elements.update(rule.pre.agents())
            elements.update(rule.post.agents())
        return frozenset(elements)

    @cached_property
    def rule_index(self) -> tuple[dict[int, tuple[MrsRule, ...]], tuple[MrsRule, ...]]:
        """Rules by the id of their key agent (the first agent of ``pre`` by
        text), and the rules with an empty ``pre``, which every state must test."""
        keyed: dict[int, list[MrsRule]] = {}
        unconditional: list[MrsRule] = []
        for rule in self.rules:
            agents = rule.pre.agents()
            if agents:
                keyed.setdefault(agent_id(agents[0]), []).append(rule)
            else:
                unconditional.append(rule)
        return {agent: tuple(rules) for agent, rules in keyed.items()}, tuple(unconditional)


@dataclass(frozen=True)
class Run:
    """A finite run prefix: ``labels[i]`` produced ``states[i+1]`` from ``states[i]``."""

    states: tuple[Multiset, ...]
    labels: tuple[str, ...]


def build_mrs(model: BcslModel) -> Mrs:
    """Ground a model into a multiset rewriting system.

    The rules are the reactions of every model rule read as multiset
    pairs (duplicates collapse), over the agent ids that the direct matcher
    uses too.  Grounding stops at the grounding cap with
    ``GroundingCapError``; ``Mrs.elements`` is read off these rules and
    grounds nothing.
    """
    seen: dict[MrsRule, None] = {}
    for rule in model.rules:
        if rule.label == EPSILON_LABEL:
            raise ValueError(f"rule label {EPSILON_LABEL!r} is reserved")
        for reaction in ground_rule(rule, model.structure_signature, model.atomic_signature):
            mu = MrsRule(
                rule.label,
                pattern_multiset(reaction.lhs_inst.result),
                pattern_multiset(reaction.rhs_inst.result),
            )
            seen[mu] = None

    ordered = tuple(sorted(seen, key=lambda r: (r.label, str(r.pre), str(r.post))))
    return Mrs(ordered, model.init)


def enabled(rule: MrsRule, state: Multiset) -> bool:
    """True when the rule's pre-multiset is contained in the state."""
    return rule.pre.issubset(state)


def apply_rule(rule: MrsRule, state: Multiset) -> Multiset:
    """Apply an enabled rule: remove ``pre``, then add ``post``."""
    if not enabled(rule, state):
        raise ValueError(f"rule {rule.label!r} is not enabled at {state}")
    return state.difference(rule.pre).union(rule.post)


def successors(mrs: Mrs, state: Multiset) -> frozenset[tuple[str, Multiset]]:
    """All labelled next states; exactly ``{(ε, state)}`` when nothing is enabled.

    Only the rules with an empty ``pre`` and those indexed under an agent
    present in ``state`` are tested (``Mrs.rule_index``); every other rule
    lacks an agent of its ``pre`` here, so it is not enabled.
    """
    keyed, unconditional = mrs.rule_index
    out = {
        (rule.label, apply_rule(rule, state)) for rule in unconditional if enabled(rule, state)
    }
    for agent, _ in state.pairs():
        for rule in keyed.get(agent, ()):
            if enabled(rule, state):
                out.add((rule.label, apply_rule(rule, state)))
    if not out:
        return frozenset({(EPSILON_LABEL, state)})
    return frozenset(out)


def sample_run(
    initial: Multiset,
    successor_fn: Callable[[Multiset], Collection[tuple[str, Multiset]]],
    steps: int,
    seed: int = 0,
    guard=None,
) -> Run:
    """Sample a run prefix of ``steps`` steps, uniformly among successors.

    ``successor_fn`` is the direct matcher's or the grounded system's;
    its ε successors are left out.  Reproducible for a fixed seed: moves
    are drawn from the successors sorted by label and state text.
    ``guard`` is a guard of the regulation module (anything with
    ``initial_memory`` and ``step``): only the moves its ``step`` permits
    are sampled, and the memory advances with each applied rule.  With no
    (permitted) successor the run stutters on ε.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rng = random.Random(seed)
    state = initial
    states = [state]
    labels: list[str] = []
    memory = guard.initial_memory() if guard is not None else None
    for _ in range(steps):
        base = sorted(
            ((label, target) for label, target in successor_fn(state) if label != EPSILON_LABEL),
            key=lambda lt: (lt[0], str(lt[1])),
        )
        if guard is None:
            moves = [(label, (target, None)) for label, target in base]
        else:
            moves = guard.step(memory, state, base)
        if moves:
            label, (target, memory) = rng.choice(moves)
        else:
            label, target = EPSILON_LABEL, state
        labels.append(label)
        states.append(target)
        state = target
    return Run(tuple(states), tuple(labels))
