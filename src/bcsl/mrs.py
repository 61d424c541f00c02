"""Multiset rewriting systems: representation, construction, rule application.

A system is a finite element universe, a set of rewrite rules (pairs of
multisets tagged with the label of the originating model rule) and an
initial multiset.  The reserved rule ``ε = (∅, ∅)`` is implicit and fires
exactly when nothing else is enabled, so every run can be extended
forever; finite run prefixes therefore end in ε-stuttering.

Rule application here is definitional (``enabled``, ``apply_rule``,
``successors``): it is the oracle the direct matcher is checked against.
Walks over either semantics live in ``lts``.
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

from functools import cached_property

from .patterns import ground_rule
from .syntax import BcslModel
from .terms import Agent, Multiset, _Record, agent_id

#: Reserved label of the implicit empty rule; model rules may not use it.
EPSILON_LABEL = "ε"


class MrsRule(_Record):
    """One rewrite rule: consume ``pre``, produce ``post``."""

    __slots__ = _fields = ("label", "pre", "post")

    def __init__(self, label: str, pre: Multiset, post: Multiset) -> None:
        self.label = label
        self.pre = pre
        self.post = post

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.label == other.label and self.pre == other.pre and self.post == other.post

    def __hash__(self) -> int:
        return hash((self.label, self.pre, self.post))

    def __str__(self) -> str:
        return f"{self.label}: {self.pre} => {self.post}"


class Mrs(_Record):
    """A multiset rewriting system over a finite element universe.

    ``rules`` excludes the implicit ε rule and is stored sorted for
    reproducible output.  ``elements``, the universe, and the rule index
    of ``successors`` are computed on first read from this instance's own
    ``init`` and ``rules``, so a copy with other rules, ``Mrs(rules,
    mrs.init)``, has its own.  Two systems are equal only when they are
    the same object.
    """

    _fields = ("rules", "init")

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
        for lhs, rhs in ground_rule(rule, model.structure_signature, model.atomic_signature):
            mu = MrsRule(
                rule.label, Multiset.from_agents(lhs.agents), Multiset.from_agents(rhs.agents)
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
