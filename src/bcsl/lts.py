"""Direct rewriting semantics and reachable transition systems.

``RuleMatcher`` applies model rules to a state straight from the rule
patterns (expand, unify left-hand agents with the state's agents up to
congruence, resolve the right-hand side consistently by filling in text
templates) without grounding anything: no left-hand pattern is
enumerated, so the cost follows the state, not the signature.  It finds
its rules by agent: a table, filled the first time a state holds an
agent, gives the effects of the one-agent rules that agent matches and
the starts of the longer rules, whose other left-hand agents are matched
by backtracking from position 1.
The table, the matches and the effects key on agent ids of the one
intern table (``terms.agent_id``), the ids that grounding puts into the
grounded rules too, so matching never hashes an agent and states of both
semantics are equal exactly when their pairs are.
``explore`` computes the bounded breadth-first closure of any successor
function; ``unroll`` produces the depth-bounded tree used for run-set
pictures.  Exports (DOT through one writer, ``_dot``, and JSON) are
canonically sorted so repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import prod
from operator import itemgetter
from typing import Callable, Collection, Hashable, Iterable

from .mrs import EPSILON_LABEL
from .patterns import (
    DEFAULT_GROUNDING_CAP,
    GroundingCapError,
    _feature_options,
    assign_features,
    deatomise,
    expand_pattern,
)
from .syntax import BcslModel
from .terms import _IDS, EPSILON, Multiset, agent_id, agent_of

Transition = tuple[Hashable, str, Hashable]
# What one match of a rule does: its label, the agent ids it consumes and
# those it produces, for ``Multiset.rewrite``.
Effect = tuple[str, dict[int, int], dict[int, int]]
SuccessorFn = Callable[[Hashable], Collection[tuple[str, Hashable]]]


@dataclass(frozen=True)
class Lts:
    """Reachable labelled transition graph.

    ``unsettled`` holds states whose outgoing transitions are not fully
    represented because a bound was hit (never expanded, or successors
    dropped by the state cap); ``truncated`` says whether there are any.
    """

    initial: Hashable
    states: frozenset
    transitions: frozenset[Transition]
    unsettled: frozenset = frozenset()

    @property
    def truncated(self) -> bool:
        return bool(self.unsettled)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)


@dataclass(frozen=True)
class RunTree:
    """Depth-bounded unrolling: fresh node per step, ε edges omitted.

    ``states[i]`` is the state at node ``i``; node 0 is the root.
    """

    states: tuple
    edges: tuple[tuple[int, str, int], ...]
    truncated: bool = False

    @property
    def n_nodes(self) -> int:
        return len(self.states)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def node_texts(self, label_fn: Callable[[Hashable], str]) -> list[str]:
        """``label_fn`` of each node's state, called once per distinct state."""
        text = dict.fromkeys(self.states)
        for state in text:
            text[state] = label_fn(state)
        return [text[state] for state in self.states]


@dataclass(frozen=True)
class LabelSequences:
    """Maximal non-ε label sequences up to a depth (library API, README § Library).

    A sequence lands in ``incomplete`` when the depth bound cut it off
    while further non-ε steps were possible, or when it reaches a state
    that a bound of the exploration left unsettled.
    """

    complete: frozenset[tuple[str, ...]]
    incomplete: frozenset[tuple[str, ...]]


# ---------------------------------------------------------------------------
# Direct rule application
# ---------------------------------------------------------------------------

# ``name{ε}`` in the escaped text of a component.
_EPSILON_SLOT = re.compile(r"(\w+)\\\{ε\\\}")


class _PreparedRule:
    """One model rule preprocessed for repeated application.

    A left-hand agent is matched by unification the first time a state
    agent meets its position: ``matches(i, agent)`` pairs the pattern's
    chain components with the state agent's (same compartment), in any
    order, with equal names and equal features wherever the pattern's
    feature is not ε: a pattern component is a regex, its own text with
    each ``{ε}`` a group over the signature's features of its atomic.
    A one-component pattern's regex reads the whole agent text,
    compartment included, so it matches by one ``fullmatch`` and no
    pairing search.  Each pairing gives one assignment of the agent's ε
    features (the groups), and the list of them is memoised per position
    and agent id.  Repeated components give several assignments:
    ``P().P()::c`` matches ``P(S{a}).P(S{b})::c`` with S = a, b and with
    S = b, a, which resolve the right-hand side differently.

    Right-hand ε slots are either forced (the same source atomic at the
    same position on the left, so the resolved feature must match; no
    options) or free over the signature.  Free slots with more
    resolutions than the grounding cap raise ``GroundingCapError``.

    What a match consumes and produces depends only on the agents it
    picks and their assignments, so ``effects`` computes both on first
    use and memoises them in ``_effects``, keyed by the ``(agent id,
    assignment index)`` picked at each left-hand position.  A produced
    agent is found by its text: each right-hand agent has a template,
    its expanded text with every ``{ε}`` a ``%s`` field, built on the
    first ``effects`` call (so construction costs nothing for it).  The
    filled-in text is looked up in the intern table; only a spelling
    never met before, such as a non-canonical chain order, is rebuilt
    with ``assign_features`` and interned by ``agent_id``.
    """

    def __init__(self, rule, structure_signature, atomic_signature):
        self.label = rule.label
        self.lhs = expand_pattern(rule.lhs, structure_signature)
        self.rhs = expand_pattern(rule.rhs, structure_signature)

        def slot(m: re.Match) -> str:  # ``{ε}`` as a group over the atomic's features
            return m[1] + r"\{(" + "|".join(_feature_options(m[1], atomic_signature)) + r")\}"

        def regexes(agent) -> list[re.Pattern]:
            """A regex per chain component for the texts of the grounded
            components it unifies with; a lone component's reads the whole
            agent text."""
            found = [_EPSILON_SLOT.sub(slot, re.escape(str(c))) for c in agent.chain]
            if len(found) == 1:
                found[0] += re.escape("::" + agent.compartment)
            return [re.compile(regex) for regex in found]

        self._regexes = [regexes(agent) for agent in self.lhs.agents]
        self._matches: list[dict[int, list[tuple[str, ...]]]] = [{} for _ in self.lhs.agents]
        self._effects: dict[tuple[tuple[int, int], ...], tuple[Effect, ...]] = {}
        # Built on the first ``effects`` call (``_rhs_templates``).
        self._templates: list[tuple[str, int, int]] | None = None
        lhs_atoms = deatomise(self.lhs)
        # The lhs ε positions, in the order the matches' features fill them.
        self._epsilon = [j for j, atom in enumerate(lhs_atoms) if atom.feature == EPSILON]
        # Right-hand ε slots: (position, None) when forced, else (position, features).
        self.rhs_slots: list[tuple[int, list[str] | None]] = []
        for j, atom in enumerate(deatomise(self.rhs)):
            if atom.feature == EPSILON:
                forced = j < len(lhs_atoms) and lhs_atoms[j] == atom
                options = None if forced else _feature_options(atom.name, atomic_signature)
                self.rhs_slots.append((j, options))
        resolutions = prod(len(options) for _, options in self.rhs_slots if options)
        if resolutions > DEFAULT_GROUNDING_CAP:
            raise GroundingCapError(
                f"rule {self.label!r} has {resolutions} right-hand resolutions, "
                f"exceeding the cap of {DEFAULT_GROUNDING_CAP}"
            )

    def matches(self, i: int, agent: int) -> list[tuple[str, ...]]:
        """The ε assignments under which left-hand agent ``i`` matches ``agent``, memoised."""
        found = self._matches[i].get(agent)
        if found is None:
            pattern, target, regexes = self.lhs.agents[i], agent_of(agent), self._regexes[i]
            if len(regexes) == 1:  # one component: a fullmatch, no pairing search
                m = regexes[0].fullmatch(target.text)
                found = [m.groups()] if m else []
            elif (pattern.compartment, len(regexes)) == (target.compartment, len(target.chain)):
                pairings = _backtrack(
                    lambda k, left: [
                        (text, m.groups())
                        for text, n in left.items()
                        if n and (m := regexes[k].fullmatch(text))
                    ],
                    len(regexes),
                    _count(target.text.rpartition("::")[0].split(".")),  # component texts
                )
                found = [sum((features for _, features in picks), ()) for picks in pairings]
            else:
                found = []
            self._matches[i][agent] = found
        return found

    def candidates(self, i: int, remaining: dict[int, int]) -> list[tuple[int, int]]:
        """``(agent id, assignment index)`` of every match at position ``i`` on ``remaining``."""
        return [(a, k) for a, n in remaining.items() if n for k in range(len(self.matches(i, a)))]

    def effects(self, match: tuple[tuple[int, int], ...]) -> tuple[Effect, ...]:
        """What ``match`` (``(agent id, assignment index)`` per position) does, memoised:
        one ``(label, consumed, produced)`` per resolution of the free rhs slots."""
        effects = self._effects.get(match)
        if effects is None:
            if self._templates is None:
                self._templates = self._rhs_templates()
            features = [f for memo, (a, k) in zip(self._matches, match) for f in memo[a][k]]
            assignment = dict(zip(self._epsilon, features))
            consumed = _count(agent for agent, _ in match)
            out = []
            for combo in itertools.product(
                *(options or [assignment[j]] for j, options in self.rhs_slots)
            ):
                produced: dict[int, int] = {}
                for k, (template, start, stop) in enumerate(self._templates):
                    ident = _IDS.get(template % combo[start:stop])
                    if ident is None:  # a spelling not met before: resolve and intern it
                        positions = {j: f for (j, _), f in zip(self.rhs_slots, combo)}
                        ident = agent_id(assign_features(self.rhs, positions).agents[k])
                    produced[ident] = produced.get(ident, 0) + 1
                out.append((self.label, consumed, produced))
            effects = self._effects[match] = tuple(out)
        return effects

    def _rhs_templates(self) -> list[tuple[str, int, int]]:
        """Per right-hand agent: its text with each ``{ε}`` a ``%s`` field, and
        the ``start:stop`` slice of ``rhs_slots`` (of each resolution) that fills it."""
        templates, start = [], 0
        for agent in self.rhs.agents:
            stop = start + agent.text.count("{ε}")
            templates.append((agent.text.replace("{ε}", "{%s}"), start, stop))
            start = stop
        return templates


def _count(keys: Iterable[Hashable]) -> dict:
    """How many times each key occurs."""
    counts: dict = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return counts


def _backtrack(candidates, stop: int, remaining: dict, picks: tuple = ()) -> list[tuple]:
    """Every extension of ``picks`` to ``stop`` picks, one per position.

    ``candidates(i, remaining)`` lists the ``(resource, payload)`` picks
    open at position ``i``; a pick uses up one count of its resource.
    It pairs the components of an agent and the agents of a state alike,
    on an explicit stack, so no chain or left-hand side reaches the
    recursion limit.  The counts of ``remaining`` are restored.
    """
    found, picks, start = [], list(picks), len(picks)
    stack = [iter(candidates(start, remaining))]
    while stack:
        if len(picks) - start == len(stack):  # undo this position's last pick
            remaining[picks.pop()[0]] += 1
        pick = next(stack[-1], None)
        if pick is None:
            stack.pop()
            continue
        remaining[pick[0]] -= 1
        picks.append(pick)
        if len(picks) == stop:
            found.append(tuple(picks))
        else:
            stack.append(iter(candidates(len(picks), remaining)))
    return found


# A table entry: an agent's one-agent effects and the ``(rule, (agent id,
# assignment index))`` starts of its joins.
_Entry = tuple[tuple[Effect, ...], tuple[tuple[_PreparedRule, tuple[int, int]], ...]]


class RuleMatcher:
    """Applies every rule of a model to states via the rewriting relation.

    Rules are looked up by agent id, not scanned: every match of a rule
    with a left-hand side starts at position 0 with one of the state's
    distinct agents.  ``_table`` maps an agent id, the first time a state
    holds it, to two things: the effects of every one-agent rule whose
    left-hand agent it matches (one per assignment and right-hand
    resolution), and the ``(rule, (agent id, assignment index))`` starts
    of every rule with two or more left-hand agents, which ``_backtrack``
    completes from position 1 on the rest of the state.  Rules with an
    empty left-hand side fire once at every state, ∅ included.  The table
    belongs to the instance and is filled on first use, so construction
    does no matching.
    """

    def __init__(self, model: BcslModel):
        rules = [
            _PreparedRule(rule, model.structure_signature, model.atomic_signature)
            for rule in model.rules
        ]
        self._unconditional = [rule for rule in rules if not rule.lhs.agents]
        self._keyed = [rule for rule in rules if rule.lhs.agents]
        self._table: dict[int, _Entry] = {}

    def _entry(self, agent: int) -> _Entry:
        """The one-agent effects and the join starts of ``agent`` at position 0."""
        effects: list[Effect] = []
        starts: list[tuple[_PreparedRule, tuple[int, int]]] = []
        for rule in self._keyed:
            for k in range(len(rule.matches(0, agent))):
                if len(rule.lhs.agents) == 1:
                    effects.extend(rule.effects(((agent, k),)))
                else:
                    starts.append((rule, (agent, k)))
        return tuple(effects), tuple(starts)

    def successors(self, state: Multiset) -> frozenset[tuple[str, Multiset]]:
        """Labelled successor states of ``state`` under the model's rules.

        Empty when no rule applies: ε is the caller's, as in
        ``successors(state) or {(EPSILON_LABEL, state)}`` (``check``'s
        direct side) or ``guarded``.
        """
        effects = [effect for rule in self._unconditional for effect in rule.effects(())]
        table = self._table
        # The multiplicities by agent id, read off the pairs once.  Joins
        # change a count and restore it (the keys never change), and every
        # effect is applied to it, restored, at the end.
        counts = dict(state.pairs())
        for agent, n in counts.items():
            entry = table.get(agent)
            if entry is None:
                entry = table[agent] = self._entry(agent)
            effects.extend(entry[0])
            starts = entry[1]
            if not starts:
                continue
            counts[agent] = n - 1
            for rule, first in starts:
                for match in _backtrack(rule.candidates, len(rule.lhs.agents), counts, (first,)):
                    effects.extend(rule.effects(match))
            counts[agent] = n
        return frozenset(
            (label, state.rewrite(consumed, produced, counts))
            for label, consumed, produced in effects
        )


# ---------------------------------------------------------------------------
# Bounded exploration
# ---------------------------------------------------------------------------

# A miss in ``explore``'s state store (any hashable, even None, may be a state).
_UNSEEN = object()


def _state_key(state: Hashable) -> str:
    return str(state) if isinstance(state, Multiset) else repr(state)


def explore(
    initial: Hashable,
    successor_fn: SuccessorFn,
    max_states: int = 100_000,
    max_depth: int = 1_000,
) -> Lts:
    """Breadth-first closure of ``successor_fn`` from ``initial``.

    Deterministic for any hash seed: frontiers and successor sets are
    processed in sorted order.  Edges leading to states beyond the state
    cap are dropped (endpoints of kept edges are always explored states).

    Each reached state is stored once, as the first object that reached
    it, and every transition refers to the stored objects.  The frontier
    of each depth is sorted; a state's successors are sorted only when
    the state cap falls inside them, the only case where their order
    decides which targets are stored.
    """
    # state -> the one object stored for it.
    states: dict[Hashable, Hashable] = {initial: initial}
    transitions: set[Transition] = set()
    cut: set[Hashable] = set()
    frontier = [initial]
    depth = 0
    while frontier and depth < max_depth:
        frontier.sort(key=_state_key)
        next_frontier = []
        for state in frontier:
            successors = successor_fn(state)
            if 0 < max_states - len(states) < len(successors):
                successors = sorted(successors, key=lambda lt: (lt[0], _state_key(lt[1])))
            for label, target in successors:
                stored = states.get(target, _UNSEEN)
                if stored is _UNSEEN:
                    if len(states) >= max_states:
                        cut.add(state)
                        continue
                    stored = states[target] = target
                    next_frontier.append(target)
                transitions.add((state, label, stored))
        frontier = next_frontier
        depth += 1
    return Lts(
        initial,
        frozenset(states),
        frozenset(transitions),
        frozenset(frontier) | frozenset(cut),
    )


def build_lts(model: BcslModel, max_states: int = 100_000, max_depth: int = 1_000) -> Lts:
    """Reachable transition system of a model (states deduplicated, no ε)."""
    matcher = RuleMatcher(model)
    return explore(model.init, matcher.successors, max_states, max_depth)


def maximal_label_sequences(lts: Lts, depth: int) -> LabelSequences:
    """Label sequences of runs from the initial state up to their first ε.

    ε edges are ignored.  A sequence is complete when the run can only
    stutter afterwards, and incomplete when the depth bound stopped it
    first or it reaches a state in ``lts.unsettled``, whose kept edges
    are still followed.  Library API (README § Library): no command
    prints run sets, but the tests' regulation oracles read them.
    """
    adjacency: dict[Hashable, list[tuple[str, Hashable]]] = {}
    for src, label, tgt in lts.transitions:
        if label != EPSILON_LABEL:
            adjacency.setdefault(src, []).append((label, tgt))

    complete: set[tuple[str, ...]] = set()
    incomplete: set[tuple[str, ...]] = set()
    # Depth-first over (state, labels so far, steps left); an explicit
    # stack, so the depth bound is not limited by the recursion limit.
    stack: list[tuple[Hashable, tuple[str, ...], int]] = [(lts.initial, (), depth)]
    while stack:
        state, prefix, budget = stack.pop()
        out = adjacency.get(state)
        if state in lts.unsettled or (out and budget == 0):
            incomplete.add(prefix)
        elif not out:
            complete.add(prefix)
        if out and budget:
            stack.extend((target, prefix + (label,), budget - 1) for label, target in out)
    return LabelSequences(frozenset(complete), frozenset(incomplete))


# The sort key of an ``unroll`` child ``(label, state key, state)``.
_label_and_key = itemgetter(0, 1)


def unroll(
    initial: Hashable,
    successor_fn: SuccessorFn,
    depth: int,
    max_nodes: int = 100_000,
) -> RunTree:
    """Depth-bounded tree of runs; every non-ε successor becomes a fresh node.

    ε edges are omitted, also when testing whether the depth bound cut
    the tree.  The node cap guards against exponential blow-up on cyclic
    systems.  Siblings are ordered by ``(label, state key)``, the key
    being ``_state_key``'s text; the sort is stable.

    Each distinct state is stored once, as the first object that reached
    it, and keyed once per tree: a child is interned before the sort, and
    a repeated one reuses the stored key.  ``successor_fn`` still runs
    once per expanded node, repeated or not.
    """
    states: list = [initial]
    edges: list[tuple[int, str, int]] = []
    frontier = [(0, initial)]
    # state -> (the first object that reached it, its sort key).
    seen: dict[Hashable, tuple[Hashable, str]] = {initial: (initial, _state_key(initial))}
    for _ in range(depth):
        if not frontier:
            break
        next_frontier = []
        for node, state in frontier:
            children = []
            for label, target in _steps(successor_fn, state):
                stored = seen.get(target)
                if stored is None:
                    stored = seen[target] = (target, _state_key(target))
                children.append((label, stored[1], stored[0]))
            # Equal keys are equal states: tied children are the same move.
            children.sort(key=_label_and_key)
            for label, _, target in children:
                if len(states) >= max_nodes:
                    return RunTree(tuple(states), tuple(edges), True)
                child = len(states)
                states.append(target)
                edges.append((node, label, child))
                next_frontier.append((child, target))
        frontier = next_frontier
    truncated = any(_steps(successor_fn, state) for _, state in frontier)
    return RunTree(tuple(states), tuple(edges), truncated)


def _steps(successor_fn: SuccessorFn, state: Hashable) -> list[tuple[str, Hashable]]:
    """The non-ε successors of ``state``."""
    return [(label, target) for label, target in successor_fn(state) if label != EPSILON_LABEL]


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(name: str, prefix: str, texts: Iterable[str], root: int, edges: Collection) -> str:
    """DOT digraph ``name``: nodes ``prefix``0, 1, … labelled with ``texts`` in
    order, node ``root`` drawn doubled, then one line per ``(i, label, j)`` edge."""
    lines = [f"digraph {name} {{"]
    for i, text in enumerate(texts):
        attrs = f"label={_dot_quote(text)}"
        if i == root:
            attrs += ", peripheries=2"
        lines.append(f"  {prefix}{i} [{attrs}];")
    quoted = {label: _dot_quote(label) for label in {label for _, label, _ in edges}}
    for src, label, tgt in edges:
        lines.append(f"  {prefix}{src} -> {prefix}{tgt} [label={quoted[label]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def lts_to_dot(lts: Lts, label_fn: Callable[[Hashable], str] = _state_key) -> str:
    """DOT digraph: one node per state, edges labelled with rule labels.

    The initial state is drawn with a doubled periphery.  Output is
    sorted, hence byte-stable.
    """
    text = {state: label_fn(state) for state in lts.states}
    ordered = sorted(lts.states, key=lambda s: (text[s], _state_key(s)))
    # Node indices follow that order, so edges sort by index, not by text.
    order = {state: i for i, state in enumerate(ordered)}
    edges = sorted((order[s], label, order[t]) for s, label, t in lts.transitions)
    return _dot("lts", "s", map(text.__getitem__, ordered), order[lts.initial], edges)


def tree_to_dot(tree: RunTree, label_fn: Callable[[Hashable], str] = _state_key) -> str:
    """DOT digraph of an unrolled run tree (root doubled)."""
    return _dot("runs", "n", tree.node_texts(label_fn), 0, tree.edges)


def lts_to_json_obj(lts: Lts, label_fn: Callable[[Hashable], str] = _state_key) -> dict:
    """JSON-ready mirror of the LTS fields with sorted arrays."""
    text = {state: label_fn(state) for state in lts.states}
    return {
        "initial": text[lts.initial],
        "states": sorted(text.values()),
        "transitions": sorted([text[src], label, text[tgt]] for src, label, tgt in lts.transitions),
        "truncated": lts.truncated,
    }


def tree_to_json_obj(tree: RunTree, label_fn: Callable[[Hashable], str] = _state_key) -> dict:
    """JSON-ready mirror of an unrolled run tree."""
    return {
        "nodes": [{"id": i, "state": text} for i, text in enumerate(tree.node_texts(label_fn))],
        "edges": [[parent, label, child] for parent, label, child in tree.edges],
        "truncated": tree.truncated,
    }
