"""Direct rewriting semantics and reachable transition systems.

``RuleMatcher`` applies model rules to a state straight from the rule
patterns (expand, match instantiated agents against the state, resolve
the right-hand side consistently) without pre-grounding the whole system.
It finds its rules by agent: a table, filled the first time a state
holds an agent, gives the effects of the one-agent rules that agent
instantiates and the starts of the longer rules, whose other left-hand
agents are matched by backtracking from position 1.
The table, the matches and the effects key on agent ids of the one
intern table (``terms.agent_id``), the ids that grounding puts into the
grounded rules too, so matching never hashes an agent and states of both
semantics are equal exactly when their pairs are.
``explore`` computes the bounded breadth-first closure of any successor
function; ``unroll`` produces the depth-bounded tree used for run-set
pictures.  Exports (DOT / JSON) are canonically sorted so repeated runs
are byte-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Callable, Collection, Hashable

from .mrs import EPSILON_LABEL
from .patterns import (
    DEFAULT_GROUNDING_CAP,
    GroundingCapError,
    GroundingError,
    assign_features,
    deatomise,
    enumerate_instantiations,
    expand_pattern,
)
from .syntax import BcslModel
from .terms import EPSILON, Multiset, Pattern, agent_id

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


@dataclass(frozen=True)
class LabelSequences:
    """Maximal non-ε label sequences up to a depth.

    A sequence lands in ``incomplete`` when the depth bound cut it off
    while further non-ε steps were possible.
    """

    complete: frozenset[tuple[str, ...]]
    incomplete: frozenset[tuple[str, ...]]


# ---------------------------------------------------------------------------
# Direct rule application
# ---------------------------------------------------------------------------

class _PreparedRule:
    """One model rule preprocessed for repeated application.

    Left-hand agents are pre-instantiated per agent so matching can walk
    the state with backtracking; right-hand ε slots are classified as
    either forced (same source atomic at the same position on the left,
    so the resolved feature must match) or free over the signature.
    Both stop at the grounding cap: a left-hand agent with more
    instantiations, or free slots with more resolutions, raise
    ``GroundingCapError``.

    What a match consumes and produces depends only on its left-hand
    assignment, so ``effects`` computes both on first use and memoises
    them in ``_effects``.  The memo key is the tuple of option indices
    picked at each left-hand position, which fixes the assignment.  The
    picked agents would not do as a key: options with different
    assignments can canonicalise to the same agent (``P().P()::c`` picks
    ``P(S{a}).P(S{b})::c`` under two assignments, which resolve the
    right-hand side differently).

    ``_option_index`` maps, per left-hand position, the id of each
    canonical agent to the list of option indices that instantiate to it
    (a list, since several assignments can give one agent, as above).
    ``RuleMatcher`` reads position 0 of it once per agent into its table;
    ``_descend`` walks the state's distinct agents from position 1 on.  At
    each position it iterates the smaller of that index and the remaining
    state, so a state of two or three distinct agents costs two or three
    probes however many instantiations the position has.
    """

    def __init__(self, rule, structure_signature, atomic_signature):
        self.label = rule.label
        self.lhs = expand_pattern(rule.lhs, structure_signature)
        self.rhs = expand_pattern(rule.rhs, structure_signature)
        self._effects: dict[tuple[int, ...], tuple[Effect, ...]] = {}
        lhs_atoms = deatomise(self.lhs)
        rhs_atoms = deatomise(self.rhs)

        # Per left-hand agent, its options (instantiations) in enumeration
        # order, each (id of the canonical instantiated agent, {global slot:
        # feature}), and the index from agent id to option numbers.
        self.agent_options: list[list[tuple[int, dict[int, str]]]] = []
        self._option_index: list[dict[int, list[int]]] = []
        offset = 0
        for agent in self.lhs.agents:
            single = Pattern((agent,))
            n_atoms = len(deatomise(single))
            slots = [offset + k for k in range(n_atoms) if lhs_atoms[offset + k].feature == EPSILON]
            options = []
            index: dict[int, list[int]] = {}
            for inst in enumerate_instantiations(single, atomic_signature):
                key = agent_id(inst.result.agents[0])
                index.setdefault(key, []).append(len(options))
                options.append((key, dict(zip(slots, inst.assignment))))
            self.agent_options.append(options)
            self._option_index.append(index)
            offset += n_atoms

        # Right-hand ε slots: ("forced", lhs position) or ("free", features).
        self.rhs_slots: list[tuple[int, str, object]] = []
        for j, atom in enumerate(rhs_atoms):
            if atom.feature != EPSILON:
                continue
            if j < len(lhs_atoms) and lhs_atoms[j] == atom:
                self.rhs_slots.append((j, "forced", j))
            else:
                options = atomic_signature.get(atom.name)
                if not options:
                    raise GroundingError(f"no features known for atomic {atom.name!r}")
                self.rhs_slots.append((j, "free", sorted(options)))
        resolutions = prod(len(payload) for _, mode, payload in self.rhs_slots if mode == "free")
        if resolutions > DEFAULT_GROUNDING_CAP:
            raise GroundingCapError(
                f"rule {self.label!r} has {resolutions} right-hand resolutions, "
                f"exceeding the cap of {DEFAULT_GROUNDING_CAP}"
            )

    def effects(self, choice: tuple[int, ...]) -> tuple[Effect, ...]:
        """What the match ``choice`` (option index per left-hand position) does, memoised."""
        effects = self._effects.get(choice)
        if effects is None:
            effects = self._effects[choice] = self._effect(choice)
        return effects

    def _descend(self, remaining: dict[int, int], first: int) -> list[tuple[int, ...]]:
        """Every choice that completes option ``first`` at position 0 on ``remaining``.

        Backtracks with an explicit stack of hit iterators, one per
        position, so no left-hand side reaches the recursion limit.  Only
        the counts of ``remaining`` change, and each is restored.
        """
        matches: list[tuple[int, ...]] = []
        choice, picked = [first], []
        stack = [self._hits(1, remaining)]
        while stack:
            if len(choice) > len(stack):  # undo this position's last pick
                choice.pop()
                remaining[picked.pop()] += 1
            hit = next(stack[-1], None)
            if hit is None:
                stack.pop()
                continue
            remaining[hit[0]] -= 1
            picked.append(hit[0])
            choice.append(hit[1])
            if len(choice) == len(self._option_index):
                matches.append(tuple(choice))
            else:
                stack.append(self._hits(len(choice), remaining))
        return matches

    def _hits(self, i: int, remaining: dict[int, int]):
        """``(agent, option index)`` of the agents present and instantiable at
        position ``i``, found from the smaller side: its index or the state."""
        index = self._option_index[i]
        if len(index) < len(remaining):
            return iter([(a, k) for a, ks in index.items() if remaining.get(a, 0) > 0 for k in ks])
        return iter([(a, k) for a, n in remaining.items() if n > 0 for k in index.get(a, ())])

    def _effect(self, choice: tuple[int, ...]) -> tuple[Effect, ...]:
        """One ``(label, consumed, produced)`` per resolution of the free rhs slots."""
        consumed: dict[int, int] = {}
        lhs_assignment: dict[int, str] = {}
        for options, k in zip(self.agent_options, choice):
            agent, assignment = options[k]
            consumed[agent] = consumed.get(agent, 0) + 1
            lhs_assignment.update(assignment)
        option_sets = []
        for _, mode, payload in self.rhs_slots:
            if mode == "forced":
                option_sets.append([lhs_assignment[payload]])
            else:
                option_sets.append(payload)
        out = []
        positions = [pos for pos, _, _ in self.rhs_slots]
        for combo in itertools.product(*option_sets):
            resolved = assign_features(self.rhs, dict(zip(positions, combo)))
            counts: dict[int, int] = {}
            for agent in resolved.agents:
                key = agent_id(agent)
                counts[key] = counts.get(key, 0) + 1
            out.append((self.label, consumed, counts))
        return tuple(out)


# A table entry: an agent's one-agent effects and its ``(rule, option index)`` join starts.
_Entry = tuple[tuple[Effect, ...], tuple[tuple[_PreparedRule, int], ...]]


class RuleMatcher:
    """Applies every rule of a model to states via the rewriting relation.

    Rules are looked up by agent id, not scanned: every match of a rule
    with a left-hand side starts at position 0 with one of the state's
    distinct agents.  ``_table`` maps an agent id, the first time a state
    holds it, to two things: the effects of every one-agent rule it
    instantiates (one per option index and right-hand resolution), and
    the ``(rule, option index)`` starts of every rule with two or more
    left-hand agents, which ``_descend`` completes from position 1 on
    the rest of the state.  Rules with an empty left-hand side fire once
    at every state, ∅ included.  The table belongs to the instance and
    is filled on first use, so construction does no matching.
    """

    def __init__(self, model: BcslModel):
        rules = [
            _PreparedRule(rule, model.structure_signature, model.atomic_signature)
            for rule in model.rules
        ]
        self._unconditional = [rule for rule in rules if not rule.agent_options]
        self._keyed = [rule for rule in rules if rule.agent_options]
        self._table: dict[int, _Entry] = {}

    def _entry(self, agent: int) -> _Entry:
        """The one-agent effects and the join starts of ``agent`` at position 0."""
        effects: list[Effect] = []
        starts: list[tuple[_PreparedRule, int]] = []
        for rule in self._keyed:
            for k in rule._option_index[0].get(agent, ()):
                if len(rule.agent_options) == 1:
                    effects.extend(rule.effects((k,)))
                else:
                    starts.append((rule, k))
        return tuple(effects), tuple(starts)

    def successors(self, state: Multiset) -> frozenset[tuple[str, Multiset]]:
        """Labelled successor states of ``state`` under the model's rules.

        Empty when no rule applies (no implicit ε here; see
        ``extend_epsilon``).
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
            for rule, k in starts:
                for choice in rule._descend(counts, k):
                    effects.extend(rule.effects(choice))
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


def extend_epsilon(lts: Lts) -> Lts:
    """Add an ε self-loop to every expanded state with no outgoing transition."""
    outgoing = {src for src, _, _ in lts.transitions}
    loops = {
        (state, EPSILON_LABEL, state)
        for state in lts.states
        if state not in outgoing and state not in lts.unsettled
    }
    return Lts(lts.initial, lts.states, lts.transitions | loops, lts.unsettled)


def map_states(lts: Lts, project: Callable[[Hashable], Hashable]) -> Lts:
    """Quotient an LTS by projecting its states (e.g. dropping memory)."""
    return Lts(
        project(lts.initial),
        frozenset(project(s) for s in lts.states),
        frozenset((project(a), label, project(b)) for a, label, b in lts.transitions),
        frozenset(project(s) for s in lts.unsettled),
    )


def maximal_label_sequences(lts: Lts, depth: int) -> LabelSequences:
    """Label sequences of runs from the initial state up to their first ε.

    A sequence is complete when the run can only stutter afterwards, and
    incomplete when the depth bound stopped it first.
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
        if not out:
            complete.add(prefix)
        elif budget == 0:
            incomplete.add(prefix)
        else:
            stack.extend((target, prefix + (label,), budget - 1) for label, target in out)
    return LabelSequences(frozenset(complete), frozenset(incomplete))


def unroll(
    initial: Hashable,
    successor_fn: SuccessorFn,
    depth: int,
    max_nodes: int = 100_000,
) -> RunTree:
    """Depth-bounded tree of runs; every non-ε successor becomes a fresh node.

    ε edges are omitted, also when testing whether the depth bound cut
    the tree.  The node cap guards against exponential blow-up on cyclic
    systems.
    """
    states: list = [initial]
    edges: list[tuple[int, str, int]] = []
    frontier = [(0, initial)]
    for _ in range(depth):
        if not frontier:
            break
        next_frontier = []
        for node, state in frontier:
            for label, target in sorted(
                _steps(successor_fn, state), key=lambda lt: (lt[0], _state_key(lt[1]))
            ):
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


def lts_to_dot(lts: Lts, label_fn: Callable[[Hashable], str] = _state_key) -> str:
    """DOT digraph: one node per state, edges labelled with rule labels.

    The initial state is drawn with a doubled periphery.  Output is
    sorted, hence byte-stable.
    """
    ordered = sorted(lts.states, key=lambda s: (label_fn(s), _state_key(s)))
    # Node indices follow that order, so edges sort by index, not by text.
    order = {state: i for i, state in enumerate(ordered)}
    lines = ["digraph lts {"]
    for i, state in enumerate(ordered):
        attrs = f"label={_dot_quote(label_fn(state))}"
        if state == lts.initial:
            attrs += ", peripheries=2"
        lines.append(f"  s{i} [{attrs}];")
    quoted = {label: _dot_quote(label) for label in {label for _, label, _ in lts.transitions}}
    for src, label, tgt in sorted((order[s], label, order[t]) for s, label, t in lts.transitions):
        lines.append(f"  s{src} -> s{tgt} [label={quoted[label]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_to_dot(tree: RunTree, label_fn: Callable[[Hashable], str] = _state_key) -> str:
    """DOT digraph of an unrolled run tree (root doubled)."""
    lines = ["digraph runs {"]
    for i, state in enumerate(tree.states):
        attrs = f"label={_dot_quote(label_fn(state))}"
        if i == 0:
            attrs += ", peripheries=2"
        lines.append(f"  n{i} [{attrs}];")
    for parent, label, child in tree.edges:
        lines.append(f"  n{parent} -> n{child} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def lts_to_json_obj(lts: Lts, label_fn: Callable[[Hashable], str] = _state_key) -> dict:
    """JSON-ready mirror of the LTS fields with sorted arrays."""
    return {
        "initial": label_fn(lts.initial),
        "states": sorted(label_fn(s) for s in lts.states),
        "transitions": sorted(
            [label_fn(src), label, label_fn(tgt)] for src, label, tgt in lts.transitions
        ),
        "truncated": lts.truncated,
    }


def tree_to_json_obj(tree: RunTree, label_fn: Callable[[Hashable], str] = _state_key) -> dict:
    """JSON-ready mirror of an unrolled run tree."""
    return {
        "nodes": [{"id": i, "state": label_fn(s)} for i, s in enumerate(tree.states)],
        "edges": [[parent, label, child] for parent, label, child in tree.edges],
        "truncated": tree.truncated,
    }
