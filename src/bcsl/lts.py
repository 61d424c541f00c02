"""Direct rewriting semantics and reachable transition systems.

``RuleMatcher`` applies model rules to a state straight from the rule
patterns (expand, unify left-hand agents with the state's agents up to
congruence, resolve the right-hand side consistently by filling in text
templates) without grounding anything: no left-hand pattern is
enumerated, so the cost follows the state, not the signature.  As in an
MRS rewrite, only the net change per agent (post − pre) decides the
target, so each match is applied as one precomputed delta.  It finds
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
pictures; ``sample_run`` draws one seeded run.  All three order states
by ``str`` and moves by ``_move_key``.  A graph (``Lts``) and a run tree
(``RunTree``) are indexed alike: a tuple of states and ``(i, label, j)``
edges between their indices.  Exports (DOT through one writer, ``_dot``,
and JSON) rank the indices by text once and sort the edges as integer
codes, so repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
import random
import re
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
from .terms import _IDS, EPSILON, Multiset, _new, _Record, agent_id, agent_of

Transition = tuple[Hashable, str, Hashable]
# What one match of a rule does: its label and its delta, the ``(agent id,
# produced - consumed)`` pairs whose net is not zero.
Effect = tuple[str, tuple[tuple[int, int], ...]]
SuccessorFn = Callable[[Hashable], Collection[tuple[str, Hashable]]]


class Lts(_Record):
    """Reachable labelled transition graph, indexed as a ``RunTree`` is.

    ``states`` holds each state once, in the order ``explore`` discovered
    them, so ``states[0]`` is the ``initial`` one; ``edges`` holds distinct
    ``(i, label, j)`` triples of indices into ``states``.  ``unsettled``
    holds the indices of states whose outgoing transitions are not fully
    represented because a bound was hit (never expanded, or successors
    dropped by the state cap); ``truncated`` says whether there are any.
    ``transitions`` is the set of ``(state, label, state)`` triples.
    """

    __slots__ = _fields = ("states", "edges", "unsettled")
    _defaults = {"unsettled": frozenset()}
    __eq__, __hash__ = _Record._same_fields, _Record._hash_fields

    @property
    def initial(self) -> Hashable:
        return self.states[0]

    @property
    def transitions(self) -> frozenset[Transition]:
        states = self.states
        return frozenset((states[i], label, states[j]) for i, label, j in self.edges)

    @property
    def truncated(self) -> bool:
        return bool(self.unsettled)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.edges)


class RunTree(_Record):
    """Depth-bounded unrolling: fresh node per step, ε edges omitted.

    ``states[i]`` is the state at node ``i``; node 0 is the root.
    """

    __slots__ = _fields = ("states", "edges", "truncated")
    _defaults = {"truncated": False}
    __eq__, __hash__ = _Record._same_fields, _Record._hash_fields

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


class LabelSequences(_Record):
    """Maximal non-ε label sequences up to a depth (library API, README § Library).

    A sequence lands in ``incomplete`` when the depth bound cut it off
    while further non-ε steps were possible, or when it reaches a state
    that a bound of the exploration left unsettled.
    """

    __slots__ = _fields = ("complete", "incomplete")
    __eq__, __hash__ = _Record._same_fields, _Record._hash_fields


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

    What a match does depends only on the agents it picks and their
    assignments, so ``effects`` computes it on first use and memoises it
    in ``_effects``, keyed by the ``(agent id, assignment index)`` picked
    at each left-hand position.  An effect is the net change per agent,
    produced minus consumed, without the agents whose net is zero (a
    catalyst, or every agent of an identity rule).  A produced
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
        one ``(label, delta)`` per resolution of the free rhs slots, ``delta``
        the ``(agent id, produced - consumed)`` pairs with a net other than 0."""
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
                net = {agent: -n for agent, n in consumed.items()}
                for k, (template, start, stop) in enumerate(self._templates):
                    ident = _IDS.get(template % combo[start:stop])
                    if ident is None:  # a spelling not met before: resolve and intern it
                        positions = {j: f for (j, _), f in zip(self.rhs_slots, combo)}
                        ident = agent_id(assign_features(self.rhs, positions).agents[k])
                    net[ident] = net.get(ident, 0) + 1
                out.append((self.label, tuple([(a, d) for a, d in net.items() if d])))
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
        direct side) or ``guarded``.  A move whose delta is empty (an
        identity rule, or one of catalysts only) leads to ``state`` itself.
        """
        effects = [effect for rule in self._unconditional for effect in rule.effects(())]
        table = self._table
        # The multiplicities by agent id, read off the pairs once.  Joins
        # change a count and restore it (the keys never change), and every
        # delta is added to a copy of it, restored, at the end: a match
        # consumes only what the state holds, so no count goes below 0.
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
        out = []
        for label, delta in effects:
            if not delta:
                out.append((label, state))
                continue
            target = counts.copy()
            for agent, d in delta:
                n = target.get(agent, 0) + d
                if n:
                    target[agent] = n
                else:
                    del target[agent]
            out.append((label, _new(Multiset, target.items())))
        return frozenset(out)


# ---------------------------------------------------------------------------
# Bounded exploration
# ---------------------------------------------------------------------------

def _move_key(move: tuple[str, Hashable]) -> tuple[str, str]:
    """The order of moves: by label, then by target text."""
    return move[0], str(move[1])


def explore(
    initial: Hashable,
    successor_fn: SuccessorFn,
    max_states: int = 100_000,
    max_depth: int = 1_000,
) -> Lts:
    """Breadth-first closure of ``successor_fn`` from ``initial``.

    ``successor_fn`` gives each move of a state once, as a set does.
    Frontiers are processed in text order, and a state's successors are
    sorted in ``_move_key`` order only when the state cap falls inside
    them, the only case where their order decides which targets are
    stored; so the reached states and edges are the same for any hash
    seed.  Edges leading to states beyond the state cap are dropped.

    Each reached state is stored once, as the first object that reached
    it, and numbered in the order it was reached, which follows the order
    ``successor_fn`` lists moves in.  One ``state -> index`` dict is the
    only store that hashes states; an edge is the ``(i, label, j)`` of
    its ends' indices, appended to a list and never hashed.
    """
    index: dict[Hashable, int] = {initial: 0}
    states = [initial]
    edges: list[tuple[int, str, int]] = []
    cut: list[int] = []
    frontier = [initial]
    depth = 0
    while frontier and depth < max_depth:
        frontier.sort(key=str)
        next_frontier = []
        for state in frontier:
            i = index[state]
            successors = successor_fn(state)
            if 0 < max_states - len(states) < len(successors):
                successors = sorted(successors, key=_move_key)
            for label, target in successors:
                j = index.get(target)
                if j is None:
                    if len(states) >= max_states:
                        cut.append(i)
                        continue
                    j = index[target] = len(states)
                    states.append(target)
                    next_frontier.append(target)
                edges.append((i, label, j))
        frontier = next_frontier
        depth += 1
    return Lts(tuple(states), tuple(edges), frozenset(map(index.__getitem__, frontier)).union(cut))


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
    adjacency: list[list[tuple[str, int]]] = [[] for _ in lts.states]
    for i, label, j in lts.edges:
        if label != EPSILON_LABEL:
            adjacency[i].append((label, j))

    complete: set[tuple[str, ...]] = set()
    incomplete: set[tuple[str, ...]] = set()
    # Depth-first over (state index, labels so far, steps left); an explicit
    # stack, so the depth bound is not limited by the recursion limit.
    stack: list[tuple[int, tuple[str, ...], int]] = [(0, (), depth)]
    while stack:
        state, prefix, budget = stack.pop()
        out = adjacency[state]
        if state in lts.unsettled or (out and budget == 0):
            incomplete.add(prefix)
        elif not out:
            complete.add(prefix)
        if out and budget:
            stack.extend((target, prefix + (label,), budget - 1) for label, target in out)
    return LabelSequences(frozenset(complete), frozenset(incomplete))


# The sort key of an ``unroll`` child ``(label, state text, state)``.
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
    systems.  Siblings are ordered as ``_move_key`` orders moves; the sort
    is stable.

    Each distinct state is stored once, as the first object that reached
    it, and its text is computed once per tree: a child is interned
    before the sort, and a repeated one reuses the stored text.
    ``successor_fn`` still runs once per expanded node, repeated or not;
    ``bcsl lts --unroll`` passes it under ``functools.cache``, so
    repeated nodes are cheap.
    """
    states: list = [initial]
    edges: list[tuple[int, str, int]] = []
    frontier = [(0, initial)]
    # state -> (the first object that reached it, its text).
    seen: dict[Hashable, tuple[Hashable, str]] = {initial: (initial, str(initial))}
    for _ in range(depth):
        if not frontier:
            break
        next_frontier = []
        for node, state in frontier:
            children = []
            for label, target in _steps(successor_fn, state):
                stored = seen.get(target)
                if stored is None:
                    stored = seen[target] = (target, str(target))
                children.append((label, stored[1], stored[0]))
            # Equal texts are equal states: tied children are the same move.
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


class Run(_Record):
    """A finite run prefix: ``labels[i]`` led from node ``states[i]`` to ``states[i+1]``."""

    __slots__ = _fields = ("states", "labels")
    __eq__, __hash__ = _Record._same_fields, _Record._hash_fields


def sample_run(initial: Hashable, successor_fn: SuccessorFn, steps: int, seed: int = 0) -> Run:
    """Sample a run prefix of ``steps`` steps, uniformly among successors.

    ``successor_fn`` gives the labelled successors of a node: the direct
    matcher's or the grounded system's over states, or any other over
    nodes with a text.  Its ε successors are left out (``_steps``), and a
    node with no other successor stutters on ε.  Reproducible for a fixed
    seed: moves are drawn from the successors in ``_move_key`` order.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rng = random.Random(seed)
    state = initial
    states = [state]
    labels: list[str] = []
    for _ in range(steps):
        moves = sorted(_steps(successor_fn, state), key=_move_key)
        label, state = rng.choice(moves) if moves else (EPSILON_LABEL, state)
        labels.append(label)
        states.append(state)
    return Run(tuple(states), tuple(labels))


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(
    name: str, prefix: str, texts: list[str], root: int, labels: list[str], codes: Iterable[int]
) -> str:
    """DOT digraph ``name``: nodes ``prefix``0, 1, … labelled with ``texts`` in
    order, node ``root`` drawn doubled, then one line per edge code, in the
    order of ``codes``.

    The one DOT writer, of graphs and of run trees.  For ``n`` nodes, the
    edge ``(i, labels[r], j)`` is the code ``i * len(labels) * n + r * n +
    j`` (``_edge_ranks``).  Each node's name and each label's ``[label=…];``
    suffix is written once, so an edge line only joins three of them."""
    n = len(texts)
    width = len(labels) * n
    names = [f"{prefix}{i}" for i in range(n)]
    suffixes = [f" [label={_dot_quote(label)}];" for label in labels]
    lines = [f"digraph {name} {{"]
    lines += [f"  {node} [label={_dot_quote(text)}];" for node, text in zip(names, texts)]
    lines[1 + root] = f"  {names[root]} [label={_dot_quote(texts[root])}, peripheries=2];"
    lines += [f"  {names[c // width]} -> {names[c % n]}{suffixes[c % width // n]}" for c in codes]
    lines.append("}\n")  # the final newline, without a copy of the whole text
    return "\n".join(lines)


def _edge_ranks(edges: Iterable[tuple], n: int) -> tuple[list[str], dict[str, int], int]:
    """The sorted labels of ``edges``, each label's ``rank * n`` and the code
    width ``len(labels) * n``: an edge ``(i, label, j)`` between nodes ``i``
    and ``j`` of ``n`` is the code ``i * width + rank[label] + j``."""
    labels = sorted({label for _, label, _ in edges})
    return labels, {label: r * n for r, label in enumerate(labels)}, len(labels) * n


def lts_to_dot(lts: Lts, label_fn: Callable[[Hashable], str] = str) -> str:
    """DOT digraph: one node per state, edges labelled with rule labels.

    The initial state is drawn with a doubled periphery.  Output is
    sorted, hence byte-stable: nodes by ``(label_fn text, str text)``,
    ties in discovery order, edges by ``(source node, label, target
    node)``.  The state indices are ranked once, and each edge is sorted
    as one integer code over the ranks.  ``_dot`` writes it.
    """
    texts = list(map(label_fn, lts.states))
    order = list(range(len(texts)))
    # Stable sorts by the key's second part, then its first; under ``str``
    # both parts are one text, so the first sort is left out.
    if label_fn is not str:
        order.sort(key=list(map(str, lts.states)).__getitem__)
    order.sort(key=texts.__getitem__)
    node = [0] * len(order)  # the inverse: index -> DOT node
    for r, i in enumerate(order):
        node[i] = r
    labels, rank, width = _edge_ranks(lts.edges, len(order))
    codes = sorted([node[i] * width + rank[label] + node[j] for i, label, j in lts.edges])
    return _dot("lts", "s", [texts[i] for i in order], node[0], labels, codes)


def tree_to_dot(tree: RunTree, label_fn: Callable[[Hashable], str] = str) -> str:
    """DOT digraph of an unrolled run tree (root doubled), edges in tree order."""
    labels, rank, width = _edge_ranks(tree.edges, tree.n_nodes)
    codes = [i * width + rank[label] + j for i, label, j in tree.edges]
    return _dot("runs", "n", tree.node_texts(label_fn), 0, labels, codes)


def lts_to_json_obj(lts: Lts, label_fn: Callable[[Hashable], str] = str) -> dict:
    """JSON-ready mirror of the LTS as texts, with sorted arrays."""
    text = list(map(label_fn, lts.states))
    return {
        "initial": text[0],
        "states": sorted(text),
        "transitions": sorted([text[i], label, text[j]] for i, label, j in lts.edges),
        "truncated": lts.truncated,
    }


def tree_to_json_obj(tree: RunTree, label_fn: Callable[[Hashable], str] = str) -> dict:
    """JSON-ready mirror of an unrolled run tree."""
    return {
        "nodes": [{"id": i, "state": text} for i, text in enumerate(tree.node_texts(label_fn))],
        "edges": [[parent, label, child] for parent, label, child in tree.edges],
        "truncated": tree.truncated,
    }
