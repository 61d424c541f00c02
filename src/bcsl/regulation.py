"""Run regulation: five strategies restricting which rules may fire.

Regular, ordered and programmed regulation are one object (Dassow and
Păun, *Regulated Rewriting in Formal Language Theory*, 1989): a finite
memory over rule labels that fixes which label may fire next.  Each
compiles into one ``AutomatonRegulation`` whose ``moves[m]`` maps every
label permitted at memory ``m`` to the memory after it:

* regular — a language of label sequences, given as a regular expression
  over rule labels with ``.`` (sequence), ``|`` (choice), ``*``
  (repetition) and parentheses.  One pass over the text builds its
  position automaton while reading it (Glushkov 1961; McNaughton and
  Yamada, IRE Trans. Electronic Computers, 1960), which has no ε-moves;
  the subset construction and partition refinement make it a minimal
  DFA.  A candidate is permitted while the consumed label prefix can
  still grow into a word of the language; once a complete word has been
  consumed only ε may follow.  Memory: the DFA state.
* programmed — a successor set per label; after ``a`` only members of its
  successor set may fire.  Memory: the last applied label.
* ordered — strict pairs ``a < b``; ``b`` may not fire immediately after
  ``a`` (transitively closed).  The programmed automaton whose successor
  set of ``a`` is every label not above it.

The other two keep no memory:

* conditional — prohibited contexts per label: a candidate is blocked
  when any of its prohibited multisets is contained in the current state.
* concurrent-free — priority pairs ``(high, low)``: ``low`` is blocked
  whenever ``high`` is enabled too and the two labels are concurrent,
  i.e. some groundings of theirs consume a common agent.  The relation
  is found without grounding (``concurrency_relation``): the expanded
  left-hand agent patterns of the two labels are unified pairwise.

ε never counts as a regulated rule: it fires exactly when the permitted
set is empty and leaves the memory unchanged.  ``guarded`` alone decides
it: it wraps the successor function of the direct matcher or of the
grounded system alike, and gives a node with no permitted successor its
ε self-loop.  ``direct_walk`` builds the one walk input, with or without
a guard, that ``explore`` and ``unroll`` (``bcsl lts``) and
``mrs.sample_run`` (``bcsl simulate``, which stutters on that ε) take.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass
from typing import Any, Collection, Hashable, Mapping

from .lts import RuleMatcher, SuccessorFn
from .mrs import EPSILON_LABEL
# Nothing here calls these, but ``bench/tracer.py`` rebinds these names,
# so they stay importable from this module.
from .lts import explore, unroll  # noqa: F401
from .mrs import build_mrs  # noqa: F401
from .patterns import expand_pattern
from .syntax import BcslModel, parse_multiset
from .terms import EPSILON, IDENTIFIER, Agent, Atomic, Multiset


class RegulationError(Exception):
    """Invalid regulation configuration."""


class RegulationWarning(UserWarning):
    """Non-fatal regulation configuration repair (e.g. filled-in defaults)."""


#: Abort the subset construction of a regular regulation past this many
#: automaton states; a short expression can need exponentially many.
MAX_DFA_STATES = 4_096


# ---------------------------------------------------------------------------
# Regular expressions over rule labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dfa:
    """Deterministic automaton over rule labels.

    Transitions are partial: a missing key is the dead state.  ``live``
    holds the states from which some word can still be completed.
    """

    start: int
    accepting: frozenset[int]
    transitions: Mapping[tuple[int, str], int]
    live: frozenset[int]

    def accepts(self, word: Collection[str]) -> bool:
        state: int | None = self.start
        for label in word:
            state = self.transitions.get((state, label))
            if state is None:
                return False
        return state in self.accepting


# A label, an operator, or (the second group) a stray character.
_REGEX_TOKEN = re.compile(rf"\s*(?:({IDENTIFIER}|[.|*()])|(\S))")


def _regex_tokens(expression: str) -> list[str]:
    found = _REGEX_TOKEN.findall(expression)
    for _, stray in found:
        if stray:
            raise RegulationError(f"unexpected character {stray!r} in expression")
    return [token for token, _ in found]


# A fragment of a position automaton: whether it matches the empty word,
# the positions a word of it may start with, and those it may end with.
_Fragment = tuple[bool, frozenset[int], frozenset[int]]


class _Positions:
    """A position automaton, built one (nullable, first, last) fragment at a time.

    Position 0 is the start; every label occurrence gets the next
    position.  ``follow[p]`` holds the positions that may come right after
    ``p``, so the automaton has no ε-moves.
    """

    def __init__(self):
        self.labels: list[str | None] = [None]
        self.follow: list[set[int]] = [set()]

    def symbol(self, label: str) -> _Fragment:
        self.labels.append(label)
        self.follow.append(set())
        here = frozenset((len(self.labels) - 1,))
        return False, here, here

    def star(self, fragment: _Fragment) -> _Fragment:
        _, first, last = fragment
        for p in last:
            self.follow[p] |= first
        return True, first, last

    def sequence(self, fragments: list[_Fragment]) -> _Fragment:
        nullable, first, last = fragments[0]
        for next_nullable, next_first, next_last in fragments[1:]:
            for p in last:
                self.follow[p] |= next_first
            if nullable:
                first |= next_first
            last = last | next_last if next_nullable else next_last
            nullable = nullable and next_nullable
        return nullable, first, last

    def choice(self, fragments: list[_Fragment]) -> _Fragment:
        nullables, firsts, lasts = zip(*fragments)
        return any(nullables), frozenset().union(*firsts), frozenset().union(*lasts)


def _parse_regex(expression: str, positions: _Positions) -> tuple[_Fragment, set[str]]:
    """Build the position automaton of ``expression`` in ``positions`` while reading it.

    Returns the fragment of the whole expression and the labels it names.
    Precedence, loosest first: ``|``, ``.``, postfix ``*``.  Open groups
    live on an explicit stack, so nesting depth is not limited by the
    recursion limit.
    """
    tokens = _regex_tokens(expression)
    if not tokens:
        raise RegulationError("empty expression")
    labels: set[str] = set()
    # One frame per open group (the bottom one is the whole expression): the
    # fragments of its finished alternatives and of its current sequence.
    groups: list[tuple[list, list]] = [([], [])]
    pos = 0
    node = None  # the fragment just read; None while an operand is expected
    while True:
        tok = tokens[pos] if pos < len(tokens) else None
        if node is None:
            if tok == "(":
                groups.append(([], []))
            elif tok is None or tok in ".|*)":
                found = "end of expression" if tok is None else repr(tok)
                raise RegulationError(f"expected a rule label in expression, found {found}")
            else:
                node = positions.symbol(tok)
                labels.add(tok)
            pos += 1
            continue
        if tok == "*":
            node = positions.star(node)
            pos += 1
            continue
        alternatives, sequence = groups[-1]
        sequence.append(node)
        node = None
        if tok == ".":
            pos += 1
            continue
        alternatives.append(positions.sequence(sequence))
        if tok == "|":
            sequence.clear()
            pos += 1
            continue
        node = positions.choice(alternatives)
        if tok == ")" and len(groups) > 1:
            groups.pop()
            pos += 1
        elif len(groups) > 1:
            raise RegulationError("missing ')' in expression")
        elif tok is not None:
            raise RegulationError(f"unexpected {tok!r} in expression")
        else:
            return node, labels


def compile_label_regex(expression: str, labels: Collection[str]) -> Dfa:
    """Compile an expression over rule labels to a minimal DFA with liveness.

    The parser builds the position automaton (Glushkov 1961; McNaughton
    and Yamada, IRE Trans. Electronic Computers, 1960) and collects the
    labels in one pass; labels outside ``labels`` are rejected after it,
    so a syntax error is reported first.  The automaton has no ε-moves, so
    each subset state is a set of positions, with no closure to take.
    Raises ``RegulationError`` once the subset construction holds more
    than ``MAX_DFA_STATES`` states.
    """
    positions = _Positions()
    (nullable, first, last), symbols = _parse_regex(expression, positions)
    unknown = sorted(symbols - set(labels))
    if unknown:
        raise RegulationError(f"unknown rule label(s) in expression: {', '.join(unknown)}")
    alphabet = sorted(symbols)
    positions.follow[0] = set(first)

    # Subset construction from the start position 0.
    initial = frozenset((0,))
    subset_ids: dict[frozenset[int], int] = {initial: 0}
    worklist = [initial]
    table: dict[tuple[int, str], int] = {}
    while worklist:
        current = worklist.pop()
        cid = subset_ids[current]
        by_label: dict[str, set[int]] = {}
        for p in current:
            for q in positions.follow[p]:
                by_label.setdefault(positions.labels[q], set()).add(q)
        for label, targets in sorted(by_label.items()):
            target = frozenset(targets)
            if target not in subset_ids:
                if len(subset_ids) == MAX_DFA_STATES:
                    raise RegulationError(
                        f"expression needs more than {MAX_DFA_STATES} automaton states"
                    )
                subset_ids[target] = len(subset_ids)
                worklist.append(target)
            table[(cid, label)] = subset_ids[target]
    accepting = {cid for subset, cid in subset_ids.items() if not last.isdisjoint(subset)}
    if nullable:
        accepting.add(0)
    n = len(subset_ids)

    # Minimize by partition refinement, a missing transition going to ``dead``.
    dead = n
    block_of = {s: (1 if s in accepting else 0) for s in range(n + 1)}
    while True:
        signatures = {
            s: (block_of[s], tuple(block_of[table.get((s, a), dead)] for a in alphabet))
            for s in range(n + 1)
        }
        renumber: dict[tuple, int] = {}
        new_block_of = {}
        for s in sorted(signatures):
            sig = signatures[s]
            if sig not in renumber:
                renumber[sig] = len(renumber)
            new_block_of[s] = renumber[sig]
        if new_block_of == block_of:
            break
        block_of = new_block_of

    min_trans = {
        (block_of[s], a): block_of[table.get((s, a), dead)] for s in range(n + 1) for a in alphabet
    }
    min_start = block_of[0]
    min_accepting = frozenset(block_of[s] for s in accepting)

    # Live states: every block but the dead state's.  Refinement puts every
    # state that cannot reach an accepting state into that block, since
    # each of them accepts nothing, as ``dead`` does.
    live = set(block_of.values()) - {block_of[dead]}

    transitions = {
        key: tgt for key, tgt in min_trans.items() if key[0] in live and tgt in live
    }
    return Dfa(min_start, min_accepting, transitions, frozenset(live))


# ---------------------------------------------------------------------------
# The regulation strategies: one label automaton, two memoryless filters
# ---------------------------------------------------------------------------

LabelRelation = frozenset[tuple[str, str]]


@dataclass(frozen=True)
class AutomatonRegulation:
    """A finite memory over rule labels: regular, ordered and programmed.

    ``moves[m]`` maps each label permitted at memory ``m`` to the memory
    after it; ``names[m]`` is the text of memory ``m``.
    """

    start: Hashable
    moves: Mapping[Hashable, Mapping[str, Hashable]]
    names: Mapping[Hashable, str]

    def initial_memory(self) -> Hashable:
        return self.start

    def permits(self, memory, state, candidate, enabled_labels, concurrency) -> bool:
        return candidate in self.moves[memory]

    def advance(self, memory, applied):
        if applied == EPSILON_LABEL:
            return memory
        try:
            return self.moves[memory][applied]
        except KeyError:
            raise ValueError(f"label {applied!r} was not permitted from this memory") from None

    def describe_memory(self, memory) -> str:
        return self.names[memory]


class _Memoryless:
    """A regulation that decides on the state and the enabled labels alone."""

    def initial_memory(self) -> None:
        return None

    def advance(self, memory, applied):
        return memory

    def describe_memory(self, memory) -> str:
        return ""


@dataclass(frozen=True)
class ConditionalRegulation(_Memoryless):
    """Block a rule while one of its prohibited contexts sits in the state."""

    prohibited: Mapping[str, tuple[Multiset, ...]]

    def permits(self, memory, state, candidate, enabled_labels, concurrency) -> bool:
        return all(not context.issubset(state) for context in self.prohibited.get(candidate, ()))


@dataclass(frozen=True)
class ConcurrentFreeRegulation(_Memoryless):
    """Among enabled concurrent rules, admit only the prioritised one."""

    priority: LabelRelation  # (high, low)

    def permits(self, memory, state, candidate, enabled_labels, concurrency) -> bool:
        return not any(
            low == candidate and high in enabled_labels and (high, candidate) in concurrency
            for high, low in self.priority
        )


Regulation = AutomatonRegulation | ConditionalRegulation | ConcurrentFreeRegulation


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _known_label(label: Any, known: frozenset[str], where: str) -> str:
    if not isinstance(label, str) or label == EPSILON_LABEL or label not in known:
        raise RegulationError(f"unknown rule label {label!r} in {where}")
    return label


def _label_pairs(raw: Any, known: frozenset[str], where: str) -> frozenset[tuple[str, str]]:
    if not isinstance(raw, (list, tuple)):
        raise RegulationError(f"{where} must be a list of label pairs")
    pairs = set()
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise RegulationError(f"{where} entries must be pairs, got {entry!r}")
        pairs.add((_known_label(entry[0], known, where), _known_label(entry[1], known, where)))
    return frozenset(pairs)


def _labels_above(pairs: frozenset[tuple[str, str]]) -> dict[str, set[str]]:
    """Each label's set of labels above it in the transitive closure of ``pairs``.

    One reachability walk per label over the pair graph, so a label lies
    on a cycle exactly when it reaches itself.
    """
    graph: dict[str, set[str]] = {}
    for a, b in pairs:
        graph.setdefault(a, set()).add(b)
    above: dict[str, set[str]] = {}
    for label in graph:
        reached: set[str] = set()
        stack = [label]
        while stack:
            for b in graph.get(stack.pop(), ()):
                if b not in reached:
                    reached.add(b)
                    stack.append(b)
        above[label] = reached
    return above


def _last_label_automaton(
    successors: Mapping[str, Collection[str]], known: frozenset[str]
) -> AutomatonRegulation:
    """The automaton whose memory is the last applied label (None at the start)."""
    moves: dict[Hashable, dict[str, Hashable]] = {None: {label: label for label in known}}
    names: dict[Hashable, str] = {None: "start"}
    for label, next_labels in successors.items():
        moves[label] = {b: b for b in next_labels}
        names[label] = f"after {label}"
    return AutomatonRegulation(None, moves, names)


def compile_regulation(config: Mapping[str, Any], labels: Collection[str]) -> Regulation:
    """Validate and compile a JSON-shaped regulation description.

    ``labels`` is the rule-label universe of the model the regulation will
    run against; any other label in the payload is rejected.
    """
    if not isinstance(config, Mapping) or "type" not in config:
        raise RegulationError("regulation config must be an object with a 'type' field")
    known = frozenset(labels)
    kind = config["type"]

    if kind == "regular":
        expression = config.get("expression")
        if not isinstance(expression, str):
            raise RegulationError("regular regulation needs an 'expression' string")
        dfa = compile_label_regex(expression, known)
        moves: dict[Hashable, dict[str, Hashable]] = {memory: {} for memory in dfa.live}
        for (memory, label), target in dfa.transitions.items():
            if memory not in dfa.accepting:
                moves[memory][label] = target
        return AutomatonRegulation(dfa.start, moves, {memory: f"q{memory}" for memory in moves})

    if kind == "ordered":
        above = _labels_above(_label_pairs(config.get("pairs"), known, "'pairs'"))
        cyclic = sorted(a for a, reached in above.items() if a in reached)
        if cyclic:
            raise RegulationError(
                "'pairs' is not a strict partial order (cycle through "
                + ", ".join(cyclic)
                + ")"
            )
        return _last_label_automaton({a: known - above.get(a, set()) for a in known}, known)

    if kind == "programmed":
        raw = config.get("successors")
        if not isinstance(raw, Mapping):
            raise RegulationError("programmed regulation needs a 'successors' mapping")
        successors: dict[str, frozenset[str]] = {}
        for label, next_labels in raw.items():
            _known_label(label, known, "'successors'")
            if not isinstance(next_labels, (list, tuple)):
                raise RegulationError(f"successor set of {label!r} must be a list")
            successors[label] = frozenset(
                _known_label(nl, known, f"successors of {label!r}") for nl in next_labels
            )
        missing = sorted(known - set(successors))
        if missing:
            warnings.warn(
                "programmed regulation lists no successors for "
                + ", ".join(missing)
                + "; defaulting to all rules",
                RegulationWarning,
                stacklevel=2,
            )
            for label in missing:
                successors[label] = known
        return _last_label_automaton(successors, known)

    if kind == "conditional":
        raw = config.get("prohibited")
        if not isinstance(raw, Mapping):
            raise RegulationError("conditional regulation needs a 'prohibited' mapping")
        prohibited: dict[str, tuple[Multiset, ...]] = {}
        for label, contexts in raw.items():
            _known_label(label, known, "'prohibited'")
            if not isinstance(contexts, (list, tuple)):
                raise RegulationError(f"prohibited contexts of {label!r} must be a list")
            parsed = []
            for text in contexts:
                try:
                    parsed.append(parse_multiset(text))
                except Exception as exc:
                    raise RegulationError(
                        f"invalid prohibited context {text!r} for {label!r}: {exc}"
                    ) from exc
            prohibited[label] = tuple(parsed)
        return ConditionalRegulation(prohibited)

    if kind == "concurrent-free":
        priority = _label_pairs(config.get("priority"), known, "'priority'")
        selfish = sorted({high for high, low in priority if high == low})
        if selfish:
            raise RegulationError(
                "priority pairs must relate distinct rules: " + ", ".join(selfish)
            )
        return ConcurrentFreeRegulation(priority)

    raise RegulationError(f"unknown regulation type {kind!r}")


# ---------------------------------------------------------------------------
# Binding to a model and regulated exploration
# ---------------------------------------------------------------------------

def concurrency_relation(model: BcslModel) -> LabelRelation:
    """Label pairs whose groundings consume at least one common agent.

    Found without grounding: two labels are related when some expanded
    left-hand agent pattern of a rule of one unifies with some of a rule
    of the other (``_unify``).  A rule with an empty left-hand side is
    related to no rule; one with a non-empty side is related to itself.
    """
    patterns: dict[str, list[Agent]] = {}
    for rule in model.rules:
        expanded = expand_pattern(rule.lhs, model.structure_signature)
        patterns.setdefault(rule.label, []).extend(expanded.agents)
    signature = model.atomic_signature
    related: set[tuple[str, str]] = set()
    for a, b in itertools.combinations_with_replacement(sorted(patterns), 2):
        if any(_unify(p, q, signature) for p in patterns[a] for q in patterns[b]):
            related.add((a, b))
            related.add((b, a))
    return frozenset(related)


def _unify(p: Agent, q: Agent, signature: Mapping[str, frozenset[str]]) -> bool:
    """Whether two expanded agent patterns have a common grounding, up to congruence.

    Same compartment and chain length, and the chain components paired
    one to one in some order, each pair unifying (``_components_unify``).
    Only whether some pairing exists matters, and repeated ε components
    can pair in factorially many ways, so the pairing is not enumerated:
    it is a bipartite perfect matching, found by augmenting paths (Kuhn's
    method) on an explicit stack, so no chain length reaches the
    recursion limit.
    """
    if p.compartment != q.compartment or len(p.chain) != len(q.chain):
        return False
    fits = [
        [j for j, d in enumerate(q.chain) if _components_unify(c, d, signature)]
        for c in p.chain
    ]
    owner: dict[int, int] = {}  # q's component -> the p component paired with it
    for start in range(len(fits)):
        seen: set[int] = set()
        # Frames of the augmenting path: [p component, its untried options, its pick].
        path = [[start, iter(fits[start]), None]]
        while path:
            frame = path[-1]
            frame[2] = next((j for j in frame[1] if j not in seen), None)
            if frame[2] is None:
                path.pop()
            elif frame[2] in owner:
                seen.add(frame[2])
                taken = owner[frame[2]]
                path.append([taken, iter(fits[taken]), None])
            else:
                for i, _, j in path:
                    owner[j] = i
                break
        else:
            return False
    return True


def _components_unify(c, d, signature: Mapping[str, frozenset[str]]) -> bool:
    """Two chain components of one kind and name whose atomics, by name, agree:
    equal features, or one ε and the other in the signature, or both ε
    over a non-empty signature."""
    if type(c) is not type(d) or c.name != d.name:
        return False
    if isinstance(c, Atomic):
        return _features_unify(c.name, c.feature, d.feature, signature)
    theirs = {atom.name: atom.feature for atom in d.composition}
    return len(theirs) == len(c.composition) and all(
        _features_unify(a.name, a.feature, theirs.get(a.name), signature) for a in c.composition
    )


def _features_unify(
    name: str, f: str, g: str | None, signature: Mapping[str, frozenset[str]]
) -> bool:
    if f == EPSILON:
        return g in signature.get(name, ()) if g != EPSILON else bool(signature.get(name))
    return f == g or (g == EPSILON and f in signature.get(name, ()))


class RegulationGuard:
    """A regulation bound to a concrete rule universe."""

    def __init__(self, regulation: Regulation, concurrency: LabelRelation = frozenset()):
        self.regulation = regulation
        self.concurrency = concurrency

    def initial_memory(self) -> Hashable:
        return self.regulation.initial_memory()

    def permits(
        self, memory: Hashable, state: Multiset, candidate: str, enabled_labels: frozenset[str]
    ) -> bool:
        return self.regulation.permits(memory, state, candidate, enabled_labels, self.concurrency)

    def advance(self, memory: Hashable, applied: str) -> Hashable:
        return self.regulation.advance(memory, applied)


def make_guard(regulation: Regulation, model: BcslModel) -> RegulationGuard:
    """Bind a regulation to a model; nothing is grounded."""
    if isinstance(regulation, ConcurrentFreeRegulation):
        return RegulationGuard(regulation, concurrency_relation(model))
    return RegulationGuard(regulation)


def guarded(successor_fn: SuccessorFn, guard: RegulationGuard) -> SuccessorFn:
    """Successors over (state, memory) nodes of either semantics under ``guard``.

    ``successor_fn`` gives a state's non-ε successors: the direct
    matcher's, or the grounded system's with ε removed.  Every one of them
    is enabled; ``permits`` runs once per candidate, in their order, and
    each permitted move ``(label, (target, next memory))`` advances the
    memory.  A node with no permitted successor gets an ε self-loop, which
    ``unroll`` omits and ``sample_run`` stutters on.
    """

    def product_successors(node):
        state, memory = node
        base = successor_fn(state)
        enabled_labels = frozenset(label for label, _ in base)
        moves = [
            (label, (target, guard.advance(memory, label)))
            for label, target in base
            if guard.permits(memory, state, label, enabled_labels)
        ]
        return moves or [(EPSILON_LABEL, node)]

    return product_successors


def direct_walk(model: BcslModel, guard: RegulationGuard | None = None):
    """The root, the successor function and the node text of a walk over ``model``.

    Without a guard: ``model.init``, the direct matcher's moves and
    ``str``.  Under one: the ``guarded`` product over (state, memory)
    nodes from ``(model.init, initial memory)``, each node read as its
    state plus the memory, when the regulation names one.  ``explore``,
    ``unroll`` and ``sample_run`` take the first two.
    """
    successor_fn = RuleMatcher(model).successors
    if guard is None:
        return model.init, successor_fn, str
    describe = guard.regulation.describe_memory

    def node_text(node) -> str:
        state, memory = node
        described = describe(memory)
        return f"{state} | {described}" if described else str(state)

    return (model.init, guard.initial_memory()), guarded(successor_fn, guard), node_text
