"""Run regulation: five strategies restricting which rules may fire.

Regular, ordered and programmed regulation are one object (Dassow and
Păun, *Regulated Rewriting in Formal Language Theory*, 1989): a finite
memory over rule labels that fixes which label may fire next.  Each
compiles into one ``AutomatonRegulation`` whose ``moves[m]`` maps every
label permitted at memory ``m`` to the memory after it:

* regular — a language of label sequences, given as a regular expression
  over rule labels with ``.`` (sequence), ``|`` (choice), ``*``
  (repetition) and parentheses.  One pass over the text builds its
  Thompson automaton while reading it (Thompson, CACM 1968); the subset
  construction and partition refinement make it a minimal DFA.  A candidate
  is permitted while the consumed label prefix can still grow into a word
  of the language; once a complete word has been consumed only ε may
  follow.  Memory: the DFA state.
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
set is empty and leaves the memory unchanged.  Two walks decide it, each
from the moves of ``RegulationGuard.step``: ``guarded``, which wraps the
successor function of the direct matcher or of the grounded system alike
for ``explore`` and ``unroll``, gives a node with no permitted successor
its ε self-loop; ``mrs.sample_run`` (``bcsl simulate``) stutters on ε
when ``step`` permits no move.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass
from typing import Any, Collection, Hashable, Mapping

from .lts import Lts, RuleMatcher, RunTree, SuccessorFn, explore, unroll
# ``build_mrs`` is not called here, but ``bench/tracer.py`` rebinds this
# name, so it stays importable from this module.
from .mrs import EPSILON_LABEL, build_mrs  # noqa: F401
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


class _Nfa:
    """A Thompson automaton, built one (start, accept) fragment at a time."""

    def __init__(self):
        self.eps: dict[int, set[int]] = {}
        self.sym: dict[tuple[int, str], set[int]] = {}
        self.n = 0
        # ε-closure of each state asked for so far.
        self._closures: dict[int, frozenset[int]] = {}

    def new_state(self) -> int:
        self.n += 1
        return self.n - 1

    def add_eps(self, a: int, b: int) -> None:
        self.eps.setdefault(a, set()).add(b)

    def symbol(self, label: str) -> tuple[int, int]:
        a, b = self.new_state(), self.new_state()
        self.sym[(a, label)] = {b}
        return a, b

    def star(self, fragment: tuple[int, int]) -> tuple[int, int]:
        a, b = fragment
        start, end = self.new_state(), self.new_state()
        for source, target in ((start, a), (b, end), (start, end), (b, a)):
            self.add_eps(source, target)
        return start, end

    def sequence(self, fragments: list[tuple[int, int]]) -> tuple[int, int]:
        for (_, b), (a, _) in zip(fragments, fragments[1:]):
            self.add_eps(b, a)
        return fragments[0][0], fragments[-1][1]

    def choice(self, fragments: list[tuple[int, int]]) -> tuple[int, int]:
        if len(fragments) == 1:
            return fragments[0]
        start, end = self.new_state(), self.new_state()
        for a, b in fragments:
            self.add_eps(start, a)
            self.add_eps(b, end)
        return start, end

    def closure(self, states: Collection[int]) -> frozenset[int]:
        """The ε-closure of ``states``: the union of each state's own closure.

        Each state's closure is walked once, the first time it is asked
        for, and kept; add no ε edges after the first call.
        """
        closed: set[int] = set()
        for state in states:
            own = self._closures.get(state)
            if own is None:
                own = self._closures[state] = self._closure_of(state)
            closed |= own
        return frozenset(closed)

    def _closure_of(self, state: int) -> frozenset[int]:
        stack = [state]
        seen = {state}
        while stack:
            s = stack.pop()
            for t in self.eps.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)


def _parse_regex(expression: str, nfa: _Nfa) -> tuple[tuple[int, int], set[str]]:
    """Build the Thompson automaton of ``expression`` in ``nfa`` while reading it.

    Returns the (start, accept) fragment of the whole expression and the
    labels it names.  Precedence, loosest first: ``|``, ``.``, postfix
    ``*``.  Open groups live on an explicit stack, so nesting depth is not
    limited by the recursion limit.
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
                raise RegulationError(f"expected a rule label in expression, found {tok!r}")
            else:
                node = nfa.symbol(tok)
                labels.add(tok)
            pos += 1
            continue
        if tok == "*":
            node = nfa.star(node)
            pos += 1
            continue
        alternatives, sequence = groups[-1]
        sequence.append(node)
        node = None
        if tok == ".":
            pos += 1
            continue
        alternatives.append(nfa.sequence(sequence))
        if tok == "|":
            sequence.clear()
            pos += 1
            continue
        node = nfa.choice(alternatives)
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

    The parser builds the Thompson automaton and collects the labels in
    one pass; labels outside ``labels`` are rejected after it, so a syntax
    error is reported first.  Raises ``RegulationError`` once the subset
    construction holds more than ``MAX_DFA_STATES`` states.
    """
    nfa = _Nfa()
    (start, accept), symbols = _parse_regex(expression, nfa)
    unknown = sorted(symbols - set(labels))
    if unknown:
        raise RegulationError(f"unknown rule label(s) in expression: {', '.join(unknown)}")
    alphabet = sorted(symbols)

    # Subset construction.
    initial = nfa.closure((start,))
    subset_ids: dict[frozenset[int], int] = {initial: 0}
    worklist = [initial]
    table: dict[tuple[int, str], int] = {}
    while worklist:
        current = worklist.pop()
        cid = subset_ids[current]
        for label in alphabet:
            targets: set[int] = set()
            for s in current:
                targets |= nfa.sym.get((s, label), set())
            if not targets:
                continue
            closed = nfa.closure(targets)
            if closed not in subset_ids:
                if len(subset_ids) == MAX_DFA_STATES:
                    raise RegulationError(
                        f"expression needs more than {MAX_DFA_STATES} automaton states"
                    )
                subset_ids[closed] = len(subset_ids)
                worklist.append(closed)
            table[(cid, label)] = subset_ids[closed]
    accepting = {cid for subset, cid in subset_ids.items() if accept in subset}
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

    def describe_memory(self, memory: Hashable) -> str:
        return self.regulation.describe_memory(memory)

    def step(
        self, memory: Hashable, state: Multiset, base: Collection[tuple[str, Multiset]]
    ) -> list[tuple[str, tuple[Multiset, Hashable]]]:
        """The permitted product moves ``(label, (target, next memory))`` among ``base``.

        ``base`` holds the non-ε ``(label, target)`` successors of
        ``state``; every one of them is enabled.  ``permits`` runs once
        per candidate, in ``base``'s order.
        """
        enabled_labels = frozenset(label for label, _ in base)
        return [
            (label, (target, self.advance(memory, label)))
            for label, target in base
            if self.permits(memory, state, label, enabled_labels)
        ]


def make_guard(regulation: Regulation, model: BcslModel) -> RegulationGuard:
    """Bind a regulation to a model; nothing is grounded."""
    if isinstance(regulation, ConcurrentFreeRegulation):
        return RegulationGuard(regulation, concurrency_relation(model))
    return RegulationGuard(regulation)


def guarded(successor_fn: SuccessorFn, guard: RegulationGuard) -> SuccessorFn:
    """Successors over (state, memory) nodes of either semantics under ``guard``.

    ``successor_fn`` gives a state's non-ε successors: the direct
    matcher's, or the grounded system's with ε removed.  A node with no
    permitted successor gets an ε self-loop, which ``unroll`` omits.
    """

    def product_successors(node):
        state, memory = node
        return guard.step(memory, state, successor_fn(state)) or [(EPSILON_LABEL, node)]

    return product_successors


def _product(model: BcslModel, guard: RegulationGuard):
    """The root node and the successor function of the regulated direct runs."""
    root = (model.init, guard.initial_memory())
    return root, guarded(RuleMatcher(model).successors, guard)


def regulated_explore(
    model: BcslModel,
    guard: RegulationGuard,
    max_states: int = 100_000,
    max_depth: int = 1_000,
) -> Lts:
    """Product graph over (state, regulation memory) pairs.

    Successors are filtered by the regulation and the memory advances with
    every applied rule; nodes with no permitted successor get an ε
    self-loop.
    """
    return explore(*_product(model, guard), max_states, max_depth)


def regulated_tree(
    model: BcslModel, guard: RegulationGuard, depth: int, max_nodes: int = 100_000
) -> RunTree:
    """Depth-bounded unrolled tree of the regulated runs (ε edges omitted)."""
    return unroll(*_product(model, guard), depth, max_nodes)


def product_state_text(node, guard: RegulationGuard) -> str:
    """Readable product-node text: the state plus the memory, when any."""
    state, memory = node
    described = guard.describe_memory(memory)
    return f"{state} | {described}" if described else str(state)
