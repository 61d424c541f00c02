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
  oracle of the matcher's text templates and, netted, of its deltas;
* ``rule_matches`` and ``apply_by_definition`` — every match of a
  prepared rule, and the direct successors with every match's
  consumed agents taken away and its produced agents added, the oracle of
  the matcher's net deltas, also over the grounding cap;
* ``grounded_concurrency`` — the concurrency relation read off the
  grounded rules, the oracle of ``regulation.concurrency_relation``;
* ``map_states`` — the quotient of an LTS by a projection of its states;
* ``graph_view`` — an LTS as sets, for comparing graphs whose states were
  reached in different orders;
* ``transitive_closure`` — the fix-point closure of a label relation, the
  oracle of the reachability walks of an ``ordered`` regulation;
* ``dot_by_definition`` — the DOT text of an LTS with its nodes sorted by
  ``(label_fn text, str text)`` and its edges as ``(source index, label, target
  index)`` tuples, the oracle of ``lts_to_dot``'s integer edge codes;
* ``text_by_definition`` — the ``--format text`` lines of a graph or a run
  tree, read off ``lts_to_json_obj`` or ``tree_to_json_obj``, the oracle of
  the CLI's text rows from integer edge codes;
* ``StepwiseLineParser`` and ``parse_model_stepwise`` — the model reader
  that built a ``(kind, value, column)`` tuple per token and read each
  atomic with a method call per token, the oracle of ``syntax``'s token
  scan, its flat agent loop and its columns found on demand.
"""

from __future__ import annotations

import itertools
import re
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

from bcsl.lts import (
    Lts,
    RuleMatcher,
    RunTree,
    _backtrack,
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
from bcsl.syntax import BcslModel, BcslRule, ParseError, infer_signatures
from bcsl.terms import (
    EPSILON,
    IDENTIFIER,
    Agent,
    Atomic,
    Multiset,
    Pattern,
    Structure,
    agent_id,
    agent_of,
    canonicalize,
)


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


def rule_matches(rule: _PreparedRule, state: Multiset) -> list[tuple[tuple[int, int], ...]]:
    """Every match of ``rule`` at ``state``, by ``_backtrack`` from the first
    left-hand position (no table); ``()`` once for an empty left-hand side."""
    n = len(rule.lhs.agents)
    return _backtrack(rule.candidates, n, dict(state.pairs())) if n else [()]


def apply_by_definition(model: BcslModel) -> Callable[[Multiset], frozenset]:
    """The direct successor function of ``model``, each move applied as an
    MRS rewrite reads: for every ``rule_matches`` match of every rule and
    each of its ``resolved_effects``, a copy of the state's counts with
    the consumed agents taken away, then the produced agents added.
    Nothing is grounded, so it runs over the grounding cap too."""
    rules = [
        _PreparedRule(rule, model.structure_signature, model.atomic_signature)
        for rule in model.rules
    ]

    def successors(state: Multiset) -> frozenset[tuple[str, Multiset]]:
        out = set()
        for rule in rules:
            for match in rule_matches(rule, state):
                for label, consumed, produced in resolved_effects(
                    rule, match, model.atomic_signature
                ):
                    counts = dict(state.pairs())
                    for agent, k in consumed.items():
                        counts[agent] -= k
                    for agent, k in produced.items():
                        counts[agent] = counts.get(agent, 0) + k
                    out.add((label, Multiset({agent_of(a): k for a, k in counts.items()})))
        return frozenset(out)

    return successors


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
    """Quotient an LTS by projecting its states (e.g. dropping memory): each
    image numbered where its first preimage was, each edge kept once."""
    index: dict[Hashable, int] = {}
    node = [index.setdefault(project(s), len(index)) for s in lts.states]
    return Lts(
        tuple(index),
        tuple(dict.fromkeys((node[i], label, node[j]) for i, label, j in lts.edges)),
        frozenset(node[i] for i in lts.unsettled),
    )


def graph_view(lts: Lts) -> tuple:
    """What an LTS says of its states, whatever order they were reached in:
    the initial state, the sets of states and of transitions, and the
    unsettled states."""
    unsettled = frozenset(lts.states[i] for i in lts.unsettled)
    return lts.initial, frozenset(lts.states), lts.transitions, unsettled


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


# A token is ``(kind, value, column)``: the kind is "ident", "int" or the
# operator itself (both arrows read as "=>"); a stray character is an error.
STEPWISE_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<ident>{IDENTIFIER})|(?P<int>[0-9]+)|(?P<op>::|[=-]>|[{{}}(),.+~])|(?P<stray>\S))"
)

_STEPWISE_LINE_BREAK = re.compile(r"\r\n?|\n")


class StepwiseLineParser:
    """Reads one line of text, with the roles of the names seen so far.

    ``roles`` maps each name to its role and the line of its first use;
    ``parse_model_stepwise`` shares one dict across the lines of a model.
    """

    def __init__(self, text: str, line: int = 1, roles: dict[str, tuple[str, int]] | None = None):
        self.line = line
        self._roles = {} if roles is None else roles
        self._pos = 0
        self._tokens = tokens = []
        for match in STEPWISE_TOKEN_RE.finditer(text):
            kind = match.lastgroup
            value = match[kind]
            col = match.start(kind) + 1
            if kind == "stray":
                raise ParseError(f"unexpected character {value!r}", line, col)
            if kind == "op":
                kind = value = "=>" if value == "->" else value
            tokens.append((kind, value, col))
        tokens.append(("end", "", len(text) + 1))

    def peek(self) -> str:
        return self._tokens[self._pos][0]

    def accept(self, kind: str) -> bool:
        if self._tokens[self._pos][0] != kind:
            return False
        self._pos += 1
        return True

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self._tokens[self._pos]
        if tok[0] != kind:
            found = repr(tok[1]) if tok[0] != "end" else "end of line"
            raise ParseError(f"expected {what}, found {found}", self.line, tok[2])
        self._pos += 1
        return tok

    def expect_end(self) -> None:
        kind, value, col = self._tokens[self._pos]
        if kind != "end":
            raise ParseError(f"unexpected trailing {value!r}", self.line, col)

    def claim(self, token: tuple[str, str, int], role: str) -> str:
        """Record ``token``'s name in ``role``; a name keeps one role per model."""
        name = token[1]
        first_role, first_line = self._roles.setdefault(name, (role, self.line))
        if first_role != role:
            raise ParseError(
                f"name {name!r} used as {role} here but as {first_role} on line {first_line}",
                self.line,
                token[2],
            )
        return name

    def parse_rule(self) -> BcslRule:
        label = self.expect("ident", "rule label")[1]
        self.expect("~", "'~' after the rule label")
        lhs = self.parse_pattern(stop="=>")
        self.expect("=>", "'=>' between rule sides")
        rhs = self.parse_pattern(stop="end")
        self.expect_end()
        return BcslRule(label, lhs, rhs)

    def add_counted(self, counts: dict[Agent, int], bare: bool) -> None:
        """Add ``COUNT agent`` to ``counts``; with ``bare``, a missing count reads as 1."""
        count, col = 1, self._tokens[self._pos][2]
        if not bare or self.peek() == "int":
            value = self.expect("int", "an agent count")[1]
            try:
                count = int(value)
            except ValueError:  # longer than ``sys.get_int_max_str_digits()``
                raise ParseError("agent count has too many digits", self.line, col) from None
            if count < 1:
                raise ParseError("agent count must be positive", self.line, col)
        agent = canonicalize(self.parse_agent())
        if agent in counts:
            count += counts[agent]
            limit = sys.get_int_max_str_digits()
            if limit and count >= 10**limit:
                raise ParseError("agent counts sum to too many digits", self.line, col)
        counts[agent] = count

    def parse_pattern(self, stop: str) -> Pattern:
        if self.peek() == stop:
            return Pattern(())
        agents = [self.parse_agent()]
        while self.accept("+"):
            agents.append(self.parse_agent())
        return Pattern(tuple(agents))

    def parse_agent(self) -> Agent:
        chain = [self.parse_component()]
        while self.accept("."):
            chain.append(self.parse_component())
        self.expect("::", "'::' before the compartment")
        compartment = self.claim(self.expect("ident", "a compartment name"), "compartment")
        return Agent(tuple(chain), compartment)

    def parse_component(self) -> Atomic | Structure:
        name = self.expect("ident", "a component name")
        kind, _, col = self._tokens[self._pos]
        if kind == "{":
            return self._finish_atomic(name)
        if kind == "(":
            return self._finish_structure(name)
        raise ParseError(f"expected '{{' or '(' after component name {name[1]!r}", self.line, col)

    def _finish_atomic(self, name: tuple[str, str, int]) -> Atomic:
        atomic = self.claim(name, "atomic")
        self.expect("{", "'{'")
        feature = self.claim(self.expect("ident", "a feature name"), "feature")
        self.expect("}", "'}'")
        return Atomic(atomic, feature)

    def _finish_structure(self, name: tuple[str, str, int]) -> Structure:
        structure = self.claim(name, "structure")
        self.expect("(", "'('")
        composition: list[Atomic] = []
        columns: list[int] = []
        if self.peek() != ")":
            while True:
                atom_name = self.expect("ident", "an atomic name")
                composition.append(self._finish_atomic(atom_name))
                columns.append(atom_name[2])
                if not self.accept(","):
                    break
        self.expect(")", "')' closing the composition")
        names = [a.name for a in composition]
        for i, (atom, col) in enumerate(zip(names, columns)):
            if atom in names[:i]:
                raise ParseError(
                    f"duplicate atomic {atom!r} in composition of {structure!r}", self.line, col
                )
        if names != sorted(names):
            raise ParseError(
                f"composition of {structure!r} is not alphanumerically sorted",
                self.line,
                name[2],
            )
        return Structure(structure, tuple(composition))


def parse_model_stepwise(text: str, roles: dict[str, tuple[str, int]] | None = None) -> BcslModel:
    """``parse_model`` over ``StepwiseLineParser``; ``roles`` is the dict its lines share."""
    rules: list[BcslRule] = []
    label_lines: dict[str, int] = {}
    init_counts: dict[Agent, int] = {}
    roles = {} if roles is None else roles
    section: str | None = None

    for line_no, raw in enumerate(_STEPWISE_LINE_BREAK.split(text), start=1):
        line = raw.split("//", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#!"):
            header = stripped[2:].strip()
            if header not in ("rules", "inits"):
                raise ParseError(f"unknown section header {header!r}", line_no, 1)
            section = header
            continue
        if section is None:
            raise ParseError("content before any '#!' section header", line_no, 1)
        parser = StepwiseLineParser(line, line_no, roles)
        if section == "rules":
            rule = parser.parse_rule()
            if rule.label in label_lines:
                raise ParseError(
                    f"duplicate rule label {rule.label!r} (first on line {label_lines[rule.label]})",
                    line_no,
                    1,
                )
            label_lines[rule.label] = line_no
            rules.append(rule)
        else:
            parser.add_counted(init_counts, bare=False)
            parser.expect_end()

    init = Multiset(init_counts)
    atomic_signature, structure_signature = infer_signatures(rules, init)
    return BcslModel(tuple(rules), atomic_signature, structure_signature, init)


def _stepwise_agent(text: str) -> Agent:
    parser = StepwiseLineParser(text)
    agent = parser.parse_agent()
    parser.expect_end()
    return agent


def _stepwise_pattern(text: str) -> Pattern:
    parser = StepwiseLineParser(text)
    pattern = parser.parse_pattern(stop="end")
    parser.expect_end()
    return pattern


def _stepwise_multiset(text: str) -> Multiset:
    stripped = text.strip()
    if stripped in ("", "∅"):
        return Multiset()
    parser = StepwiseLineParser(stripped)
    counts: dict[Agent, int] = {}
    while True:
        parser.add_counted(counts, bare=True)
        if not parser.accept("+"):
            break
    parser.expect_end()
    return Multiset(counts)


#: The stepwise reader of each entry point of ``syntax``, by the names of
#: ``tests/test_syntax.py``'s ``_ENTRY_POINTS``.
STEPWISE_ENTRY_POINTS = {
    "model": parse_model_stepwise,
    "rule": lambda text: StepwiseLineParser(text).parse_rule(),
    "agent": _stepwise_agent,
    "pattern": _stepwise_pattern,
    "multiset": _stepwise_multiset,
}
