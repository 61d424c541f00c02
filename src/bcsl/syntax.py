"""Model files: lexing, parsing, signature inference and ``model_to_text``.

A model file has two sections, one rule or init entry per line::

    #! rules
    r1_S ~ P(S{i})::cell => P(S{a})::cell
    r2   ~ P()::cell     => P()::out      // transport
    #! inits
    1 P(S{i},T{i})::cell

Line grammar (whitespace between tokens is insignificant, ``//`` starts a
comment, blank lines are ignored)::

    rule:        LABEL "~" pattern ("=>" | "->") pattern
    init:        COUNT agent
    pattern:     (nothing) | agent ("+" agent)*
    agent:       chain "::" COMPARTMENT
    chain:       component ("." component)*
    component:   atomic | structure
    structure:   NAME "(" composition ")"
    composition: (nothing) | atomic ("," atomic)*
    atomic:      NAME "{" FEATURE "}"

All names are identifiers ``[A-Za-z_][A-Za-z0-9_]*``; COUNT is a positive
integer.  Compositions must list atomics in alphanumerical order with
pairwise distinct names.  Feature, atomic, structure and compartment
names form mutually exclusive classes across the whole model; an
identifier reused in a different syntactic role is an error.  An empty
rule side is written as nothing, e.g. ``make ~ => A{u}::cell``.

Signatures are never written explicitly: ``infer_signatures`` collects,
for every atomic name, the set of concrete features it carries anywhere
in the model, and for every structure name the union of atomic names
appearing in its compositions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .terms import EPSILON, Agent, Atomic, Multiset, Pattern, Structure


class ParseError(Exception):
    """Syntax or well-formedness error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class SignatureError(Exception):
    """Model-level signature defect (e.g. an atomic with no concrete feature)."""


@dataclass(frozen=True)
class BcslRule:
    """A labelled rewrite rule between two patterns."""

    label: str
    lhs: Pattern
    rhs: Pattern

    def __str__(self) -> str:
        parts = [self.label, "~", str(self.lhs), "=>", str(self.rhs)]
        return " ".join(p for p in parts if p)


@dataclass
class BcslModel:
    """Rules, inferred signatures and a grounded initial state."""

    rules: tuple[BcslRule, ...]
    atomic_signature: dict[str, frozenset[str]]
    structure_signature: dict[str, frozenset[str]]
    init: Multiset

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.rules)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<WS>\s+)
      | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<INT>[0-9]+)
      | (?P<DCOLON>::)
      | (?P<ARROW>=>|->)
      | (?P<PUNCT>[{}(),.+~])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "int", "::", "arrow", one of "{}(),.+~", or "end"
    value: str
    line: int
    col: int


def _tokenize(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    for match in _TOKEN_RE.finditer(text):
        if match.start() != pos:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        pos = match.end()
        kind = match.lastgroup
        if kind == "WS":
            continue
        value = match.group()
        col = match.start() + 1
        if kind == "IDENT":
            tokens.append(_Token("ident", value, line_no, col))
        elif kind == "INT":
            tokens.append(_Token("int", value, line_no, col))
        elif kind == "DCOLON":
            tokens.append(_Token("::", value, line_no, col))
        elif kind == "ARROW":
            tokens.append(_Token("arrow", "=>", line_no, col))
        else:
            tokens.append(_Token(value, value, line_no, col))
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
    tokens.append(_Token("end", "", line_no, len(text) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Name classes
# ---------------------------------------------------------------------------

class _Roles:
    """Tracks the syntactic role of every identifier seen so far."""

    def __init__(self) -> None:
        self._seen: dict[str, tuple[str, int]] = {}

    def register(self, name: str, role: str, line: int, col: int) -> None:
        prev = self._seen.get(name)
        if prev is None:
            self._seen[name] = (role, line)
        elif prev[0] != role:
            raise ParseError(
                f"name {name!r} used as {role} here but as {prev[0]} on line {prev[1]}",
                line,
                col,
            )


# ---------------------------------------------------------------------------
# Recursive-descent parser over one line of tokens
# ---------------------------------------------------------------------------

class _LineParser:
    def __init__(self, tokens: list[_Token], roles: _Roles):
        self._tokens = tokens
        self._pos = 0
        self._roles = roles

    def peek(self) -> _Token:
        return self._tokens[self._pos]

    def take(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "end":
            self._pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = repr(tok.value) if tok.kind != "end" else "end of line"
            raise ParseError(f"expected {what}, found {found}", tok.line, tok.col)
        return self.take()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing {tok.value!r}", tok.line, tok.col)

    def parse_rule(self) -> BcslRule:
        label = self.expect("ident", "rule label")
        self.expect("~", "'~' after the rule label")
        lhs = self.parse_pattern(stop={"arrow"})
        self.expect("arrow", "'=>' between rule sides")
        rhs = self.parse_pattern(stop={"end"})
        self.expect_end()
        return BcslRule(label.value, lhs, rhs)

    def parse_init(self) -> tuple[int, Agent]:
        count_tok = self.expect("int", "an agent count")
        count = int(count_tok.value)
        if count < 1:
            raise ParseError("agent count must be positive", count_tok.line, count_tok.col)
        agent = self.parse_agent()
        self.expect_end()
        return count, agent

    def parse_pattern(self, stop: set[str]) -> Pattern:
        if self.peek().kind in stop:
            return Pattern(())
        agents = [self.parse_agent()]
        while self.peek().kind == "+":
            self.take()
            agents.append(self.parse_agent())
        return Pattern(tuple(agents))

    def parse_agent(self) -> Agent:
        chain = [self.parse_component()]
        while self.peek().kind == ".":
            self.take()
            chain.append(self.parse_component())
        self.expect("::", "'::' before the compartment")
        comp = self.expect("ident", "a compartment name")
        self._roles.register(comp.value, "compartment", comp.line, comp.col)
        return Agent(tuple(chain), comp.value)

    def parse_component(self) -> Atomic | Structure:
        name = self.expect("ident", "a component name")
        tok = self.peek()
        if tok.kind == "{":
            return self._finish_atomic(name)
        if tok.kind == "(":
            return self._finish_structure(name)
        raise ParseError(
            f"expected '{{' or '(' after component name {name.value!r}", tok.line, tok.col
        )

    def _finish_atomic(self, name: _Token) -> Atomic:
        self._roles.register(name.value, "atomic", name.line, name.col)
        self.expect("{", "'{'")
        feature = self.expect("ident", "a feature name")
        self._roles.register(feature.value, "feature", feature.line, feature.col)
        self.expect("}", "'}'")
        return Atomic(name.value, feature.value)

    def _finish_structure(self, name: _Token) -> Structure:
        self._roles.register(name.value, "structure", name.line, name.col)
        self.expect("(", "'('")
        composition: list[Atomic] = []
        positions: list[_Token] = []
        if self.peek().kind != ")":
            while True:
                atom_name = self.peek()
                composition.append(self._finish_atomic(self.expect("ident", "an atomic name")))
                positions.append(atom_name)
                if self.peek().kind != ",":
                    break
                self.take()
        self.expect(")", "')' closing the composition")
        seen: set[str] = set()
        for atom, tok in zip(composition, positions):
            if atom.name in seen:
                raise ParseError(
                    f"duplicate atomic {atom.name!r} in composition of {name.value!r}",
                    tok.line,
                    tok.col,
                )
            seen.add(atom.name)
        names = [a.name for a in composition]
        if names != sorted(names):
            raise ParseError(
                f"composition of {name.value!r} is not alphanumerically sorted",
                name.line,
                name.col,
            )
        return Structure(name.value, tuple(composition))


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

_SECTIONS = ("rules", "inits")


def parse_model(text: str) -> BcslModel:
    """Parse a model file into rules, inferred signatures and the initial state.

    Rules keep their source order; repeated init lines for congruent
    agents aggregate.  Raises :class:`ParseError` with a source position
    on any syntax or well-formedness defect.
    """
    rules: list[BcslRule] = []
    label_lines: dict[str, int] = {}
    init_counts: dict[Agent, int] = {}
    roles = _Roles()
    section: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#!"):
            header = stripped[2:].strip()
            if header not in _SECTIONS:
                raise ParseError(f"unknown section header {header!r}", line_no, 1)
            section = header
            continue
        if section is None:
            raise ParseError("content before any '#!' section header", line_no, 1)
        parser = _LineParser(_tokenize(line, line_no), roles)
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
            count, agent = parser.parse_init()
            init_counts[agent] = init_counts.get(agent, 0) + count

    init = Multiset(init_counts)
    atomic_signature, structure_signature = infer_signatures(rules, init)
    return BcslModel(tuple(rules), atomic_signature, structure_signature, init)


def parse_rule(text: str) -> BcslRule:
    """Parse a single rule line."""
    parser = _LineParser(_tokenize(text, 1), _Roles())
    return parser.parse_rule()


def parse_agent(text: str) -> Agent:
    """Parse a single agent."""
    parser = _LineParser(_tokenize(text, 1), _Roles())
    agent = parser.parse_agent()
    parser.expect_end()
    return agent


def parse_pattern(text: str) -> Pattern:
    """Parse a pattern (possibly empty)."""
    parser = _LineParser(_tokenize(text, 1), _Roles())
    pattern = parser.parse_pattern(stop={"end"})
    parser.expect_end()
    return pattern


def parse_multiset(text: str) -> Multiset:
    """Parse multiset text: ``∅`` or ``+``-separated, optionally counted agents.

    Accepts both ``2 A{u}::c`` and the bare ``A{u}::c`` (count 1).
    """
    stripped = text.strip()
    if stripped in ("", "∅"):
        return Multiset()
    parser = _LineParser(_tokenize(stripped, 1), _Roles())
    counts: dict[Agent, int] = {}
    while True:
        n = 1
        if parser.peek().kind == "int":
            tok = parser.take()
            n = int(tok.value)
            if n < 1:
                raise ParseError("agent count must be positive", tok.line, tok.col)
        agent = parser.parse_agent()
        counts[agent] = counts.get(agent, 0) + n
        if parser.peek().kind != "+":
            break
        parser.take()
    parser.expect_end()
    return Multiset(counts)


def infer_signatures(
    rules: Iterable[BcslRule], init: Multiset
) -> tuple[dict[str, frozenset[str]], dict[str, frozenset[str]]]:
    """Collect the atomic and structure signatures used by a model.

    The atomic signature maps every atomic name to the set of concrete
    (non-ε) features it carries anywhere in the rules or the initial
    state; the structure signature maps every structure name to the union
    of atomic names in its compositions.  An atomic whose every occurrence
    is ε cannot be instantiated and raises :class:`SignatureError`.
    """
    features: dict[str, set[str]] = {}
    members: dict[str, set[str]] = {}

    def see_atomic(atomic: Atomic) -> None:
        pool = features.setdefault(atomic.name, set())
        if atomic.feature != EPSILON:
            pool.add(atomic.feature)

    def see_agent(agent: Agent) -> None:
        for component in agent.chain:
            if isinstance(component, Structure):
                members.setdefault(component.name, set()).update(
                    a.name for a in component.composition
                )
                for atomic in component.composition:
                    see_atomic(atomic)
            else:
                see_atomic(component)

    for rule in rules:
        for pattern in (rule.lhs, rule.rhs):
            for agent in pattern.agents:
                see_agent(agent)
    for agent, _ in init.items():
        see_agent(agent)

    uninstantiable = sorted(name for name, pool in features.items() if not pool)
    if uninstantiable:
        raise SignatureError(
            "atomic name(s) with no concrete feature anywhere in the model: "
            + ", ".join(uninstantiable)
        )
    return (
        {name: frozenset(pool) for name, pool in features.items()},
        {name: frozenset(pool) for name, pool in members.items()},
    )


def model_to_text(model: BcslModel) -> str:
    """Render a model back to file text (rules in order, inits sorted)."""
    lines = ["#! rules"]
    lines.extend(str(rule) for rule in model.rules)
    lines.append("")
    lines.append("#! inits")
    lines.extend(f"{n} {agent}" for agent, n in model.init.items())
    return "\n".join(lines) + "\n"
