"""Model files: lexing, parsing, signature inference and ``model_to_text``.

A model file has two sections, one rule or init entry per line::

    #! rules
    r1_S ~ P(S{i})::cell => P(S{a})::cell
    r2   ~ P()::cell     => P()::out      // transport
    #! inits
    1 P(S{i},T{i})::cell

Only ``\n``, ``\r\n`` and ``\r`` end a line.  Every other whitespace
character, form feed, vertical tab and U+2028 included, separates tokens
within a line; whitespace between tokens is insignificant, ``//`` starts
a comment, and blank lines are ignored.  Line grammar::

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

Each line is read by one lexer pass, into ``(kind, value, column)``
tokens, and one recursive-descent ``_LineParser``; the role of every name
seen so far is shared across the lines of a model.

Signatures are never written explicitly: ``infer_signatures`` collects,
for every atomic name, the set of concrete features it carries anywhere
in the model, and for every structure name the union of atomic names
appearing in its compositions.
"""

from __future__ import annotations

import re
import sys
from typing import Iterable

from .terms import EPSILON, IDENTIFIER, Agent, Atomic, Multiset, Pattern, Structure, canonicalize
from .terms import _Record


class ParseError(Exception):
    """Syntax or well-formedness error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class SignatureError(Exception):
    """Model-level signature defect (e.g. an atomic with no concrete feature)."""


class BcslRule(_Record):
    """A labelled rewrite rule between two patterns."""

    __slots__ = _fields = ("label", "lhs", "rhs")

    def __init__(self, label: str, lhs: Pattern, rhs: Pattern) -> None:
        self.label = label
        self.lhs = lhs
        self.rhs = rhs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.label == other.label and self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self) -> int:
        return hash((self.label, self.lhs, self.rhs))

    def __str__(self) -> str:
        parts = [self.label, "~", str(self.lhs), "=>", str(self.rhs)]
        return " ".join(p for p in parts if p)


class BcslModel(_Record):
    """Rules, inferred signatures and a grounded initial state.

    Compares by its fields; its signatures are dicts, so it has no hash.
    """

    __slots__ = _fields = ("rules", "atomic_signature", "structure_signature", "init")
    __eq__ = _Record._same_fields

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.rules)


# ---------------------------------------------------------------------------
# Lexer and recursive-descent parser over one line
# ---------------------------------------------------------------------------

# A token is ``(kind, value, column)``: the kind is "ident", "int" or the
# operator itself (both arrows read as "=>"); a stray character is an error.
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<ident>{IDENTIFIER})|(?P<int>[0-9]+)|(?P<op>::|[=-]>|[{{}}(),.+~])|(?P<stray>\S))"
)
# Only these end a model line; every other whitespace character, such as
# a form feed, separates tokens within it.
_LINE_BREAK = re.compile(r"\r\n?|\n")


class _LineParser:
    """Reads one line of text, with the roles of the names seen so far.

    ``roles`` maps each name to its role and the line of its first use;
    ``parse_model`` shares one dict across the lines of a model.
    """

    def __init__(self, text: str, line: int = 1, roles: dict[str, tuple[str, int]] | None = None):
        self.line = line
        self._roles = {} if roles is None else roles
        self._pos = 0
        self._tokens = tokens = []
        for match in _TOKEN_RE.finditer(text):
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
        """Add ``COUNT agent`` to ``counts``; with ``bare``, a missing count reads as 1.

        Congruent agents share one entry.  A count, or a sum of counts, that
        ``str`` could not write (more than ``sys.get_int_max_str_digits()``
        digits) fails at its count; a sum is compared with a power of ten,
        never written.
        """
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


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

_SECTIONS = ("rules", "inits")


def parse_model(text: str) -> BcslModel:
    """Parse a model file into rules, inferred signatures and the initial state.

    Rules keep their source order; repeated init lines for congruent
    agents aggregate, and a sum longer than ``str`` writes fails at the
    count that makes it.  Raises :class:`ParseError` with a source position
    on any syntax or well-formedness defect.
    """
    rules: list[BcslRule] = []
    label_lines: dict[str, int] = {}
    init_counts: dict[Agent, int] = {}
    roles: dict[str, tuple[str, int]] = {}
    section: str | None = None

    for line_no, raw in enumerate(_LINE_BREAK.split(text), start=1):
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
        parser = _LineParser(line, line_no, roles)
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


def parse_rule(text: str) -> BcslRule:
    """Parse a single rule line."""
    return _LineParser(text).parse_rule()


def parse_agent(text: str) -> Agent:
    """Parse a single agent."""
    parser = _LineParser(text)
    agent = parser.parse_agent()
    parser.expect_end()
    return agent


def parse_pattern(text: str) -> Pattern:
    """Parse a pattern (possibly empty)."""
    parser = _LineParser(text)
    pattern = parser.parse_pattern(stop="end")
    parser.expect_end()
    return pattern


def parse_multiset(text: str) -> Multiset:
    """Parse multiset text: ``∅`` or ``+``-separated, optionally counted agents.

    Accepts both ``2 A{u}::c`` and the bare ``A{u}::c`` (count 1).
    """
    stripped = text.strip()
    if stripped in ("", "∅"):
        return Multiset()
    parser = _LineParser(stripped)
    counts: dict[Agent, int] = {}
    while True:
        parser.add_counted(counts, bare=True)
        if not parser.accept("+"):
            break
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
