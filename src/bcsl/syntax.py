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

Each line is cut into tokens by one ``findall`` of a regular expression,
and a token's kind is read off a fixed table by its text or its first
character; no column is kept.  One ``_LineParser`` reads the tokens, an
agent in one flat loop; the role of every name seen so far is shared
across the lines of a model.  An error scans its line again for the
column of the token it names.

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

# One ``findall`` cuts a line into token texts.  A token's kind is an
# operator's own text (both arrows read as "=>"), else "ident" or "int" by
# its first character; any other token is a stray character, an error.
_TOKEN_RE = re.compile(rf"{IDENTIFIER}|[0-9]+|::|[=-]>|\S")
_KINDS = {op: op for op in ("::", "=>", *"{}(),.+~")}
_KINDS["->"] = "=>"
_KINDS.update(dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "ident"))
_KINDS.update(dict.fromkeys("0123456789", "int"))
# Only these end a model line; every other whitespace character, such as
# a form feed, separates tokens within it.
_LINE_BREAK = re.compile(r"\r\n?|\n")


class _LineParser:
    """Reads one line of text, with the roles of the names seen so far.

    ``roles`` maps each name to its role and the line of its first use;
    ``parse_model`` shares one dict across the lines of a model.  Tokens
    are two lists, kinds and values, ended by an "end" token; no column is
    kept, and an error finds its token's column by scanning the line again.
    """

    def __init__(self, text: str, line: int = 1, roles: dict[str, tuple[str, int]] | None = None):
        self.text = text
        self.line = line
        self._roles = {} if roles is None else roles
        self._pos = 0
        self._values = values = _TOKEN_RE.findall(text)
        self._kinds = kinds = [_KINDS.get(v) or _KINDS.get(v[0], "stray") for v in values]
        if "stray" in kinds:
            at = kinds.index("stray")
            raise self.error(f"unexpected character {values[at]!r}", at)
        if "->" in values:
            self._values = values = [v if v != "->" else "=>" for v in values]
        kinds.append("end")
        values.append("")

    def error(self, message: str, at: int) -> ParseError:
        """A ``ParseError`` at token ``at``, whose column a second scan finds."""
        col = len(self.text) + 1
        if self._kinds[at] != "end":
            for i, match in enumerate(_TOKEN_RE.finditer(self.text)):
                if i == at:
                    col = match.start() + 1
                    break
        return ParseError(message, self.line, col)

    def expected(self, what: str, at: int) -> ParseError:
        found = repr(self._values[at]) if self._kinds[at] != "end" else "end of line"
        return self.error(f"expected {what}, found {found}", at)

    def clash(self, role: str, at: int) -> ParseError:
        """The error for the name at token ``at``, claimed in ``role`` but used in another."""
        name = self._values[at]
        first_role, first_line = self._roles[name]
        message = f"name {name!r} used as {role} here but as {first_role} on line {first_line}"
        return self.error(message, at)

    def accept(self, kind: str) -> bool:
        if self._kinds[self._pos] != kind:
            return False
        self._pos += 1
        return True

    def expect(self, kind: str, what: str) -> str:
        """The value of the next token, which must be of ``kind``."""
        at = self._pos
        if self._kinds[at] != kind:
            raise self.expected(what, at)
        self._pos = at + 1
        return self._values[at]

    def expect_end(self) -> None:
        if self._kinds[self._pos] != "end":
            raise self.error(f"unexpected trailing {self._values[self._pos]!r}", self._pos)

    def parse_rule(self) -> BcslRule:
        label = self.expect("ident", "rule label")
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
        digits) fails at its count.  A sum is never written: only one of
        more than ``3 * limit`` bits, past ``8**limit``, is compared with
        ``10**limit``, so a sum of small counts computes no large power.
        """
        count, at = 1, self._pos
        if not bare or self._kinds[at] == "int":
            value = self.expect("int", "an agent count")
            try:
                count = int(value)
            except ValueError:  # longer than ``sys.get_int_max_str_digits()``
                raise self.error("agent count has too many digits", at) from None
            if count < 1:
                raise self.error("agent count must be positive", at)
        agent = canonicalize(self.parse_agent())
        if agent in counts:
            count += counts[agent]
            limit = sys.get_int_max_str_digits()
            if limit and count.bit_length() > 3 * limit and count >= 10**limit:
                raise self.error("agent counts sum to too many digits", at)
        counts[agent] = count

    def parse_pattern(self, stop: str) -> Pattern:
        if self._kinds[self._pos] == stop:
            return Pattern(())
        agents = [self.parse_agent()]
        while self.accept("+"):
            agents.append(self.parse_agent())
        return Pattern(tuple(agents))

    def parse_agent(self) -> Agent:
        """Read ``chain "::" COMPARTMENT`` in one loop over the tokens.

        Names are claimed in reading order: an atomic, then its feature; a
        structure, then its atomics; the compartment last.
        """
        kinds, values, roles, line = self._kinds, self._values, self._roles, self.line
        as_atomic, as_feature = ("atomic", line), ("feature", line)
        at = self._pos
        chain: list[Atomic | Structure] = []
        composition: list[Atomic] | None = None  # inside a structure's parentheses
        while True:
            if kinds[at] != "ident":
                what = "a component name" if composition is None else "an atomic name"
                raise self.expected(what, at)
            name, follow = values[at], kinds[at + 1]
            if composition is None and follow == "(":
                if roles.setdefault(name, ("structure", line))[0] != "structure":
                    raise self.clash("structure", at)
                structure, start, composition = name, at, []
                at += 2
                if kinds[at] != ")":
                    continue
            else:
                if composition is None and follow != "{":
                    raise self.error(f"expected '{{' or '(' after component name {name!r}", at + 1)
                if roles.setdefault(name, as_atomic)[0] != "atomic":
                    raise self.clash("atomic", at)
                if follow != "{":
                    raise self.expected("'{'", at + 1)
                if kinds[at + 2] != "ident":
                    raise self.expected("a feature name", at + 2)
                feature = values[at + 2]
                if roles.setdefault(feature, as_feature)[0] != "feature":
                    raise self.clash("feature", at + 2)
                if kinds[at + 3] != "}":
                    raise self.expected("'}'", at + 3)
                at += 4
                if composition is None:
                    chain.append(Atomic(name, feature))
                else:
                    composition.append(Atomic(name, feature))
                    if kinds[at] == ",":
                        at += 1
                        continue
            if composition is not None:
                if kinds[at] != ")":
                    raise self.expected("')' closing the composition", at)
                at += 1
                names = [a.name for a in composition]
                if len(set(names)) != len(names):
                    seen: set[str] = set()
                    for i, atom in enumerate(names):  # member i is token ``start + 2 + 5 * i``
                        if atom in seen:
                            raise self.error(
                                f"duplicate atomic {atom!r} in composition of {structure!r}",
                                start + 2 + 5 * i,
                            )
                        seen.add(atom)
                if names != sorted(names):
                    message = f"composition of {structure!r} is not alphanumerically sorted"
                    raise self.error(message, start)
                chain.append(Structure(structure, tuple(composition)))
                composition = None
            if kinds[at] != ".":
                break
            at += 1
        if kinds[at] != "::":
            raise self.expected("'::' before the compartment", at)
        if kinds[at + 1] != "ident":
            raise self.expected("a compartment name", at + 1)
        compartment = values[at + 1]
        if roles.setdefault(compartment, ("compartment", line))[0] != "compartment":
            raise self.clash("compartment", at + 1)
        self._pos = at + 2
        return Agent(tuple(chain), compartment)


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
