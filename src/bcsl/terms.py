"""Term model for rule-based biochemical states.

An agent is a non-empty chain of components inside a named compartment.
Components are either atomics (a named site carrying exactly one feature)
or structures (a named group of atomics, the composition).  Atomics in
patterns may carry the placeholder feature ``ε`` ("not yet resolved"); an
agent with no ε anywhere is grounded.

Agent identity in states is structural congruence: the order of chain
components and of multiset entries is irrelevant, compositions are kept
alphanumerically sorted.  ``canonicalize`` picks a deterministic
representative of each congruence class so grounded agents can be hashed
and compared directly.  ``Multiset`` is the shared state type: an
immutable multiset of canonical grounded agents with pointwise union,
difference (clamped at zero), intersection and inclusion.

The term classes are plain records (``_Record``), immutable by
convention: nothing assigns a field after construction.  ``_Record``
has one constructor over ``_fields``, with ``_defaults`` for the fields
left out; the term classes, built by the thousand, write their own.
Atomics, structures and patterns compare and hash by their fields.
An agent's identity is its text (``Agent.text``, e.g. ``A{x}.P(S{i})::c``):
its hash, its equality and its key in the intern table.  Every name is an
identifier, so the text is injective and text equality is field
equality.  The text is computed on first use and kept; agents that are
built but never hashed or printed, such as the intermediate terms of
parsing and grounding, do not pay for it.  ``canonicalize`` returns an
already canonical agent itself, and so keeps its text.

One intern table, kept for the life of the process, gives each canonical
grounded agent a small integer id the first time it is asked for
(``agent_id``) and maps the id back to that agent's one object
(``agent_of``).  ``agent_id`` takes any grounded spelling: it rejects a
non-grounded agent, canonicalises a spelling it has not met, and files
that spelling's text under the id of its canonical form, so each
spelling is canonicalised once.  A multiset is a ``frozenset`` of
``(agent id, count)`` pairs, so hashing and comparing states, the probes
of every state store, run in C, and ``frozenset`` keeps the hash.  Both
semantics build their states over the same table: the direct matcher
and the grounded rule index key on ids, and the states of both hold
equal agents as one id.  The table also keeps each id's canonical text,
the one source of agent text order.  Ids depend on the order agents are
first met, so nothing printed reads them: ``items`` and ``to_dict`` sort
their agents by the table's texts, and the text (``str``) is rendered
from those texts alone, without building ``items``, and kept once
computed.  It is where every count becomes text, so a count longer than
``sys.get_int_max_str_digits()`` digits raises ``CountTooLongError`` there.
"""

from __future__ import annotations

import re
import sys
from typing import Iterable, Iterator, Mapping, Union

#: Placeholder feature of an unresolved atomic in a pattern.
EPSILON = "ε"

#: The pattern of every name: atomic, feature, structure, compartment and
#: rule label alike.
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"

_NAME_RE = re.compile(rf"{IDENTIFIER}\Z")
# Names that have passed ``_check_name``: terms are rebuilt from the same
# few names over and over, so each is matched against the regex once.
_ACCEPTED_NAMES: set[str] = set()


class CountTooLongError(ValueError):
    """A state count with more digits than ``str`` writes (``sys.get_int_max_str_digits()``)."""


def _check_name(name: str, kind: str) -> None:
    if type(name) is str and name in _ACCEPTED_NAMES:
        return
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(f"invalid {kind} name {name!r}")
    _ACCEPTED_NAMES.add(name)


class _Record:
    """Base of the plain record classes: one constructor, and the dataclass ``repr``.

    The constructor fills ``_fields`` in order, first from the positional
    values, then from the keywords; a field given neither way takes its
    value from the class's ``_defaults``.  Too many positional values, an
    unknown or repeated field, and a missing field with no default raise
    ``TypeError``.  Records are immutable by convention: nothing assigns a
    field after ``__init__``.  A record that compares by its fields takes
    ``__eq__`` and ``__hash__`` from ``_same_fields`` and ``_hash_fields``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: Mapping[str, object] = {}

    def __init__(self, *values, **named) -> None:
        kind, fields = type(self).__qualname__, self._fields
        if len(values) > len(fields):
            raise TypeError(f"{kind} takes {len(fields)} fields, got {len(values)} by position")
        for name, value in zip(fields, values):
            if name in named:
                raise TypeError(f"{kind} got field {name!r} twice")
            setattr(self, name, value)
        for name in fields[len(values) :]:
            if name not in named and name not in self._defaults:
                raise TypeError(f"{kind} is missing field {name!r}")
            setattr(self, name, named.pop(name) if name in named else self._defaults[name])
        if named:
            raise TypeError(f"{kind} has no field {next(iter(named))!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def _same_fields(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _hash_fields(self) -> int:
        return hash(self._values())


# Built by the thousand, the term classes, ``BcslRule`` and ``MrsRule`` write
# their own ``__init__``, ``__eq__`` and ``__hash__``: ``_Record``'s generic
# constructor made ``corpus_check``'s parse and matcher round 21% slower.
class Atomic(_Record):
    """Leaf component: a named site with one feature (possibly ε)."""

    __slots__ = _fields = ("name", "feature")

    def __init__(self, name: str, feature: str) -> None:
        _check_name(name, "atomic")
        if feature != EPSILON:
            _check_name(feature, "feature")
        self.name = name
        self.feature = feature

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name and self.feature == other.feature

    def __hash__(self) -> int:
        return hash((self.name, self.feature))

    def __str__(self) -> str:
        return f"{self.name}{{{self.feature}}}"


class Structure(_Record):
    """Named container of atomics; atomic names are pairwise distinct."""

    __slots__ = _fields = ("name", "composition")

    def __init__(self, name: str, composition: tuple[Atomic, ...] = ()) -> None:
        _check_name(name, "structure")
        names = [a.name for a in composition]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate atomic name in composition of {name!r}")
        self.name = name
        self.composition = composition

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name and self.composition == other.composition

    def __hash__(self) -> int:
        return hash((self.name, self.composition))

    def __str__(self) -> str:
        return f"{self.name}({','.join(str(a) for a in self.composition)})"


Component = Union[Atomic, Structure]


class Agent(_Record):
    """A chain of components in a compartment; the element type of states.

    The text (``text`` / ``str``) is the agent's identity: ``hash`` and
    ``==`` read it.  It is computed the first time it is asked for and
    kept on the instance; it does not depend on the hash seed, so an
    agent pickles with it.
    """

    __slots__ = ("chain", "compartment", "_text")
    _fields = ("chain", "compartment")

    def __init__(self, chain: tuple[Component, ...], compartment: str) -> None:
        if not chain:
            raise ValueError("agent chain must not be empty")
        _check_name(compartment, "compartment")
        self.chain = chain
        self.compartment = compartment
        self._text = None  # not computed yet

    def __hash__(self) -> int:
        return hash(self.text)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Agent):
            return NotImplemented
        return self.text == other.text

    @property
    def text(self) -> str:
        """Serialized form, e.g. ``A{x}.P(S{i})::cell``."""
        value = self._text
        if value is None:
            value = self._text = ".".join(str(c) for c in self.chain) + "::" + self.compartment
        return value

    def __str__(self) -> str:
        return self.text


class Pattern(_Record):
    """Ordered agent sequence; may be empty.

    Unlike states, patterns compare positionally: the written order of
    agents (and of chain components) is part of pattern identity.
    """

    __slots__ = _fields = ("agents",)

    def __init__(self, agents: tuple[Agent, ...] = ()) -> None:
        self.agents = agents

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.agents == other.agents

    def __hash__(self) -> int:
        return hash((self.agents,))

    def __str__(self) -> str:
        return " + ".join(str(a) for a in self.agents)


def canonicalize(agent: Agent) -> Agent:
    """Return the congruence-class representative of ``agent``.

    Compositions are sorted by atomic name, then chain components are
    sorted by their serialized text (a total, byte-wise order).  Two
    agents are congruent iff their canonical forms are equal.
    """
    chain = tuple(sorted((_canonical_component(c) for c in agent.chain), key=str))
    if chain == agent.chain:
        return agent
    return Agent(chain, agent.compartment)


def _canonical_component(component: Component) -> Component:
    if isinstance(component, Structure):
        ordered = tuple(sorted(component.composition, key=lambda a: a.name))
        if ordered != component.composition:
            return Structure(component.name, ordered)
    return component


# The process-wide intern table: the id of each grounded agent text met
# (the canonical form's and every other spelling's), and the canonical
# agent of each id and its text.  Ids are handed out in first-use order
# and never dropped.  Nothing locks it: the program runs in one thread.
_IDS: dict[str, int] = {}
_AGENTS: list[Agent] = []
_TEXTS: list[str] = []


def agent_id(agent: Agent) -> int:
    """The id of a grounded agent's congruence class, given out on first use.

    Raises ``ValueError`` for an agent that is not grounded.
    """
    text = agent.text
    value = _IDS.get(text)
    if value is None:
        if EPSILON in text:
            raise ValueError(f"agent is not grounded: {agent}")
        canonical = canonicalize(agent)
        value = _IDS.get(canonical.text)
        if value is None:
            value = _IDS[canonical.text] = len(_AGENTS)
            _AGENTS.append(canonical)
            _TEXTS.append(canonical.text)
        _IDS[text] = value
    return value


def agent_of(ident: int) -> Agent:
    """The one agent object of an id."""
    return _AGENTS[ident]


# ``_new(Multiset, counts.items())``: ids to positive counts, unchecked.
_new = frozenset.__new__
_pairs = frozenset.__iter__
_subset = frozenset.issubset


class Multiset(frozenset):
    """Immutable multiset of grounded agents keyed by canonical form.

    Absent agents have multiplicity 0; stored multiplicities are strictly
    positive.  All operations are pointwise on multiplicities; difference
    clamps at zero.

    The stored value is the ``frozenset`` of ``(agent id, count)`` pairs,
    so ``==`` and ``hash`` are those of ``frozenset``.  The set algebra of
    the pairs (``|``, ``-``, ``issuperset``, ...) is not multiset algebra
    and raises ``TypeError``.  ``<`` and ``<=`` are left to ``frozenset``
    (they compare pair sets; ``issubset`` is inclusion), because any
    ordering method of its own would slow down every ``==`` of states.
    The text (``str``) is computed the first time it is asked for and
    kept; the entries sorted by agent text (``items``) are sorted anew on
    each call.
    """

    __slots__ = ("_text",)

    def __new__(cls, counts: Mapping[Agent, int] | None = None) -> Multiset:
        merged: dict[int, int] = {}
        for agent, n in (counts or {}).items():
            if not isinstance(n, int) or n < 0:
                raise ValueError(f"multiplicity must be a natural number, got {n!r}")
            if n == 0:
                continue
            key = agent_id(agent)
            merged[key] = merged.get(key, 0) + n
        return _new(Multiset, merged.items())

    def __reduce__(self):
        # Kept on purpose: pickled pairs would carry ids that belong to one
        # process, so a copy is rebuilt from the agents.
        return (Multiset, (self.to_dict(),))

    @classmethod
    def from_agents(cls, agents: Iterable[Agent]) -> Multiset:
        """Build a multiset counting occurrences of each (canonical) agent."""
        counts: dict[int, int] = {}
        for agent in agents:
            key = agent_id(agent)
            counts[key] = counts.get(key, 0) + 1
        return _new(Multiset, counts.items())

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The ``(agent id, count)`` pairs, in no particular order."""
        return _pairs(self)

    def count(self, agent: Agent) -> int:
        """Multiplicity of ``agent`` (0 when absent); ``in`` and the tests read it."""
        if not isinstance(agent, Agent):
            raise TypeError("a Multiset counts Agents; bcsl.parse_agent reads one from its text")
        key = _IDS.get(canonicalize(agent).text)
        return next((n for a, n in _pairs(self) if a == key), 0)

    def union(self, other: Multiset) -> Multiset:
        """Pointwise sum of multiplicities."""
        counts = dict(_pairs(self))
        for agent, n in _pairs(other):
            counts[agent] = counts.get(agent, 0) + n
        return _new(Multiset, counts.items())

    def difference(self, other: Multiset) -> Multiset:
        """Pointwise difference, clamped at zero."""
        counts = dict(_pairs(self))
        for agent, n in _pairs(other):
            left = counts.get(agent, 0) - n
            if left > 0:
                counts[agent] = left
            elif agent in counts:
                del counts[agent]
        return _new(Multiset, counts.items())

    def intersection(self, other: Multiset) -> Multiset:
        """Pointwise minimum of multiplicities."""
        theirs = dict(_pairs(other))
        kept = {a: m for a, n in _pairs(self) if (m := min(n, theirs.get(a, 0))) > 0}
        return _new(Multiset, kept.items())

    def issubset(self, other: Multiset) -> bool:
        """True when every multiplicity in ``self`` is ≤ the one in ``other``."""
        # Pairs found as they are (equal counts) need no lookup by agent;
        # a pair that is not is checked against ``other``'s pairs.
        return _subset(self, other) or all(
            any(a == b and n <= m for b, m in _pairs(other))
            for a, n in frozenset.difference(self, other)
        )

    def items(self) -> tuple[tuple[Agent, int], ...]:
        """Entries as (agent, multiplicity) pairs, sorted by agent text."""
        ordered = sorted([(_TEXTS[a], a, n) for a, n in _pairs(self)])
        return tuple([(_AGENTS[a], n) for _, a, n in ordered])

    def agents(self) -> tuple[Agent, ...]:
        """Distinct agents, sorted by text."""
        return tuple(agent for agent, _ in self.items())

    def to_dict(self) -> dict[Agent, int]:
        """A fresh dict of the multiplicities, sorted by agent text (library API)."""
        return dict(self.items())

    # Kept on purpose: without these two, ``in`` and iteration would
    # silently read the ``(agent id, count)`` pairs of the frozenset.
    def __contains__(self, agent: Agent) -> bool:
        return self.count(agent) >= 1

    def __iter__(self) -> Iterator[Agent]:
        return iter(self.agents())

    def _pair_algebra(self, *args):
        raise TypeError("a Multiset offers multiset algebra, not the set algebra of its pairs")

    __or__ = __and__ = __sub__ = __xor__ = _pair_algebra
    __ror__ = __rand__ = __rsub__ = __rxor__ = _pair_algebra
    copy = issuperset = isdisjoint = symmetric_difference = _pair_algebra

    def __str__(self) -> str:
        value = getattr(self, "_text", None)
        if value is None:
            entries = sorted([(_TEXTS[a], n) for a, n in _pairs(self)])
            try:
                value = self._text = " + ".join([f"{n} {text}" for text, n in entries]) or "∅"
            except ValueError:
                limit = sys.get_int_max_str_digits()
                message = f"agent count has more than {limit} digits, too many to write as text"
                raise CountTooLongError(message) from None
        return value

    def __repr__(self) -> str:
        return f"Multiset({str(self)!r})"
