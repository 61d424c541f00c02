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
difference (clamped at zero), intersection and inclusion, and a fused
``rewrite`` (remove, then add) for successor states.

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
equal agents as one id.  Ids depend on the order agents are first met,
so nothing printed reads them: ``items`` (sorted by agent text), the
text and ``to_dict`` are derived from the agents, and the first two are
kept once computed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

#: Placeholder feature of an unresolved atomic in a pattern.
EPSILON = "ε"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_name(name: str, kind: str) -> None:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(f"invalid {kind} name {name!r}")


@dataclass(frozen=True)
class Atomic:
    """Leaf component: a named site with one feature (possibly ε)."""

    name: str
    feature: str

    def __post_init__(self) -> None:
        _check_name(self.name, "atomic")
        if self.feature != EPSILON:
            _check_name(self.feature, "feature")

    @property
    def is_grounded(self) -> bool:
        return self.feature != EPSILON

    def __str__(self) -> str:
        return f"{self.name}{{{self.feature}}}"


@dataclass(frozen=True)
class Structure:
    """Named container of atomics; atomic names are pairwise distinct."""

    name: str
    composition: tuple[Atomic, ...] = ()

    def __post_init__(self) -> None:
        _check_name(self.name, "structure")
        names = [a.name for a in self.composition]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate atomic name in composition of {self.name!r}")

    def __str__(self) -> str:
        return f"{self.name}({','.join(str(a) for a in self.composition)})"


Component = Union[Atomic, Structure]


@dataclass(frozen=True)
class Agent:
    """A chain of components in a compartment; the element type of states.

    The text (``text`` / ``str``) is the agent's identity: ``hash`` and
    ``==`` read it.  It is computed the first time it is asked for and
    kept on the instance; it does not depend on the hash seed, so an
    agent pickles with it.
    """

    chain: tuple[Component, ...]
    compartment: str

    # Text cache; the class-level None means "not computed yet".
    _text = None

    def __post_init__(self) -> None:
        if not self.chain:
            raise ValueError("agent chain must not be empty")
        _check_name(self.compartment, "compartment")

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
            value = ".".join(str(c) for c in self.chain) + "::" + self.compartment
            object.__setattr__(self, "_text", value)
        return value

    @property
    def is_grounded(self) -> bool:
        return EPSILON not in self.text

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Pattern:
    """Ordered agent sequence; may be empty.

    Unlike states, patterns compare positionally: the written order of
    agents (and of chain components) is part of pattern identity.
    """

    agents: tuple[Agent, ...] = ()

    @property
    def is_grounded(self) -> bool:
        return all(a.is_grounded for a in self.agents)

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


def congruent(a: Agent, b: Agent) -> bool:
    """True when ``a`` and ``b`` are structurally congruent."""
    return canonicalize(a) == canonicalize(b)


# The process-wide intern table: the id of each grounded agent text met
# (the canonical form's and every other spelling's), and the canonical
# agent of each id.  Ids are handed out in first-use order and never
# dropped.  Nothing locks it: the program runs in one thread.
_IDS: dict[str, int] = {}
_AGENTS: list[Agent] = []


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
    The entries sorted by agent text (``items``) and the text (``str``)
    are computed the first time they are asked for and kept.
    """

    __slots__ = ("_items", "_text")

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
        # Rebuild from the agents: ids belong to one process.
        return (Multiset, (self.to_dict(),))

    @classmethod
    def empty(cls) -> Multiset:
        return cls()

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
        """Multiplicity of ``agent`` (0 when absent)."""
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

    def rewrite(
        self,
        consumed: Mapping[int, int],
        produced: Mapping[int, int],
        counts: dict[int, int] | None = None,
    ) -> Multiset:
        """``self − consumed + produced`` in one step, without intermediate multisets.

        Both mappings hold agent ids and positive counts, and ``consumed``
        must be contained in ``self``.  ``counts``, when given, is
        ``dict(self.pairs())`` already built; it is copied, not changed.
        """
        counts = dict(_pairs(self)) if counts is None else counts.copy()
        for agent, n in consumed.items():
            left = counts.get(agent, 0) - n
            if left > 0:
                counts[agent] = left
            elif left == 0:
                del counts[agent]
            else:
                raise ValueError(f"cannot consume {n} {_AGENTS[agent]} from {self}")
        for agent, n in produced.items():
            counts[agent] = counts.get(agent, 0) + n
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
        value = getattr(self, "_items", None)
        if value is None:
            entries = ((_AGENTS[a], n) for a, n in _pairs(self))
            value = self._items = tuple(sorted(entries, key=lambda kv: kv[0].text))
        return value

    def agents(self) -> tuple[Agent, ...]:
        """Distinct agents, sorted by text."""
        return tuple(agent for agent, _ in self.items())

    def to_dict(self) -> dict[Agent, int]:
        """A fresh dict of the multiplicities, sorted by agent text."""
        return dict(self.items())

    @property
    def total(self) -> int:
        """Cardinality counting repetitions."""
        return sum(n for _, n in _pairs(self))

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
            value = self._text = " + ".join(f"{n} {agent}" for agent, n in self.items()) or "∅"
        return value

    def __repr__(self) -> str:
        return f"Multiset({str(self)!r})"
