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

Each agent carries one identity that is computed once, on first use:
its hash and its text (``Agent.text``, also the order of multiset
entries).  Agents that are built but never hashed or printed, such as
the intermediate terms of parsing and grounding, cost neither.
``canonicalize`` returns an already canonical agent itself, and so keeps
what it has cached.  A model keeps one intern table from each canonical
agent to its one object (``BcslModel.agent_table``); the direct matcher
and grounding (through ``Multiset.interned``) build their states from
it, so equal agents of both semantics are one object, and dict probes
and comparisons of states find them by identity.

A multiset is lazy in the same way: it is built from its counts alone,
and its entries sorted by agent text, its text and its hash are each
computed on first use and kept.  The hash does not depend on the order
of the entries, so a multiset that is only compared with others (a
successor leading to a state already seen, an intermediate difference)
is never sorted or printed.
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

    @property
    def is_grounded(self) -> bool:
        return all(a.is_grounded for a in self.composition)

    def __str__(self) -> str:
        return f"{self.name}({','.join(str(a) for a in self.composition)})"


Component = Union[Atomic, Structure]


@dataclass(frozen=True)
class Agent:
    """A chain of components in a compartment; the element type of states.

    The hash and the text (``text`` / ``str``) are computed the first
    time they are asked for and kept on the instance.  Equality tries
    identity, then the cached hashes, then the fields.
    """

    chain: tuple[Component, ...]
    compartment: str

    # Identity cache; the class-level None means "not computed yet".
    _hash = None
    _text = None

    def __post_init__(self) -> None:
        if not self.chain:
            raise ValueError("agent chain must not be empty")
        _check_name(self.compartment, "compartment")

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.chain, self.compartment))
            object.__setattr__(self, "_hash", value)
        return value

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Agent):
            return NotImplemented
        return (
            hash(self) == hash(other)
            and self.compartment == other.compartment
            and self.chain == other.chain
        )

    def __reduce__(self):
        # Rebuild from the fields: the cached hash depends on the process's hash seed.
        return (Agent, (self.chain, self.compartment))

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
        return all(c.is_grounded for c in self.chain)

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


class Multiset:
    """Immutable multiset of grounded agents keyed by canonical form.

    Absent agents have multiplicity 0; stored multiplicities are strictly
    positive.  All operations are pointwise on multiplicities; difference
    clamps at zero.

    Only the counts are stored at construction.  The entries sorted by
    agent text (``items``), the text (``str``) and the hash are computed
    the first time they are asked for and kept on the instance; the hash
    is taken over the unordered entries.
    """

    __slots__ = ("_counts", "_items", "_text", "_hash")

    def __init__(self, counts: Mapping[Agent, int] | None = None, *, _trusted: bool = False):
        # ``_trusted``: ``counts`` is a fresh dict of canonical agents to
        # positive counts, which the multiset takes over unchecked.
        if _trusted:
            merged = counts
        else:
            merged = {}
            for agent, n in (counts or {}).items():
                if not isinstance(n, int) or n < 0:
                    raise ValueError(f"multiplicity must be a natural number, got {n!r}")
                if n == 0:
                    continue
                if not agent.is_grounded:
                    raise ValueError(f"agent is not grounded: {agent}")
                key = canonicalize(agent)
                merged[key] = merged.get(key, 0) + n
        self._counts: dict[Agent, int] = merged
        # Identity cache; None means "not computed yet".
        self._items: tuple[tuple[Agent, int], ...] | None = None
        self._text: str | None = None
        self._hash: int | None = None

    @classmethod
    def empty(cls) -> Multiset:
        return cls()

    @classmethod
    def from_agents(cls, agents: Iterable[Agent]) -> Multiset:
        """Build a multiset counting occurrences of each (canonical) agent."""
        counts: dict[Agent, int] = {}
        for agent in agents:
            if not agent.is_grounded:
                raise ValueError(f"agent is not grounded: {agent}")
            key = canonicalize(agent)
            counts[key] = counts.get(key, 0) + 1
        return cls(counts, _trusted=True)

    def count(self, agent: Agent) -> int:
        """Multiplicity of ``agent`` (0 when absent)."""
        return self._counts.get(canonicalize(agent), 0)

    def union(self, other: Multiset) -> Multiset:
        """Pointwise sum of multiplicities."""
        counts = dict(self._counts)
        for agent, n in other._counts.items():
            counts[agent] = counts.get(agent, 0) + n
        return Multiset(counts, _trusted=True)

    def difference(self, other: Multiset) -> Multiset:
        """Pointwise difference, clamped at zero."""
        counts: dict[Agent, int] = {}
        for agent, n in self._counts.items():
            left = n - other._counts.get(agent, 0)
            if left > 0:
                counts[agent] = left
        return Multiset(counts, _trusted=True)

    def rewrite(self, consumed: Mapping[Agent, int], produced: Mapping[Agent, int]) -> Multiset:
        """``self − consumed + produced`` in one step, without intermediate multisets.

        Both mappings hold canonical agents and positive counts, and
        ``consumed`` must be contained in ``self``.
        """
        counts = dict(self._counts)
        for agent, n in consumed.items():
            left = counts.get(agent, 0) - n
            if left > 0:
                counts[agent] = left
            elif left == 0:
                del counts[agent]
            else:
                raise ValueError(f"cannot consume {n} {agent} from {self}")
        for agent, n in produced.items():
            counts[agent] = counts.get(agent, 0) + n
        return Multiset(counts, _trusted=True)

    def interned(self, table: dict[Agent, Agent]) -> Multiset:
        """The same multiset over ``table``'s objects (missing agents are added)."""
        return Multiset({table.setdefault(a, a): n for a, n in self._counts.items()}, _trusted=True)

    def intersection(self, other: Multiset) -> Multiset:
        """Pointwise minimum of multiplicities."""
        counts: dict[Agent, int] = {}
        for agent, n in self._counts.items():
            m = min(n, other._counts.get(agent, 0))
            if m > 0:
                counts[agent] = m
        return Multiset(counts, _trusted=True)

    def issubset(self, other: Multiset) -> bool:
        """True when every multiplicity in ``self`` is ≤ the one in ``other``."""
        return all(other._counts.get(agent, 0) >= n for agent, n in self._counts.items())

    def items(self) -> tuple[tuple[Agent, int], ...]:
        """Entries as (agent, multiplicity) pairs, sorted by agent text."""
        value = self._items
        if value is None:
            value = self._items = tuple(sorted(self._counts.items(), key=lambda kv: kv[0].text))
        return value

    def agents(self) -> tuple[Agent, ...]:
        """Distinct agents, sorted by text."""
        return tuple(agent for agent, _ in self.items())

    def to_dict(self) -> dict[Agent, int]:
        """A fresh dict of the multiplicities, in no particular order."""
        return dict(self._counts)

    @property
    def total(self) -> int:
        """Cardinality counting repetitions."""
        return sum(self._counts.values())

    def __contains__(self, agent: Agent) -> bool:
        return self.count(agent) >= 1

    def __iter__(self) -> Iterator[Agent]:
        return iter(self.agents())

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(frozenset(self._counts.items()))
        return value

    def __str__(self) -> str:
        value = self._text
        if value is None:
            value = self._text = " + ".join(f"{n} {agent}" for agent, n in self.items()) or "∅"
        return value

    def __repr__(self) -> str:
        return f"Multiset({str(self)!r})"
