"""Pattern expansion, instantiation enumeration and grounding.

A pattern abstracts a family of concrete states: structures may omit
atomics (added by expansion with the ε feature) and atomics may carry ε
(resolved by instantiation to every feature the signature allows).
``enumerate_instantiations`` gives a pattern's instantiations as ε-free
patterns.  ``ground_rule`` turns a rule into its reactions, i.e. the
consistent pairs of instantiated sides, as ``(lhs, rhs)`` pattern pairs:
wherever the two sides' deatomisations hold equal source atomics (ε
equals only ε), the instantiations resolve them alike.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import Mapping

from .syntax import BcslRule
from .terms import EPSILON, Agent, Atomic, Pattern, Structure

#: Abort grounding when one rule would produce more candidate pairs than this.
DEFAULT_GROUNDING_CAP = 1_000_000


class GroundingError(Exception):
    """A pattern cannot be grounded with the given signatures."""


class GroundingCapError(GroundingError):
    """Grounding aborted because the enumeration would be too large."""


def expand_agent(agent: Agent, structure_signature: Mapping[str, frozenset[str]]) -> Agent:
    """Complete every composition with ε atomics for missing signature names.

    Compositions come out sorted by atomic name, as in states, whatever
    their written order (a hand-built pattern may have any).
    """
    chain: list[Atomic | Structure] = []
    for component in agent.chain:
        if isinstance(component, Structure):
            if component.name not in structure_signature:
                raise GroundingError(f"structure {component.name!r} has no signature entry")
            present = {a.name for a in component.composition}
            missing = structure_signature[component.name] - present
            merged = component.composition + tuple(Atomic(n, EPSILON) for n in missing)
            merged = tuple(sorted(merged, key=lambda a: a.name))
            if merged != component.composition:
                component = Structure(component.name, merged)
        chain.append(component)
    return Agent(tuple(chain), agent.compartment)


def expand_pattern(pattern: Pattern, structure_signature: Mapping[str, frozenset[str]]) -> Pattern:
    """Expand every agent of the pattern; idempotent."""
    return Pattern(tuple(expand_agent(a, structure_signature) for a in pattern.agents))


def deatomise(pattern: Pattern) -> tuple[Atomic, ...]:
    """All atomics of the pattern in written (left-to-right) order.

    Covers both standalone atomics in chains and atomics inside
    compositions.
    """
    atoms: list[Atomic] = []
    for agent in pattern.agents:
        for component in agent.chain:
            if isinstance(component, Structure):
                atoms.extend(component.composition)
            else:
                atoms.append(component)
    return tuple(atoms)


def instantiation_count(pattern: Pattern, atomic_signature: Mapping[str, frozenset[str]]) -> int:
    """Number of instantiations: the product of signature sizes over ε atomics."""
    total = 1
    for atom in deatomise(pattern):
        if atom.feature == EPSILON:
            total *= len(_feature_options(atom.name, atomic_signature))
    return total


def _feature_options(name: str, atomic_signature: Mapping[str, frozenset[str]]) -> list[str]:
    options = atomic_signature.get(name)
    if not options:
        raise GroundingError(f"no features known for atomic {name!r}")
    return sorted(options)


def assign_features(pattern: Pattern, by_position: Mapping[int, str]) -> Pattern:
    """Rebuild the pattern with features substituted at deatomisation positions."""
    position = 0

    def fix(atom: Atomic) -> Atomic:
        nonlocal position
        feature = by_position.get(position, atom.feature)
        position += 1
        return atom if feature == atom.feature else Atomic(atom.name, feature)

    agents = []
    for agent in pattern.agents:
        chain: list[Atomic | Structure] = []
        for component in agent.chain:
            if isinstance(component, Structure):
                chain.append(Structure(component.name, tuple(fix(a) for a in component.composition)))
            else:
                chain.append(fix(component))
        agents.append(Agent(tuple(chain), agent.compartment))
    return Pattern(tuple(agents))


def enumerate_instantiations(
    pattern: Pattern,
    atomic_signature: Mapping[str, frozenset[str]],
    cap: int = DEFAULT_GROUNDING_CAP,
) -> tuple[Pattern, ...]:
    """All resolutions of the pattern's ε atomics, as ε-free patterns in
    deterministic order.

    Every ε position independently ranges over the (sorted) features of
    its atomic's signature; an ε-free pattern yields exactly itself.
    """
    atoms = deatomise(pattern)
    slots = [i for i, a in enumerate(atoms) if a.feature == EPSILON]
    option_sets = [_feature_options(atoms[i].name, atomic_signature) for i in slots]
    total = prod(len(o) for o in option_sets)
    if total > cap:
        raise GroundingCapError(
            f"pattern '{pattern}' has {total} instantiations, exceeding the cap of {cap}"
        )
    return tuple(
        assign_features(pattern, dict(zip(slots, combo)))
        for combo in itertools.product(*option_sets)
    )


def ground_rule(
    rule: BcslRule,
    structure_signature: Mapping[str, frozenset[str]],
    atomic_signature: Mapping[str, frozenset[str]],
    cap: int = DEFAULT_GROUNDING_CAP,
) -> tuple[tuple[Pattern, Pattern], ...]:
    """All reactions of a rule: the consistent ``(lhs, rhs)`` pairs of both
    sides' instantiations, lhs-major in enumeration order."""
    lhs = expand_pattern(rule.lhs, structure_signature)
    rhs = expand_pattern(rule.rhs, structure_signature)
    candidates = instantiation_count(lhs, atomic_signature) * instantiation_count(
        rhs, atomic_signature
    )
    if candidates > cap:
        raise GroundingCapError(
            f"rule {rule.label!r} has {candidates} candidate instantiation pairs, "
            f"exceeding the cap of {cap}"
        )
    # Consistency of every pair, with each deatomisation done once: a pair
    # is consistent when its results agree at the positions where the two
    # sources agree, so the right-hand instantiations are grouped by their
    # resolved atomics there, in enumeration order.
    s1, s2 = deatomise(lhs), deatomise(rhs)
    shared = [k for k in range(min(len(s1), len(s2))) if s1[k] == s2[k]]

    def at_shared(result: Pattern) -> tuple[Atomic, ...]:
        atoms = deatomise(result)
        return tuple(atoms[k] for k in shared)

    lhs_results = enumerate_instantiations(lhs, atomic_signature, cap)
    by_key: dict[tuple[Atomic, ...], list[Pattern]] = {}
    for right in enumerate_instantiations(rhs, atomic_signature, cap):
        by_key.setdefault(at_shared(right), []).append(right)
    return tuple(
        (left, right) for left in lhs_results for right in by_key.get(at_shared(left), ())
    )
