import itertools
import math
import operator
import os
import pickle
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import bcsl
from bcsl import EPSILON, Agent, Atomic, Multiset, Structure, canonicalize
from bcsl.terms import agent_id, agent_of

# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

A = Atomic("A", "y")
B = Atomic("B", "x")


def test_chain_sorted_by_text():
    agent = Agent((B, A), "c")
    assert str(canonicalize(agent)) == "A{y}.B{x}::c"


def test_single_component_already_canonical():
    agent = Agent((Structure("P", (Atomic("S", "i"), Atomic("T", "i"))),), "cell")
    assert canonicalize(agent) == agent


def test_compartment_is_part_of_identity():
    left = Agent((Structure("P", (Atomic("S", "a"),)),), "c")
    right = Agent((Structure("P", (Atomic("S", "a"),)),), "d")
    assert canonicalize(left) != canonicalize(right)


def test_canonicalize_idempotent():
    agent = Agent((B, A, Structure("P", (Atomic("T", "i"), Atomic("S", "i")))), "c")
    once = canonicalize(agent)
    assert canonicalize(once) == once


def _chain_rotations(chain: tuple) -> set[tuple]:
    """Closure of a chain under the rewrites its equality axiom generates.

    The axiom swaps a chain with its trailing component; applied to every
    prefix of the written sequence it moves the prefix's last element to
    the front.  The closure of those moves is the full congruence class.
    """
    seen = {chain}
    stack = [chain]
    while stack:
        current = stack.pop()
        for k in range(2, len(current) + 1):
            moved = (current[k - 1],) + current[: k - 1] + current[k:]
            if moved not in seen:
                seen.add(moved)
                stack.append(moved)
    return seen


@pytest.mark.parametrize(
    "components",
    [
        (Atomic("A", "x"), Atomic("B", "y")),
        (Atomic("A", "x"), Atomic("B", "y"), Atomic("C", "z")),
        (Atomic("A", "x"), Structure("P", (Atomic("S", "i"),)), Atomic("C", "z")),
    ],
)
def test_canonical_form_constant_on_congruence_class(components):
    closure = _chain_rotations(components)
    # distinct components: the closure is the whole symmetric group
    assert len(closure) == math.factorial(len(components))
    forms = {canonicalize(Agent(chain, "c")) for chain in closure}
    assert len(forms) == 1


def test_non_congruent_chains_get_distinct_forms():
    one = Agent((Atomic("A", "x"), Atomic("B", "y")), "c")
    other = Agent((Atomic("A", "x"), Atomic("B", "x")), "c")
    assert canonicalize(one) != canonicalize(other)


def test_congruence_invariance_random_permutations():
    rng = random.Random(7)
    base = [
        Atomic("A", "x"),
        Atomic("B", "y"),
        Structure("P", (Atomic("S", "i"), Atomic("T", "a"))),
        Atomic("C", "z"),
    ]
    reference = canonicalize(Agent(tuple(base), "c"))
    for _ in range(200):
        chain = base[:]
        rng.shuffle(chain)
        shuffled = [
            Structure(c.name, tuple(sorted(c.composition, key=lambda a: rng.random())))
            if isinstance(c, Structure)
            else c
            for c in chain
        ]
        assert canonicalize(Agent(tuple(shuffled), "c")) == reference


# ---------------------------------------------------------------------------
# Term construction invariants
# ---------------------------------------------------------------------------

def test_duplicate_atomic_in_composition_rejected():
    with pytest.raises(ValueError, match="duplicate atomic"):
        Structure("P", (Atomic("S", "i"), Atomic("S", "a")))


def test_empty_chain_rejected():
    with pytest.raises(ValueError, match="chain"):
        Agent((), "c")


def test_bad_names_rejected():
    with pytest.raises(ValueError):
        Atomic("1bad", "x")
    with pytest.raises(ValueError):
        Atomic("A", "feat-ure")
    with pytest.raises(ValueError):
        Agent((Atomic("A", "x"),), "")


# ---------------------------------------------------------------------------
# Multiset algebra
# ---------------------------------------------------------------------------

def _agent(name: str, feature: str, compartment: str = "c") -> Agent:
    return Agent((Atomic(name, feature),), compartment)


AGENT_POOL = [
    _agent("A", "x"),
    _agent("A", "y"),
    _agent("B", "x"),
    _agent("B", "y", "d"),
    Agent((Structure("P", (Atomic("S", "i"),)),), "c"),
    Agent((Structure("P", (Atomic("S", "a"),)),), "c"),
]

multisets = st.builds(
    Multiset,
    st.dictionaries(st.sampled_from(AGENT_POOL), st.integers(min_value=0, max_value=4)),
)


def test_self_difference_is_empty():
    m = Multiset({AGENT_POOL[0]: 1})
    assert m.difference(m) == Multiset()


def test_difference_clamps_at_zero():
    small = Multiset({AGENT_POOL[0]: 1})
    big = Multiset({AGENT_POOL[0]: 3})
    assert small.difference(big) == Multiset()


def test_intersection_is_pointwise_min():
    a, b, c = AGENT_POOL[:3]
    left = Multiset({a: 2, b: 1})
    right = Multiset({a: 1, c: 5})
    assert left.intersection(right) == Multiset({a: 1})


def test_non_grounded_agent_rejected():
    ghost = Agent((Atomic("A", EPSILON),), "c")
    with pytest.raises(ValueError, match="not grounded"):
        Multiset({ghost: 1})
    with pytest.raises(ValueError, match="not grounded"):
        Multiset.from_agents([ghost])


@pytest.mark.parametrize("value", [5, "A{x}::c", None, Atomic("A", "x")], ids=repr)
def test_a_multiset_counts_only_agents(value):
    m = Multiset({AGENT_POOL[0]: 1})
    message = "a Multiset counts Agents; bcsl.parse_agent reads one from its text"
    with pytest.raises(TypeError) as raised:
        value in m
    assert str(raised.value) == message
    with pytest.raises(TypeError) as raised:
        m.count(value)
    assert str(raised.value) == message
    # An agent counts 0 when it is absent or not grounded.
    ghost = Agent((Atomic("A", EPSILON),), "c")
    for agent in (AGENT_POOL[1], ghost):
        assert m.count(agent) == 0 and agent not in m


def test_zero_multiplicities_are_dropped():
    m = Multiset({AGENT_POOL[0]: 0, AGENT_POOL[1]: 2})
    assert m.count(AGENT_POOL[0]) == 0
    assert AGENT_POOL[0] not in m
    assert m.items() == ((canonicalize(AGENT_POOL[1]), 2),)


def test_congruent_agents_share_an_entry():
    spun = Agent((Atomic("B", "x"), Atomic("A", "x")), "c")
    straight = Agent((Atomic("A", "x"), Atomic("B", "x")), "c")
    m = Multiset.from_agents([spun, straight])
    assert m.count(straight) == 2
    assert sum(n for _, n in m.items()) == 2


@given(a=multisets, b=multisets)
def test_union_commutative(a, b):
    assert a.union(b) == b.union(a)


@given(a=multisets, b=multisets, c=multisets)
def test_union_associative(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))


@given(a=multisets)
def test_empty_is_union_identity(a):
    assert a.union(Multiset()) == a


@given(a=multisets, b=multisets)
def test_difference_never_negative(a, b):
    diff = a.difference(b)
    assert all(n > 0 for _, n in diff.items())
    for agent, n in a.items():
        assert diff.count(agent) == max(0, n - b.count(agent))


@given(a=multisets, b=multisets)
def test_intersection_matches_min(a, b):
    inter = a.intersection(b)
    for agent in set(a.agents()) | set(b.agents()):
        assert inter.count(agent) == min(a.count(agent), b.count(agent))


@given(a=multisets, b=multisets)
def test_subset_antisymmetry(a, b):
    if a.issubset(b) and b.issubset(a):
        assert a == b


@given(a=multisets, b=multisets)
def test_subset_difference_union_roundtrip(a, b):
    # (b ∖ a) ∪ a computes the pointwise max, so equality with b is a ⊆ b
    assert (b.difference(a).union(a) == b) == a.issubset(b)


@given(a=multisets, b=multisets)
def test_subset_agrees_with_pointwise_definition(a, b):
    expected = all(a.count(agent) <= b.count(agent) for agent in a.agents())
    assert a.issubset(b) == expected


@given(a=multisets)
def test_hash_consistent_with_equality(a):
    rebuilt = Multiset(dict(a.items()))
    assert rebuilt == a
    assert hash(rebuilt) == hash(a)


def test_text_forms():
    assert str(Multiset()) == "∅"
    m = Multiset({AGENT_POOL[0]: 2})
    assert str(m) == "2 A{x}::c"


# One fresh compartment per example, so that its agents are new to the
# intern table.
_FRESH_COMPARTMENTS = itertools.count()


@given(
    st.lists(
        st.tuples(st.integers(0, 11), st.booleans(), st.integers(0, 12)),
        max_size=12,
        unique_by=lambda entry: entry[:2],
    )
)
def test_text_follows_canonical_text_not_id(entries):
    # Agent k is ``A{vk}.B{y}``, written in either chain order; its
    # canonical text orders v10 and v11 before v2.
    compartment = f"fresh{next(_FRESH_COMPARTMENTS)}"

    def spelling(k, flipped):
        chain = (Atomic("A", f"v{k}"), Atomic("B", "y"))
        return Agent(chain[::-1] if flipped else chain, compartment)

    canonical = sorted((spelling(k, False) for k in range(12)), key=str, reverse=True)
    ids = [agent_id(agent) for agent in canonical]
    assert ids == sorted(ids)  # ids rise as text falls
    merged: dict[str, int] = {}
    for k, flipped, n in entries:
        text = str(spelling(k, False))
        merged[text] = merged.get(text, 0) + n
    expected = sorted((text, n) for text, n in merged.items() if n)
    m = Multiset({spelling(k, flipped): n for k, flipped, n in entries})
    assert str(m) == (" + ".join(f"{n} {text}" for text, n in expected) or "∅")
    assert [(agent.text, n) for agent, n in m.items()] == expected
    assert all(canonicalize(agent) is agent for agent, _ in m.items())


# ---------------------------------------------------------------------------
# Cached agent identity
# ---------------------------------------------------------------------------

atomics = st.builds(Atomic, st.sampled_from("ABC"), st.sampled_from("xy"))
structures = st.builds(
    Structure,
    st.sampled_from("PQ"),
    st.lists(atomics, max_size=3, unique_by=lambda a: a.name).map(tuple),
)
agents = st.builds(
    Agent,
    st.lists(st.one_of(atomics, structures), min_size=1, max_size=3).map(tuple),
    st.sampled_from(["c", "d"]),
)


def _rebuilt(agent: Agent) -> Agent:
    """An agent equal to ``agent`` that shares none of its term objects."""
    chain = tuple(
        Structure(c.name, tuple(Atomic(a.name, a.feature) for a in c.composition))
        if isinstance(c, Structure)
        else Atomic(c.name, c.feature)
        for c in agent.chain
    )
    return Agent(chain, agent.compartment)


@given(agent=agents)
def test_independent_agents_share_identity(agent):
    twin = _rebuilt(agent)
    assert twin is not agent
    assert twin == agent and agent == twin
    assert hash(twin) == hash(agent)
    assert str(twin) == str(agent)
    copy = pickle.loads(pickle.dumps(agent))
    assert copy == agent and hash(copy) == hash(agent) and str(copy) == str(agent)


@given(one=agents, other=agents)
def test_agent_equality_matches_fields(one, other):
    same_fields = (one.chain, one.compartment) == (other.chain, other.compartment)
    assert (one == other) == same_fields
    if same_fields:
        assert hash(one) == hash(other)


def _shuffled(agent: Agent, seed: int) -> Agent:
    """A congruent spelling of ``agent``: chain and compositions shuffled."""
    rng = random.Random(seed)
    chain = list(_rebuilt(agent).chain)
    rng.shuffle(chain)
    return Agent(
        tuple(
            Structure(c.name, tuple(rng.sample(c.composition, len(c.composition))))
            if isinstance(c, Structure)
            else c
            for c in chain
        ),
        agent.compartment,
    )


@given(agent=agents, seed=st.integers(min_value=0, max_value=2**16))
def test_canonical_forms_of_congruent_agents_share_identity(agent, seed):
    left, right = canonicalize(agent), canonicalize(_shuffled(agent, seed))
    assert left == right
    assert hash(left) == hash(right)
    assert str(left) == str(right)
    assert canonicalize(left) is left


@given(agent=agents, seed=st.integers(min_value=0, max_value=2**16))
def test_agent_id_files_every_spelling_under_its_canonical_form(agent, seed):
    spelling = _shuffled(agent, seed)
    ident = agent_id(spelling)
    assert ident == agent_id(canonicalize(agent)) == agent_id(agent)
    held = agent_of(ident)
    assert held == canonicalize(spelling)
    assert canonicalize(held) is held


def test_agent_id_rejects_a_non_grounded_agent():
    ghost = Agent((Structure("P", (Atomic("S", EPSILON), Atomic("R", "i"))),), "c")
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape("agent is not grounded: P(S{ε},R{i})::c")):
            agent_id(ghost)


# Parses the agents given as arguments, hashes each (which fills what it
# caches), and writes the pickled list to stdout.
_PICKLE_AGENTS = """
import pickle, sys
from bcsl.syntax import parse_agent
agents = [parse_agent(text) for text in sys.argv[1:]]
for agent in agents:
    hash(agent)
sys.stdout.buffer.write(pickle.dumps(agents))
"""


def test_agent_pickled_under_another_hash_seed_keeps_its_identity():
    texts = ["A{x}.P(S{i},T{a})::cell", "B{y}::c", "P(S{a})::out"]
    root = os.path.dirname(os.path.dirname(os.path.abspath(bcsl.__file__)))
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    child = subprocess.run(
        [sys.executable, "-c", _PICKLE_AGENTS, *texts],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=root, PYTHONHASHSEED=seed),
        check=True,
    )
    loaded = pickle.loads(child.stdout)
    fresh = [bcsl.parse_agent(text) for text in texts]
    assert loaded == fresh
    assert [hash(agent) for agent in loaded] == [hash(agent) for agent in fresh]
    assert all(agent in set(fresh) for agent in loaded)
    assert set(loaded) == set(fresh)


@given(m=multisets)
def test_multiset_of_fresh_agents_matches_interned(m):
    fresh = Multiset({_rebuilt(agent): n for agent, n in reversed(m.items())})
    assert fresh == m
    assert hash(fresh) == hash(m)
    assert str(fresh) == str(m)


@given(state=multisets, consumed=multisets, produced=multisets)
def test_rewrite_is_difference_then_union(state, consumed, produced):
    consumed = consumed.intersection(state)
    rewritten = state.rewrite(dict(consumed.pairs()), dict(produced.pairs()))
    expected = state.difference(consumed).union(produced)
    assert rewritten == expected
    assert str(rewritten) == str(expected)


def test_rewrite_rejects_uncontained_consumption():
    state = Multiset({AGENT_POOL[0]: 1})
    with pytest.raises(ValueError, match="cannot consume"):
        state.rewrite({agent_id(AGENT_POOL[0]): 2}, {})
    with pytest.raises(ValueError, match="cannot consume"):
        state.rewrite({agent_id(AGENT_POOL[1]): 1}, {})


# ---------------------------------------------------------------------------
# Lazy multiset identity
# ---------------------------------------------------------------------------

@given(m=multisets, other=multisets)
def test_equal_counts_built_five_ways_share_identity(m, other):
    counts = m.to_dict()
    built = [
        Multiset(counts),
        Multiset(dict(reversed(list(counts.items())))),
        Multiset.from_agents(agent for agent, n in reversed(m.items()) for _ in range(n)),
        other.intersection(m).union(m.difference(other)),
        m.union(other).difference(other),
        other.rewrite(dict(other.pairs()), dict(m.pairs())),
    ]
    # Ask for the cached parts in a different order on each.
    for k, multiset in enumerate(built):
        if k % 2:
            hash(multiset)
        else:
            str(multiset)
    for multiset in built:
        assert multiset == m
        assert hash(multiset) == hash(m)
        assert str(multiset) == str(m)
        assert multiset.items() == m.items()
        assert repr(multiset) == repr(m) == f"Multiset({str(m)!r})"


def test_to_dict_is_a_copy():
    m = Multiset({AGENT_POOL[0]: 2})
    counts = m.to_dict()
    counts[AGENT_POOL[0]] = 5
    assert m.count(AGENT_POOL[0]) == 2


@given(m=multisets)
def test_multiset_pickles_by_its_agents(m):
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m and hash(copy) == hash(m) and str(copy) == str(m)


# Interns as many decoy agents as its first argument says, so that every
# id it gives out is above the parent's.  Then it unpickles the multiset
# on stdin and writes back its text, whether it equals the multiset parsed
# afresh from the second argument, the ids of its agents, and the
# multiset pickled again.
_UNPICKLE_MULTISET = """
import pickle, sys
from bcsl.syntax import parse_agent, parse_multiset
from bcsl.terms import agent_id
for k in range(int(sys.argv[1])):
    agent_id(parse_agent(f"Decoy{{z{k}}}::c"))
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = parse_multiset(sys.argv[2])
ids = [agent_id(agent) for agent in loaded.agents()]
sys.stdout.buffer.write(pickle.dumps((str(loaded), loaded == fresh, ids, loaded)))
"""


def test_multiset_unpickled_where_ids_differ_keeps_its_agents():
    m = bcsl.parse_multiset("2 A{x}.P(S{i},T{a})::cell + B{y}::c + 3 P(S{a})::out")
    ids = [agent_id(agent) for agent in m.agents()]
    root = os.path.dirname(os.path.dirname(os.path.abspath(bcsl.__file__)))
    child = subprocess.run(
        [sys.executable, "-c", _UNPICKLE_MULTISET, str(max(ids) + 1), str(m)],
        input=pickle.dumps(m),
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=root),
        check=True,
    )
    text, equal_in_child, child_ids, back = pickle.loads(child.stdout)
    assert min(child_ids) > max(ids)
    assert equal_in_child and text == str(m)
    assert back == m and str(back) == str(m)


@given(m=multisets)
def test_iteration_and_in_read_the_agents(m):
    assert list(m) == sorted((agent_of(a) for a, _ in m.pairs()), key=str)
    held = {agent_of(a) for a, _ in m.pairs()}
    for agent in AGENT_POOL:
        assert (agent in m) == (canonicalize(agent) in held)


def test_set_algebra_of_pairs_is_not_offered():
    small, big = Multiset({AGENT_POOL[0]: 1}), Multiset({AGENT_POOL[0]: 3})
    assert small.issubset(big) and not big.issubset(small)
    for operation in ("or_", "and_", "sub", "xor"):
        with pytest.raises(TypeError):
            getattr(operator, operation)(small, big)
    for method in ("copy", "issuperset", "isdisjoint", "symmetric_difference"):
        with pytest.raises(TypeError):
            getattr(small, method)(big)
