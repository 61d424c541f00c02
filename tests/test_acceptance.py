"""Acceptance suite: one test per shipping criterion, timed, printed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Times are wall-clock on the current machine and asserted
against the stated budgets.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

import bcsl
from bcsl import (
    Agent,
    Atomic,
    EPSILON,
    EPSILON_LABEL,
    Mrs,
    Multiset,
    Pattern,
    RuleMatcher,
    Structure,
    build_lts,
    build_mrs,
    canonicalize,
    check_equivalence,
    compile_regulation,
    direct_walk,
    enabled,
    enumerate_instantiations,
    explore,
    guarded,
    instantiation_count,
    make_guard,
    maximal_label_sequences,
    parse_model,
    parse_multiset,
    successors,
    unroll,
)
from bcsl.patterns import assign_features, deatomise
from conftest import (
    EXPECTED_REGULATED_SEQUENCES,
    EXPECTED_TREE_EDGES,
    REGULATION_CONFIGS,
    TWO_SITE_MODEL,
    UNREGULATED_SEQUENCES,
)
from corpus import random_model_text


def _report(number: int, name: str, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.3f}s (budget {budget_s}s)"
    print(f"criterion {number} ({name}): PASS [{elapsed * 1000:.1f} ms]")


# ---------------------------------------------------------------------------
# 1. Parsing and signature inference
# ---------------------------------------------------------------------------

def test_criterion_1_parsing_and_signatures():
    started = time.perf_counter()
    model = parse_model(TWO_SITE_MODEL)
    assert model.labels == ("r1_S", "r1_T", "r2")
    assert model.init == parse_multiset("1 P(S{i},T{i})::cell")
    assert model.atomic_signature == {"S": frozenset("ia"), "T": frozenset("ia")}
    assert model.structure_signature == {"P": frozenset({"S", "T"})}
    _report(1, "parsing + signature inference", started, 0.010)


# ---------------------------------------------------------------------------
# 2. Grounding
# ---------------------------------------------------------------------------

EXPECTED_ELEMENT_TEXTS = {
    f"P(S{{{s}}},T{{{t}}})::{c}"
    for s in "ia"
    for t in "ia"
    for c in ("cell", "out")
}

EXPECTED_RULE_TEXTS = {
    ("r1_S", "1 P(S{i},T{i})::cell", "1 P(S{a},T{i})::cell"),
    ("r1_S", "1 P(S{i},T{a})::cell", "1 P(S{a},T{a})::cell"),
    ("r1_T", "1 P(S{i},T{i})::cell", "1 P(S{i},T{a})::cell"),
    ("r1_T", "1 P(S{a},T{i})::cell", "1 P(S{a},T{a})::cell"),
    ("r2", "1 P(S{i},T{i})::cell", "1 P(S{i},T{i})::out"),
    ("r2", "1 P(S{a},T{i})::cell", "1 P(S{a},T{i})::out"),
    ("r2", "1 P(S{i},T{a})::cell", "1 P(S{i},T{a})::out"),
    ("r2", "1 P(S{a},T{a})::cell", "1 P(S{a},T{a})::out"),
}


def test_criterion_2_grounding():
    model = parse_model(TWO_SITE_MODEL)
    started = time.perf_counter()
    mrs = build_mrs(model)
    assert {str(a) for a in mrs.elements} == EXPECTED_ELEMENT_TEXTS
    assert {(r.label, str(r.pre), str(r.post)) for r in mrs.rules} == EXPECTED_RULE_TEXTS
    assert mrs.init == model.init
    _report(2, "grounding", started, 0.100)


# ---------------------------------------------------------------------------
# 3. Unregulated semantics
# ---------------------------------------------------------------------------

def test_criterion_3_unregulated_semantics():
    model = parse_model(TWO_SITE_MODEL)
    started = time.perf_counter()
    graph = build_lts(model)
    assert graph.n_states == 8
    assert graph.n_transitions == 8
    tree = unroll(model.init, RuleMatcher(model).successors, 4)
    assert tree.n_nodes == 10
    assert tree.n_edges == 9
    sequences = maximal_label_sequences(graph, 4)
    assert sequences.complete == frozenset(UNREGULATED_SEQUENCES)
    assert sequences.incomplete == frozenset()
    _report(3, "unregulated semantics", started, 0.100)


# ---------------------------------------------------------------------------
# 4. Direct/grounded equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_equivalence():
    started = time.perf_counter()
    bounds = {"max_states": 300, "max_depth": 25}

    model = parse_model(TWO_SITE_MODEL)
    assert check_equivalence(model).passed

    for seed in range(200):
        random_model = parse_model(random_model_text(seed))
        report = check_equivalence(random_model, **bounds)
        assert report.passed, (seed, report.counterexample)

    # negative controls: a dropped grounding and a spurious one must both fail
    mrs = build_mrs(model)
    dropped = Mrs(mrs.rules[:-1], mrs.init)
    report = check_equivalence(model, mrs=dropped)
    assert not report.passed and report.counterexample is not None

    from bcsl import MrsRule

    bogus = MrsRule(
        "r2",
        parse_multiset("1 P(S{i},T{i})::cell"),
        parse_multiset("2 P(S{i},T{i})::cell"),
    )
    spurious = Mrs(mrs.rules + (bogus,), mrs.init)
    report = check_equivalence(model, mrs=spurious, **bounds)
    assert not report.passed and report.counterexample is not None

    mutations = 0
    for seed in range(15):
        random_model = parse_model(random_model_text(seed))
        random_mrs = build_mrs(random_model)
        graph = explore(
            random_mrs.init, lambda m: successors(random_mrs, m), **bounds
        )
        for index, rule in enumerate(random_mrs.rules):
            covered = {
                (s, rule.label, s.difference(rule.pre).union(rule.post))
                for s in graph.states
                if rule.pre.issubset(s)
            }
            others = {
                (s, other.label, s.difference(other.pre).union(other.post))
                for other in random_mrs.rules
                if other != rule
                for s in graph.states
                if other.pre.issubset(s)
            }
            if covered - others:
                report = check_equivalence(
                    random_model, mrs=Mrs(
                        random_mrs.rules[:index] + random_mrs.rules[index + 1 :],
                        random_mrs.init,
                    ),
                    **bounds,
                )
                assert not report.passed, seed
                assert report.counterexample is not None
                mutations += 1
                break
    assert mutations >= 8
    _report(4, "direct/grounded equivalence", started, 60.0)


# ---------------------------------------------------------------------------
# 5. Regulations
# ---------------------------------------------------------------------------

def test_criterion_5_regulations():
    model = parse_model(TWO_SITE_MODEL)
    system = build_mrs(model)

    def grounded(state):
        return [(label, t) for label, t in successors(system, state) if label != EPSILON_LABEL]

    started = time.perf_counter()
    for name, config in REGULATION_CONFIGS.items():
        guard = make_guard(compile_regulation(config, model.labels), model)
        root, direct, _ = direct_walk(model, guard)
        grounded_root = (system.init, guard.initial_memory())
        grounded_product = guarded(grounded, guard)
        product = explore(root, direct)
        assert product == explore(grounded_root, grounded_product), name
        sequences = maximal_label_sequences(product, 6)
        assert sequences.complete == frozenset(EXPECTED_REGULATED_SEQUENCES[name]), name
        assert sequences.incomplete == frozenset(), name
        tree = unroll(root, direct, 4)
        assert tree == unroll(grounded_root, grounded_product, 4), name
        assert tree.n_edges == EXPECTED_TREE_EDGES[name], name
    _report(5, "regulations", started, 1.0)


# ---------------------------------------------------------------------------
# 6. Property suites
# ---------------------------------------------------------------------------

def _agent_pool():
    pool = [Agent((Atomic(n, f),), c) for n in "AB" for f in "xy" for c in "cd"]
    pool += [
        Agent((Structure("P", (Atomic("S", f1), Atomic("T", f2))),), "c")
        for f1 in "ia"
        for f2 in "ia"
    ]
    return pool


def _random_multiset(rng, pool):
    return Multiset(
        {agent: rng.randint(0, 3) for agent in rng.sample(pool, rng.randint(0, 4))}
    )


def _multiset_laws(trials: int) -> None:
    rng = random.Random(20_240)
    pool = _agent_pool()
    empty = Multiset()
    for _ in range(trials):
        a = _random_multiset(rng, pool)
        b = _random_multiset(rng, pool)
        c = _random_multiset(rng, pool)
        assert a.union(b) == b.union(a)
        assert a.union(b).union(c) == a.union(b.union(c))
        assert a.union(empty) == a
        diff = a.difference(b)
        assert all(n > 0 for _, n in diff.items())
        for agent in set(a.agents()) | set(b.agents()):
            assert diff.count(agent) == max(0, a.count(agent) - b.count(agent))
            assert a.intersection(b).count(agent) == min(a.count(agent), b.count(agent))
        if a.issubset(b) and b.issubset(a):
            assert a == b
        if a.issubset(b):
            assert b.difference(a).union(a) == b


def _canonicalization_invariance(trials: int) -> None:
    rng = random.Random(20_241)
    components = [
        Atomic("A", "x"),
        Atomic("B", "y"),
        Atomic("C", "x"),
        Structure("P", (Atomic("S", "i"), Atomic("T", "a"))),
        Structure("Q", (Atomic("U", "v"),)),
    ]
    for _ in range(trials):
        chain = rng.sample(components, rng.randint(1, len(components)))
        agent = Agent(tuple(chain), "c")
        reference = canonicalize(agent)
        assert canonicalize(reference) == reference
        shuffled_chain = chain[:]
        rng.shuffle(shuffled_chain)
        shuffled = tuple(
            Structure(
                comp.name,
                tuple(sorted(comp.composition, key=lambda a: rng.random())),
            )
            if isinstance(comp, Structure)
            else comp
            for comp in shuffled_chain
        )
        assert canonicalize(Agent(shuffled, "c")) == reference
        # multiset entry identity is insensitive to insertion order
        agents = [agent, Agent(shuffled, "c")]
        rng.shuffle(agents)
        assert Multiset.from_agents(agents).count(agent) == 2


INSTANTIATION_SIGNATURE = {
    "A": frozenset({"u"}),
    "B": frozenset({"u", "v"}),
    "C": frozenset({"u", "v", "w"}),
    "D": frozenset({"v", "w"}),
}
FEATURE_UNIVERSE = ("u", "v", "w")


def _brute_force_instantiations(pattern):
    atoms = deatomise(pattern)
    results = set()
    for combo in itertools.product(FEATURE_UNIVERSE, repeat=len(atoms)):
        ok = True
        for atom, feature in zip(atoms, combo):
            if atom.feature == EPSILON:
                if feature not in INSTANTIATION_SIGNATURE.get(atom.name, frozenset()):
                    ok = False
                    break
            elif feature != atom.feature:
                ok = False
                break
        if ok:
            results.add(assign_features(pattern, dict(enumerate(combo))))
    return results


def _instantiation_patterns():
    names = ("A", "B", "C", "D")
    out = []
    for r in range(5):  # up to 4 ε atomics
        for subset in itertools.combinations(names, r):
            for eps_mask in itertools.product((True, False), repeat=r):
                comp = tuple(
                    Atomic(n, EPSILON if is_eps else sorted(INSTANTIATION_SIGNATURE[n])[0])
                    for n, is_eps in zip(subset, eps_mask)
                )
                out.append(Pattern((Agent((Structure("X", comp),), "c"),)))
    for n1, n2 in itertools.combinations(names, 2):
        out.append(
            Pattern(
                (
                    Agent((Atomic(n1, EPSILON),), "c"),
                    Agent((Atomic(n2, EPSILON), Atomic(n1, EPSILON)), "d"),
                )
            )
        )
    return out


def _instantiation_formula() -> None:
    for pattern in _instantiation_patterns():
        expected = _brute_force_instantiations(pattern)
        instantiations = enumerate_instantiations(pattern, INSTANTIATION_SIGNATURE)
        assert set(instantiations) == expected
        assert instantiation_count(pattern, INSTANTIATION_SIGNATURE) == len(expected)


def _epsilon_exclusivity() -> None:
    for seed in range(30):
        model = parse_model(random_model_text(seed))
        mrs = build_mrs(model)
        graph = explore(mrs.init, lambda m: successors(mrs, m), 200, 15)
        for state in graph.states:
            labels = {label for label, _ in successors(mrs, state)}
            brute_enabled = any(enabled(rule, state) for rule in mrs.rules)
            assert (EPSILON_LABEL in labels) == (not brute_enabled)
            if EPSILON_LABEL in labels:
                assert labels == {EPSILON_LABEL}


def test_criterion_6_property_suites():
    started = time.perf_counter()
    _multiset_laws(10_000)
    _canonicalization_invariance(10_000)
    _instantiation_formula()
    _epsilon_exclusivity()
    _report(6, "property suites", started, 60.0)


# ---------------------------------------------------------------------------
# 7. Determinism of the CLI
# ---------------------------------------------------------------------------

# The directory that holds the ``bcsl`` package this process imported.  The
# child processes run in a scratch directory, where a relative PYTHONPATH entry
# (such as ``src``) resolves to nothing; putting this absolute directory first
# makes them run the same code as the in-process tests, whether the package came
# from a relative PYTHONPATH, an absolute one or an editable install.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(bcsl.__file__)))


def _run_cli(args, hash_seed: str, cwd: str) -> tuple:
    """Run ``python -m bcsl`` and return its (exit code, stdout bytes)."""
    inherited = os.environ.get("PYTHONPATH")
    path = _PACKAGE_ROOT + os.pathsep + inherited if inherited else _PACKAGE_ROOT
    proc = subprocess.run(
        [sys.executable, "-m", "bcsl", *args],
        capture_output=True,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
        cwd=cwd,
        check=False,
    )
    assert proc.returncode in (0, 2), (args, proc.returncode, proc.stderr)
    return proc.returncode, proc.stdout


def test_criterion_7_cli_determinism(tmp_path):
    started = time.perf_counter()
    model_path = tmp_path / "model.bcsl"
    model_path.write_text(TWO_SITE_MODEL, encoding="utf-8")
    reg_path = tmp_path / "reg.json"
    reg_path.write_text(json.dumps(REGULATION_CONFIGS["regular"]), encoding="utf-8")

    commands = [
        ["parse", "model.bcsl"],
        ["parse", "model.bcsl", "--format", "text"],
        ["ground", "model.bcsl"],
        ["lts", "model.bcsl"],
        ["lts", "model.bcsl", "--format", "dot"],
        ["lts", "model.bcsl", "--unroll", "--max-depth", "4", "--format", "dot"],
        ["lts", "model.bcsl", "--regulation", "reg.json", "--format", "dot"],
        ["lts", "model.bcsl", "--regulation", "reg.json", "--unroll", "--max-depth", "4"],
        ["simulate", "model.bcsl", "--steps", "5", "--seed", "11"],
        ["check", "model.bcsl", "--json"],
    ]
    # different hash seeds stand in for scheduling variation: every container
    # of the engine is explicitly ordered, so neither the output bytes nor the
    # exit code may move
    for args in commands:
        first = _run_cli(args, "1", str(tmp_path))
        second = _run_cli(args, "2", str(tmp_path))
        third = _run_cli(args, "1", str(tmp_path))
        assert first == second == third, args
        assert first[1]  # something was printed
    _report(7, "CLI determinism", started, 120.0)


# (args, exit code, SHA-256 of stdout) of runs whose state cap falls inside
# one state's successor list: the initial state has three successors, so a
# cap of 3 keeps two of them, and a cap of 5 cuts the first list of the
# next depth.  Recorded from an ``explore`` that sorted every successor.
# The ``--unroll`` rows cap tree nodes the same way: 3 cuts inside the
# root's three sorted children.  Recorded from an ``unroll`` that keyed
# every child afresh.
_UNROLL_CUT = ["lts", "model.bcsl", "--unroll", "--max-depth", "4", "--format", "text"]
TRUNCATED_RUNS = [
    (
        ["lts", "model.bcsl", "--max-states", "3", "--format", "dot"],
        0,
        "bcb938cf73ccb907aab9b0ec0cbf778068d8d34d7c36f6aabbff6b944ebed818",
    ),
    (
        ["check", "model.bcsl", "--max-states", "3", "--json"],
        2,
        "dfb949a1f4629ff0837ff84c96ddc3400b1f08b442ea98039eb0ac63abd47993",
    ),
    (
        ["lts", "model.bcsl", "--max-states", "5", "--format", "dot"],
        0,
        "4f86a915b597d9757cf40bd0df64ede2cf53e09dfd67066b2a04c96e95127da7",
    ),
    (
        ["check", "model.bcsl", "--max-states", "5", "--json"],
        2,
        "d147572be5dc17aaa14c32f5f12a3aab419ef909574df037731d1e48984eea83",
    ),
    (
        [*_UNROLL_CUT, "--max-states", "3"],
        0,
        "317a3eb54a2e9ac00260300e76f0f2c27ec2ae90be151e52f976321609fa6baf",
    ),
    (
        [*_UNROLL_CUT, "--max-states", "3", "--regulation", "reg.json"],
        0,
        "6dcceecb38e5ed196362de068ab1a22a240a3aad85e3e10ef140950a6dcc8bb6",
    ),
    (
        [*_UNROLL_CUT, "--max-states", "5"],
        0,
        "22b604a2c4a784bfdc26f24689b1c79957903ff7c21971c9e823ad9e0cbe7a7b",
    ),
    (
        [*_UNROLL_CUT, "--max-states", "5", "--regulation", "reg.json"],
        0,
        "bacef399a6fae0fb04d5a5bfd1e3bee2eb950deaa95dd2ded2eccf9e6109940c",
    ),
]


@pytest.mark.parametrize(
    "args, code, digest",
    TRUNCATED_RUNS,
    ids=[
        "lts-3",
        "check-3",
        "lts-5",
        "check-5",
        "unroll-3",
        "unroll-regulated-3",
        "unroll-5",
        "unroll-regulated-5",
    ],
)
def test_truncated_runs_keep_their_bytes(tmp_path, args, code, digest):
    (tmp_path / "model.bcsl").write_text(TWO_SITE_MODEL, encoding="utf-8")
    reg = json.dumps(REGULATION_CONFIGS["regular"])
    (tmp_path / "reg.json").write_text(reg, encoding="utf-8")
    for hash_seed in ("1", "2"):
        got_code, out = _run_cli(args, hash_seed, str(tmp_path))
        assert (got_code, hashlib.sha256(out).hexdigest()) == (code, digest), (args, hash_seed)
