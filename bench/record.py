"""Record the reference outputs that ``run.py`` checks against.

Run from the repository root on a commit whose outputs are trusted::

    python3 bench/record.py

For every profile and workload it runs each operation once in fresh
processes under two ``PYTHONHASHSEED`` values and three run seeds, and
requires identical exit codes and output digests from all six.  It then
cross-checks the outputs against the independent grounded semantics:
every ``lts`` count must equal a breadth-first exploration (or unrolling)
driven by the grounded rewriting system, and every ``check`` must pass,
exiting 2 exactly when a bound truncated it.  It also confirms that the
4 x 2 x 3 site model has 5,984 states and 42,240 transitions.  Only then
is ``reference.json`` written.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import models
import run

HASH_SEEDS = ("1", "2")
RUN_SEEDS = (0, 1, 2)


def digests(profile: str, workload: str, seed: int) -> dict[str, list]:
    """Exit code and SHA-256 of each operation, run once in this process."""
    cli = run.load_program()
    scratch = run.ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        ops, _ = run.build_workload(workload, profile, seed, Path(tmp))
        out = {}
        for op in ops:
            _, code, data = run.run_op(cli, op)
            if data is None:
                sys.exit(f"error: {op.name} wrote no output (exit {code})")
            out[op.name] = [code, hashlib.sha256(data).hexdigest()]
    return out


def digests_in_fresh_process(profile: str, workload: str, seed: int, hash_seed: str) -> dict:
    cmd = [sys.executable, __file__, "--emit", profile, workload, str(seed)]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def grounded_counts(op: run.Op) -> tuple[int, int]:
    """States and transitions of ``op`` computed from the grounded system."""
    from bcsl import (
        EPSILON_LABEL,
        build_mrs,
        compile_regulation,
        explore,
        make_guard,
        parse_model,
        successors,
        unroll,
    )

    model = parse_model(Path(op.argv[1]).read_text(encoding="utf-8"))
    system = build_mrs(model)

    def grounded(state):
        return [(label, t) for label, t in successors(system, state) if label != EPSILON_LABEL]

    if "--regulation" not in op.argv:
        graph = explore(system.init, grounded)
        return graph.n_states, graph.n_transitions

    config = json.loads(Path(op.argv[op.argv.index("--regulation") + 1]).read_text())
    guard = make_guard(compile_regulation(config, model.labels), model)
    stutter = "--unroll" not in op.argv

    def product(node):
        state, memory = node
        base = grounded(state)
        enabled = frozenset(label for label, _ in base)
        out = [
            (label, (target, guard.advance(memory, label)))
            for label, target in base
            if guard.permits(memory, state, label, enabled)
        ]
        return [(EPSILON_LABEL, node)] if not out and stutter else out

    root = (system.init, guard.initial_memory())
    if stutter:
        graph = explore(root, product)
        return graph.n_states, graph.n_transitions
    tree = unroll(root, product, int(op.argv[op.argv.index("--max-depth") + 1]))
    return tree.n_nodes, tree.n_edges


def cross_check(profile: str, workload: str) -> None:
    cli = run.load_program()
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_run") as tmp:
        ops, _ = run.build_workload(workload, profile, 0, Path(tmp))
        for op in ops:
            _, code, data = run.run_op(cli, op)
            if op.argv[0] == "check":
                report = json.loads(data)
                expected_code = 2 if report["truncated"] else 0
                if report["verdict"] != "pass" or code != expected_code:
                    sys.exit(f"error: {op.name}: verdict {report['verdict']}, exit {code}")
                continue
            reported = run.output_counts(op, data)
            expected = grounded_counts(op)
            if code != 0 or reported != expected:
                sys.exit(f"error: {op.name}: reports {reported}, grounded gives {expected}")


def check_roadmap_family() -> None:
    from bcsl import build_lts, parse_model

    graph = build_lts(parse_model(models.site_model(4, 2, 3)))
    if (graph.n_states, graph.n_transitions) != (5984, 42240):
        sys.exit(f"error: 4 x 2 x 3 gives {graph.n_states} / {graph.n_transitions}")


def main() -> int:
    if sys.argv[1:2] == ["--emit"]:
        profile, workload, seed = sys.argv[2:5]
        print(json.dumps(digests(profile, workload, int(seed))))
        return 0
    reference: dict = {}
    for profile in run.PROFILES:
        for workload in run.WORKLOADS:
            runs = [
                digests_in_fresh_process(profile, workload, seed, hash_seed)
                for hash_seed in HASH_SEEDS
                for seed in RUN_SEEDS
            ]
            if any(r != runs[0] for r in runs):
                sys.exit(f"error: {profile}/{workload} outputs depend on a seed")
            cross_check(profile, workload)
            reference.setdefault(profile, {})[workload] = runs[0]
            print(f"{profile}/{workload}: {len(runs[0])} operations agree", file=sys.stderr)
    check_roadmap_family()
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
