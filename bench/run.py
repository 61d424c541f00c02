"""Benchmark of the bcsl command line on generated models.

Run from the repository root::

    python3 bench/run.py --workload lts_sites --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --smoke      # every workload, tiny sizes

Each operation is one ``bcsl.cli.main(argv)`` call writing its output with
``-o`` into a temporary directory under ``.bench_run/``.  Load is a closed
loop: one client, one operation at a time, in this single process.  The
workload's operations run as repeated passes until ``--seconds`` is spent
(at least ``MIN_PASSES``); every output is checked against the exit code
and SHA-256 recorded in ``reference.json``.  The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end times are scaled to a reference host speed: each pass also
times rounds of fixed work (``hostspeed.py``) and its op times are divided
by the slowdown those rounds show.  The unscaled pass time goes to stderr.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under the span recorder (``tracer.py``) and
reports the per-layer metrics of the traced passes, including the tracing
overhead.  Spans are written to
``.bench_run/trace-<workload>-seed<seed>.json`` when the run ends.  Metric
names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import hostspeed
import models
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("lts_sites", "regulated", "corpus_check")
MIN_PASSES = 3
SETUP_ROUNDS = 5
HOST_EVERY_S = 0.15

# Models per profile: (sites, features, copies) of each site model, or a
# corpus size.  Passes stay near a second (the corpus near two), so that a
# run holds many passes and its medians ride out the host's speed swings.
PROFILES = {
    "full": {
        "lts_sites": [(4, 2, 2), (3, 2, 3)],
        "regulated": [(3, 2, 2)],
        "corpus_check": 200,
    },
    "smoke": {
        "lts_sites": [(2, 2, 1), (1, 2, 2)],
        "regulated": [(2, 2, 1)],
        "corpus_check": 4,
    },
}
UNROLL = ["--unroll", "--max-depth", "4"]
CORPUS_BOUNDS = ["--max-states", "50", "--max-depth", "25"]


@dataclass(frozen=True)
class Op:
    """One CLI call; ``argv`` ends with ``-o output``."""

    name: str
    argv: list[str]
    output: Path


def build_workload(workload: str, profile: str, seed: int, work: Path):
    """Write the workload's inputs under ``work``.

    Returns the operations and the set-up manifest: one line per model,
    the model path followed by its regulation config paths, tab-separated.
    """
    rng = random.Random(f"{workload}:{seed}")
    size = PROFILES[profile][workload]
    ops: list[Op] = []
    manifest: list[list[Path]] = []

    def write(name: str, text: str) -> Path:
        path = work / name
        path.write_text(text, encoding="utf-8")
        return path

    def op(name: str, *argv: str) -> None:
        output = work / f"{name}.out"
        ops.append(Op(name, [*argv, "-o", str(output)], output))

    if workload == "corpus_check":
        for i, text in enumerate(models.corpus_models(size)):
            model = write(f"m{i:03d}.bcsl", models.scramble_model(text, rng))
            manifest.append([model])
            op(f"m{i:03d}.check", "check", str(model), *CORPUS_BOUNDS, "--json")
        return ops, manifest

    for n, k, c in size:
        name = f"{n}x{k}x{c}"
        model = write(f"{name}.bcsl", models.scramble_model(models.site_model(n, k, c), rng))
        if workload == "lts_sites":
            op(f"{name}.lts", "lts", str(model), "--format", "dot")
            manifest.append([model])
        else:
            configs = []
            for kind, config in models.regulation_configs(n, k).items():
                path = write(f"{kind}.json", models.scramble_config(config, rng))
                configs.append(path)
                op(f"{kind}.lts", "lts", str(model), "--regulation", str(path))
                op(f"{kind}.unroll", "lts", str(model), "--regulation", str(path), *UNROLL)
            manifest.append([model, *configs])
    return ops, manifest


def output_counts(op: Op, data: bytes) -> tuple[int, int]:
    """States (or tree nodes) and transitions (or tree edges) an output reports."""
    if "--format" in op.argv:  # DOT
        lines = data.decode("utf-8").splitlines()
        edges = sum(1 for line in lines if " -> " in line)
        return sum(1 for line in lines if "[label=" in line) - edges, edges
    obj = json.loads(data)
    if op.argv[0] == "check":
        return (
            obj["direct"]["states"] + obj["grounded"]["states"],
            obj["direct"]["transitions"] + obj["grounded"]["transitions"],
        )
    if "nodes" in obj:
        return len(obj["nodes"]), len(obj["edges"])
    return len(obj["states"]), len(obj["transitions"])


def load_program():
    """Import ``bcsl.cli`` from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "bcsl" / "__init__.py").is_file():
        sys.exit(f"error: bcsl sources not found under {src}")
    sys.path.insert(0, str(src))
    import bcsl.cli

    if Path(bcsl.cli.__file__).resolve().parents[1] != src.resolve():
        sys.exit(f"error: imported bcsl from {bcsl.cli.__file__}, not from {src}")
    return bcsl.cli


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names and units to report."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as error:
        sys.exit(f"error: {error}")


def load_reference(profile: str, workload: str) -> dict[str, list]:
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    try:
        return reference[profile][workload]
    except KeyError:
        sys.exit(f"error: no reference outputs for {profile}/{workload}")


def run_op(cli, op: Op, trace: tracer.Tracer | None = None):
    """Time one CLI call; returns seconds, exit code and output bytes."""
    op.output.unlink(missing_ok=True)
    span = trace.begin("cli.main") if trace else None
    start = perf_counter()
    try:
        code = cli.main(op.argv)
    except Exception:
        traceback.print_exc()
        code = None
    seconds = perf_counter() - start
    if trace:
        trace.end(span)
    return seconds, code, op.output.read_bytes() if op.output.exists() else None


class Loop:
    """Repeated passes over a workload's operations, with output checks."""

    def __init__(self, cli, ops: list[Op], reference: dict[str, list]):
        self.cli = cli
        self.ops = ops
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, tuple[int, int]] = {}
        self.raw: list[list[float]] = []

    def check(self, op: Op, code: int | None, data: bytes | None) -> None:
        self.attempted += 1
        expected_code, expected_sha = self.reference[op.name]
        if code != expected_code or data is None:
            self.failed += 1
            message = f"exit {code}, expected {expected_code} and an output"
            print(f"FAIL {op.name}: {message}", file=sys.stderr)
            return
        if hashlib.sha256(data).hexdigest() != expected_sha:
            self.failed += 1
            print(f"FAIL {op.name}: output differs from reference", file=sys.stderr)
            return
        if op.name not in self.counts:
            self.counts[op.name] = output_counts(op, data)

    def one_pass(self, trace: tracer.Tracer | None = None) -> list[float]:
        """Run every operation once; returns their times.

        With a tracer, the pass is a ``bench.pass`` span holding one
        ``cli.main`` span per op, and its deferred counts are settled.
        """
        times = []
        pass_span = trace.begin("bench.pass") if trace else None
        for op in self.ops:
            elapsed, code, data = run_op(self.cli, op, trace)
            times.append(elapsed)
            self.check(op, code, data)
        if trace:
            trace.end(pass_span)
            trace.settle()
        return times

    def scaled_pass(self) -> list[float]:
        """Run every operation once; returns their times scaled to the reference host.

        A ``hostspeed`` round runs after the first op and then after each
        op that ends ``HOST_EVERY_S`` seconds of ops or more since the last
        round.  Each time is divided by the pass's slowdown.
        """
        times: list[float] = []
        rounds: list[float] = []
        since = HOST_EVERY_S
        for op in self.ops:
            elapsed, code, data = run_op(self.cli, op)
            times.append(elapsed)
            self.check(op, code, data)
            since += elapsed
            if since >= HOST_EVERY_S:
                rounds.append(hostspeed.round_s())
                since = 0.0
        factor = hostspeed.slowdown(rounds)
        self.raw.append(times)
        return [t / factor for t in times]

    def run(self, seconds: float, between=None) -> list[list[float]]:
        """Run scaled passes for about ``seconds``; returns per-op times per pass.

        ``between()``, if given, is called after each pass.  A pass starts
        only if it is expected to end within ``seconds``, except that
        ``MIN_PASSES`` passes always run.
        """
        passes: list[list[float]] = []
        start = perf_counter()
        while True:
            passes.append(self.scaled_pass())
            if between:
                between()
            spent = perf_counter() - start
            if len(passes) >= MIN_PASSES and spent * (len(passes) + 1) / len(passes) > seconds:
                return passes

    def wall(self, passes: list[list[float]]) -> float:
        """Seconds for one pass: the sum over operations of their median time."""
        return sum(statistics.median(column) for column in zip(*passes))

    def totals(self) -> tuple[int, int]:
        return (
            sum(states for states, _ in self.counts.values()),
            sum(transitions for _, transitions in self.counts.values()),
        )


class SetupProbe:
    """Set-up time of a workload, measured in fresh processes.

    ``sample`` runs one ``setup_probe.py`` process.  The run takes one
    sample after every pass, so set-up is measured across the whole run,
    like the passes.  Each probe also measures the host's speed, and its
    times are scaled to the reference host like the passes' times.
    """

    def __init__(self, manifest: list[list[Path]], work: Path):
        listing = work / "setup.manifest"
        listing.write_text(
            "".join("\t".join(map(str, entry)) + "\n" for entry in manifest), encoding="utf-8"
        )
        self.argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT / "src")]
        self.argv += [str(listing), str(SETUP_ROUNDS)]
        self.imports: list[float] = []
        self.rounds: list[float] = []

    def sample(self) -> None:
        """Run one probe; its times are scaled by the slowdown it measured."""
        done = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, check=True)
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        factor = hostspeed.slowdown(sample["host"])
        self.imports.append(sample["import_s"] / factor)
        self.rounds += [t / factor for t in sample["rounds"]]

    def seconds(self) -> float:
        """The median scaled import time plus the median scaled time of one round."""
        return statistics.median(self.imports) + statistics.median(self.rounds)


def run_workload(args) -> dict:
    profile = "smoke" if args.smoke else "full"
    cli = load_program()
    spec = load_spec()
    reference = load_reference(profile, args.workload)
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        work = Path(tmp)
        ops, manifest = build_workload(args.workload, profile, args.seed, work)
        loop = Loop(cli, ops, reference)
        if not args.trace:
            setup = SetupProbe(manifest, work)
            wall_s = loop.wall(loop.run(args.seconds, setup.sample))
            setup_s = setup.seconds()
            print(f"unscaled wall_s: {loop.wall(loop.raw)}", file=sys.stderr)
            states, transitions = loop.totals()
            metrics = {
                "wall_s": wall_s,
                "setup_s": setup_s,
                "states_per_s": states / wall_s,
                "transitions_per_s": transitions / wall_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            metrics = run_traced(loop, args, scratch)
    reported = spec["per_layer" if args.trace else "end_to_end"]
    return {
        "correct": loop.failed == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
    }


def run_traced(loop: Loop, args, scratch: Path) -> dict[str, float]:
    """Alternate untraced and traced passes for about ``args.seconds``.

    Alternating keeps the host's slow drift out of ``trace.overhead_s``,
    the traced minus the untraced pass time.
    """
    trace = tracer.Tracer()
    untraced: list[list[float]] = []
    traced: list[list[float]] = []
    origin = start = perf_counter()
    while True:
        untraced.append(loop.one_pass())
        undo = tracer.install(trace)
        try:
            traced.append(loop.one_pass(trace))
        finally:
            undo()
        spent = perf_counter() - start
        if spent * (len(traced) + 1) / len(traced) > args.seconds:
            break
    starts = [i for i, span in enumerate(trace.spans) if span[0] == "bench.pass"]
    per_pass = [
        tracer.layer_metrics(trace.spans[:end], first)
        for first, end in zip(starts, starts[1:] + [len(trace.spans)])
    ]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = loop.wall(traced) - loop.wall(untraced)
    trace.write(scratch / f"trace-{args.workload}-seed{args.seed}.json", origin, metrics)
    return metrics


def run_all(args) -> int:
    """Run every workload in a fresh process and print a metric table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {workload} exited {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        results[workload] = result
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_ratio={result['failed'] / result['attempted']:g}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def parse_args(argv: list[str] | None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny model sizes")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
