"""Command-line interface.

Subcommands: ``parse`` (model echo / summary), ``ground`` (grounded
rewriting system), ``lts`` (reachable graph or unrolled run tree,
optionally regulated), ``simulate`` (seeded random run) and ``check``
(equivalence of the direct and grounded semantics).

Exit codes: 0 success, 1 check failure, 2 usage or configuration error,
3 model parse error, 4 grounding cap exceeded.  ``check`` exits 2 when a
bound truncated the comparison.  A model file that is not UTF-8 is a
parse error; a regulation file that is not UTF-8 or nests JSON too
deeply to read, or a regular expression whose automaton needs more than
``MAX_DFA_STATES`` states, is a configuration error; and a negative
bound or step count is a usage error.  All outputs are canonically
sorted, so repeated invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .conformance import ConformanceReport, check_equivalence
from .lts import (
    RuleMatcher,
    build_lts,
    lts_to_dot,
    lts_to_json_obj,
    tree_to_dot,
    tree_to_json_obj,
    unroll,
)
from .mrs import build_mrs, sample_run
from .patterns import GroundingCapError
from .regulation import (
    RegulationError,
    compile_regulation,
    make_guard,
    product_state_text,
    regulated_explore,
    regulated_tree,
)
from .syntax import BcslModel, ParseError, SignatureError, model_to_text, parse_model

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_GROUNDING_CAP = 4


def _natural(text: str) -> int:
    """Argparse type of the count and bound flags: an integer ≥ 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bcsl", description="BCSL model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("model", help="model file")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")

    p_parse = sub.add_parser("parse", help="parse a model and print it back")
    add_common(p_parse, ("json", "text"))

    p_ground = sub.add_parser("ground", help="ground a model to a rewriting system")
    add_common(p_ground, ("json", "text"))

    p_lts = sub.add_parser("lts", help="build the reachable transition system")
    add_common(p_lts, ("dot", "json", "text"))
    p_lts.add_argument("--regulation", default=None, help="regulation config (JSON file)")
    p_lts.add_argument("--max-states", type=_natural, default=100_000)
    p_lts.add_argument("--max-depth", type=_natural, default=1_000)
    p_lts.add_argument(
        "--unroll", action="store_true", help="export the depth-bounded run tree instead"
    )

    p_sim = sub.add_parser("simulate", help="sample a seeded random run")
    add_common(p_sim, ("json", "text"))
    p_sim.add_argument("--regulation", default=None, help="regulation config (JSON file)")
    p_sim.add_argument("--steps", type=_natural, default=10)
    p_sim.add_argument("--seed", type=int, default=0)

    p_check = sub.add_parser("check", help="compare direct and grounded semantics")
    p_check.add_argument("model", help="model file")
    p_check.add_argument("--max-states", type=_natural, default=100_000)
    p_check.add_argument("--max-depth", type=_natural, default=1_000)
    p_check.add_argument("--json", action="store_true", help="machine-readable report")
    p_check.add_argument("-o", "--output", default=None)

    return parser


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


def _load_model(path: str) -> BcslModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        data = exc.object
        line = data.count(b"\n", 0, exc.start) + 1
        col = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError(f"model file is not valid UTF-8: {exc.reason}", line, col) from exc
    return parse_model(text)


def _load_regulation(path: str | None, model: BcslModel):
    if path is None:
        return None
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise RegulationError(f"regulation file is not valid UTF-8: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise RegulationError(f"regulation file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # The json decoder recurses once per nested array or object.
        raise RegulationError("regulation file nests JSON too deeply") from exc
    return compile_regulation(config, model.labels)


def _multiset_obj(multiset) -> dict[str, int]:
    return {str(agent): count for agent, count in multiset.items()}


def _cmd_parse(args) -> int:
    model = _load_model(args.model)
    if args.format == "text":
        _emit(model_to_text(model), args.output)
        return EXIT_OK
    obj = {
        "rules": [
            {"label": r.label, "lhs": str(r.lhs), "rhs": str(r.rhs)} for r in model.rules
        ],
        "atomic_signature": {k: sorted(v) for k, v in model.atomic_signature.items()},
        "structure_signature": {k: sorted(v) for k, v in model.structure_signature.items()},
        "init": _multiset_obj(model.init),
    }
    _emit(_dump(obj), args.output)
    return EXIT_OK


def _cmd_ground(args) -> int:
    model = _load_model(args.model)
    mrs = build_mrs(model)
    if args.format == "text":
        lines = ["elements:"]
        lines.extend(f"  {agent}" for agent in sorted(map(str, mrs.elements)))
        lines.append("rules:")
        lines.extend(f"  {rule}" for rule in mrs.rules)
        lines.append(f"init: {mrs.init}")
        _emit("\n".join(lines), args.output)
        return EXIT_OK
    obj = {
        "elements": sorted(str(agent) for agent in mrs.elements),
        "rules": [
            {"label": r.label, "pre": _multiset_obj(r.pre), "post": _multiset_obj(r.post)}
            for r in mrs.rules
        ],
        "init": _multiset_obj(mrs.init),
    }
    _emit(_dump(obj), args.output)
    return EXIT_OK


def _cmd_lts(args) -> int:
    model = _load_model(args.model)
    regulation = _load_regulation(args.regulation, model)

    if regulation is None:
        label_fn = str
        if args.unroll:
            matcher = RuleMatcher(model)
            walk = unroll(model.init, matcher.successors, args.max_depth, args.max_states)
        else:
            walk = build_lts(model, args.max_states, args.max_depth)
    else:
        guard = make_guard(regulation, model)
        label_fn = lambda node: product_state_text(node, guard)  # noqa: E731
        if args.unroll:
            walk = regulated_tree(model, guard, args.max_depth, args.max_states)
        else:
            walk = regulated_explore(model, guard, args.max_states, args.max_depth)

    if args.unroll:
        to_dot, to_json, to_text = tree_to_dot, tree_to_json_obj, _tree_text
    else:
        to_dot, to_json, to_text = lts_to_dot, lts_to_json_obj, _lts_text
    if args.format == "dot":
        text = to_dot(walk, label_fn)
    elif args.format == "json":
        text = _dump(to_json(walk, label_fn))
    else:
        text = to_text(walk, label_fn)
    _emit(text, args.output)
    return EXIT_OK


def _lts_text(graph, label_fn) -> str:
    lines = [
        f"states: {graph.n_states}",
        f"transitions: {graph.n_transitions}",
        f"truncated: {str(graph.truncated).lower()}",
        f"initial: {label_fn(graph.initial)}",
    ]
    for src, label, tgt in sorted(
        graph.transitions, key=lambda t: (label_fn(t[0]), t[1], label_fn(t[2]))
    ):
        lines.append(f"  {label_fn(src)} --{label}--> {label_fn(tgt)}")
    return "\n".join(lines)


def _tree_text(tree, label_fn) -> str:
    lines = [
        f"nodes: {tree.n_nodes}",
        f"edges: {tree.n_edges}",
        f"truncated: {str(tree.truncated).lower()}",
    ]
    for parent, label, child in tree.edges:
        lines.append(f"  {label_fn(tree.states[parent])} --{label}--> {label_fn(tree.states[child])}")
    return "\n".join(lines)


def _cmd_simulate(args) -> int:
    model = _load_model(args.model)
    regulation = _load_regulation(args.regulation, model)
    guard = make_guard(regulation, model) if regulation is not None else None
    run = sample_run(model.init, RuleMatcher(model).successors, args.steps, args.seed, guard)
    if args.format == "text":
        lines = [f"step 0: {run.states[0]}"]
        for i, label in enumerate(run.labels, start=1):
            lines.append(f"step {i} [{label}]: {run.states[i]}")
        _emit("\n".join(lines), args.output)
        return EXIT_OK
    obj = {
        "states": [_multiset_obj(state) for state in run.states],
        "labels": list(run.labels),
    }
    _emit(_dump(obj), args.output)
    return EXIT_OK


def _report_obj(report: ConformanceReport) -> dict:
    obj = {
        "verdict": report.verdict,
        "truncated": report.truncated,
        "states_checked": report.states_checked,
        "direct": {
            "states": report.direct_states,
            "transitions": report.direct_transitions,
        },
        "grounded": {
            "states": report.grounded_states,
            "transitions": report.grounded_transitions,
        },
        "counterexample": None,
    }
    if report.counterexample is not None:
        ce = report.counterexample
        obj["counterexample"] = {
            "kind": ce.kind,
            "direction": ce.direction,
            "state": ce.state,
            "label": ce.label,
            "detail": ce.detail,
        }
    return obj


def _cmd_check(args) -> int:
    model = _load_model(args.model)
    report = check_equivalence(model, args.max_states, args.max_depth)
    if args.json:
        _emit(_dump(_report_obj(report)), args.output)
    else:
        lines = [
            f"verdict: {report.verdict}",
            f"states checked: {report.states_checked}",
            f"direct semantics: {report.direct_states} states, "
            f"{report.direct_transitions} transitions",
            f"grounded semantics: {report.grounded_states} states, "
            f"{report.grounded_transitions} transitions",
        ]
        if report.truncated:
            lines.append("warning: exploration truncated by bounds; prefixes compared")
        if report.counterexample is not None:
            ce = report.counterexample
            lines.append(f"counterexample ({ce.kind}, {ce.direction}):")
            lines.append(f"  state: {ce.state}")
            if ce.label is not None:
                lines.append(f"  rule:  {ce.label}")
            lines.append(f"  {ce.detail}")
        _emit("\n".join(lines), args.output)
    if not report.passed:
        return EXIT_CHECK_FAILED
    if report.truncated:
        return EXIT_USAGE
    return EXIT_OK


_COMMANDS = {
    "parse": _cmd_parse,
    "ground": _cmd_ground,
    "lts": _cmd_lts,
    "simulate": _cmd_simulate,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, SignatureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GroundingCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GROUNDING_CAP
    except RegulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
