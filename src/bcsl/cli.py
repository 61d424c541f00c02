"""Command-line interface.

Subcommands: ``parse`` (model echo / summary), ``ground`` (grounded
rewriting system), ``lts`` (reachable graph or unrolled run tree:
``explore`` or ``unroll`` over the walk that ``direct_walk`` builds,
``guarded`` under a regulation), ``simulate`` (``lts.sample_run`` over
that same walk, printing each node's state) and ``check`` (equivalence of the
direct and grounded semantics).  ``unroll`` and ``sample_run`` ask for a
node again, so they get the walk's function under ``functools.cache``;
``explore`` gets it uncached.  ``main`` parses with only the named
subcommand's parser, built on that subcommand's first use and reused for
the life of the process; anything else, and a stray argument, goes to
the full tree, whose top-level parser reports the stray one.  It loads
the model once and writes the text that the handler returns.

``main`` runs the handler with the cyclic collector off, and on every
exit puts it back as the caller left it.  That is safe because a call
builds no reference cycle: its states, moves, edges and output are all
freed by reference counting, which
``tests/test_cli.py::test_a_call_leaves_no_garbage_for_the_collector``
pins for every command.  On a large walk the collector would otherwise
scan the growing state store again and again, to find nothing.

A programmed regulation that lists no successors for some labels warns
in one ``warning: <message>`` line on stderr, whatever Python's warning
filters say, and the run goes on.

Exit codes: 0 success, 1 check failure, 2 usage or configuration error,
3 model parse error, 4 grounding cap exceeded; ``main`` maps each error
to its code through one table, ``_ERROR_EXITS``.  ``check`` exits 2 when
a bound truncated the comparison.  A model file that is not UTF-8, or
init counts of one agent that sum past ``sys.get_int_max_str_digits()``
digits, is a parse error; a state count that a rule grows past them is
a usage error (``CountTooLongError``); a regulation file that is not
UTF-8, nests JSON too deeply or holds too long an integer, or a regular
expression whose automaton needs more than ``MAX_DFA_STATES`` states, is
a configuration error; and a negative bound or step count is a usage
error.  All outputs are canonically sorted, so repeated invocations are
byte-identical.  JSON output is
exactly ``json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)``,
rendered by the C encoder (``_Indented``).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
import warnings
from json.encoder import c_make_encoder, encode_basestring, encode_basestring_ascii
from pathlib import Path

from . import lts
from .conformance import ConformanceReport, check_equivalence
from .lts import lts_to_dot, lts_to_json_obj, sample_run, tree_to_dot, tree_to_json_obj, unroll
from .mrs import build_mrs
from .patterns import GroundingCapError
from .regulation import (
    RegulationError,
    RegulationWarning,
    compile_regulation,
    direct_walk,
    make_guard,
)
from .syntax import _LINE_BREAK, BcslModel, ParseError, SignatureError, model_to_text, parse_model
from .terms import CountTooLongError
# Nothing here calls it, but ``bench/tracer.py`` rebinds this name, so it
# stays importable from this module.
from .lts import RuleMatcher  # noqa: F401

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_GROUNDING_CAP = 4

# The exit code of each error that ``main`` reports in one ``error:`` line.
_ERROR_EXITS = {
    ParseError: EXIT_PARSE,
    SignatureError: EXIT_PARSE,
    GroundingCapError: EXIT_GROUNDING_CAP,
    RegulationError: EXIT_USAGE,
    CountTooLongError: EXIT_USAGE,
    OSError: EXIT_USAGE,
}


def _natural(text: str) -> int:
    """Argparse type of the count and bound flags: an integer ≥ 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    add = p.add_argument
    add("model", help="model file")
    if command != "check":
        formats = ("dot", "json", "text") if command == "lts" else ("json", "text")
        add("--format", choices=formats, default="json")
        add("-o", "--output", default=None, help="write to a file instead of stdout")
    if command in ("lts", "simulate"):
        add("--regulation", default=None, help="regulation config (JSON file)")
    if command in ("lts", "check"):
        add("--max-states", type=_natural, default=100_000)
        add("--max-depth", type=_natural, default=1_000)
    if command == "lts":
        add("--unroll", action="store_true", help="export the depth-bounded run tree instead")
    elif command == "simulate":
        add("--steps", type=_natural, default=10)
        add("--seed", type=int, default=0)
    elif command == "check":
        add("--json", action="store_true", help="machine-readable report")
        add("-o", "--output", default=None)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bcsl", description="BCSL model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help_text), command)
    return parser


@functools.cache
def _command_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, built on its first use.

    Reuse is safe: ``parse_known_args`` leaves the parser as it was,
    defaults land on the namespace each call passes in, and usage or help
    text reads the terminal width when it is printed.
    """
    parser = argparse.ArgumentParser(prog=f"bcsl {command}")
    _add_arguments(parser, command)
    return parser


def _emit(text: str, output: str | None) -> None:
    # The final newline is written on its own: ``text + "\n"`` would copy
    # the whole output while the caller still holds ``text``.
    end = "" if text.endswith("\n") else "\n"
    if output is None:
        # The same UTF-8 bytes as ``-o``, whatever the stream's own encoding.
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.write(text)
            sys.stdout.write(end)
        else:
            sys.stdout.flush()
            buffer.write(text.encode("utf-8"))
            buffer.write(end.encode())
            buffer.flush()
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write(end)


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _rows_are_flat(rows: list) -> bool:
    """Whether the lists or the dicts in ``rows`` hold only scalars."""
    if type(rows[0]) is dict:
        return {type(value) for row in rows for value in row.values()} <= _SCALARS
    return {type(item) for row in rows for item in row} <= _SCALARS


def _unserializable(o):
    """``JSONEncoder.default`` without an instance.

    Handed to ``_Indented``'s C encoders in place of the bound
    ``self.default``, which would make the encoder hold itself in a cycle
    that only the cyclic collector frees."""
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


class _Indented(json.JSONEncoder):
    """Output of an integer ``indent``, rendered by the C encoder, byte for byte.

    ``json`` runs its C encoder only without ``indent``.  Here a container
    of scalars is one C call whose item separator carries the newline and
    the padding.  A list of non-empty flat rows (all lists or all dicts)
    is one C call at the rows' inner padding, and one ``str.replace``
    turns the row separators into outer ones: an encoded string holds no
    raw newline and a scalar never ends in ``]`` or ``}``, so only a row
    boundary reads ``],\\n<pad>[``.  Other containers recurse here.  It
    renders what the CLI dumps, plain JSON data only: dicts with ``str``
    keys, lists, and ``str``, ``int``, ``float``, ``bool`` or ``None``
    values.  Without the C encoder, the stock encoder does it all.
    """

    def iterencode(self, o, _one_shot=False):
        if c_make_encoder is None:
            return super().iterencode(o, _one_shot)
        self._pad = " " * self.indent
        self._string = encode_basestring_ascii if self.ensure_ascii else encode_basestring
        self._encoders: dict[int, object] = {}
        self._scalar = self._encoder(0)
        return [self._render(o, 0)]

    def _encoder(self, level: int):
        """The C encoder whose items sit at indent ``level``."""
        encoder = self._encoders.get(level)
        if encoder is None:
            encoder = self._encoders[level] = c_make_encoder(
                None,
                _unserializable,
                self._string,
                None,
                self.key_separator,
                self.item_separator + "\n" + self._pad * level,
                self.sort_keys,
                self.skipkeys,
                self.allow_nan,
            )
        return encoder

    def _render(self, o, level: int) -> str:
        kind = type(o)
        if kind in _SCALARS:
            return self._scalar(o, 0)[0]
        kinds = set(map(type, o.values() if kind is dict else o))
        if not o:
            return "{}" if kind is dict else "[]"
        inner = "\n" + self._pad * (level + 1)
        outer = "\n" + self._pad * level
        if kinds <= _SCALARS:
            text = "".join(self._encoder(level + 1)(o, 0))
            return text[0] + inner + text[1:-1] + outer + text[-1]
        if kind is list and kinds in ({list}, {dict}) and all(o) and _rows_are_flat(o):
            row_inner = inner + self._pad
            text = "".join(self._encoder(level + 2)(o, 0))
            start, end = text[1], text[-2]
            body = text[2:-2].replace(
                end + self.item_separator + row_inner + start,
                inner + end + self.item_separator + inner + start + row_inner,
            )
            return "[" + inner + start + row_inner + body + inner + end + outer + "]"
        separator = self.item_separator + inner
        if kind is list:
            items = [self._render(value, level + 1) for value in o]
            return "[" + inner + separator.join(items) + outer + "]"
        items = [
            self._string(key) + self.key_separator + self._render(o[key], level + 1)
            for key in (sorted(o) if self.sort_keys else o)
        ]
        return "{" + inner + separator.join(items) + outer + "}"


def _dump(obj) -> str:
    return json.dumps(obj, cls=_Indented, indent=2, sort_keys=True, ensure_ascii=False)


def _load_model(path: str) -> BcslModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # Lines and columns as the parser counts them: in the characters of
        # the valid prefix, split where a model line ends.
        lines = _LINE_BREAK.split(exc.object[: exc.start].decode("utf-8"))
        raise ParseError(
            f"model file is not valid UTF-8: {exc.reason}", len(lines), len(lines[-1]) + 1
        ) from exc
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
    except ValueError as exc:  # an integer longer than ``sys.get_int_max_str_digits()``
        raise RegulationError("regulation file holds an integer with too many digits") from exc
    except RecursionError as exc:
        # The json decoder recurses once per nested array or object.
        raise RegulationError("regulation file nests JSON too deeply") from exc
    # Recorded, so that ``-W error`` cannot turn a repaired config into a traceback.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RegulationWarning)
        regulation = compile_regulation(config, model.labels)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return make_guard(regulation, model)


def _multiset_obj(multiset) -> dict[str, int]:
    return {str(agent): count for agent, count in multiset.items()}


def _cmd_parse(model: BcslModel, args) -> tuple[str, int]:
    if args.format == "text":
        return model_to_text(model), EXIT_OK
    obj = {
        "rules": [
            {"label": r.label, "lhs": str(r.lhs), "rhs": str(r.rhs)} for r in model.rules
        ],
        "atomic_signature": {k: sorted(v) for k, v in model.atomic_signature.items()},
        "structure_signature": {k: sorted(v) for k, v in model.structure_signature.items()},
        "init": _multiset_obj(model.init),
    }
    return _dump(obj), EXIT_OK


def _cmd_ground(model: BcslModel, args) -> tuple[str, int]:
    mrs = build_mrs(model)
    if args.format == "text":
        lines = ["elements:"]
        lines.extend(f"  {agent}" for agent in sorted(map(str, mrs.elements)))
        lines.append("rules:")
        lines.extend(f"  {rule}" for rule in mrs.rules)
        lines.append(f"init: {mrs.init}")
        return "\n".join(lines), EXIT_OK
    obj = {
        "elements": sorted(str(agent) for agent in mrs.elements),
        "rules": [
            {"label": r.label, "pre": _multiset_obj(r.pre), "post": _multiset_obj(r.post)}
            for r in mrs.rules
        ],
        "init": _multiset_obj(mrs.init),
    }
    return _dump(obj), EXIT_OK


def _cmd_lts(model: BcslModel, args) -> tuple[str, int]:
    root, successor_fn, label_fn = direct_walk(model, _load_regulation(args.regulation, model))
    if args.unroll:
        walk = unroll(root, functools.cache(successor_fn), args.max_depth, args.max_states)
        to_dot, to_json, to_text = tree_to_dot, tree_to_json_obj, _tree_text
    else:
        # Through the module: a tracer that times the walk rebinds ``lts.explore``.
        walk = lts.explore(root, successor_fn, args.max_states, args.max_depth)
        to_dot, to_json, to_text = lts_to_dot, lts_to_json_obj, _lts_text
    if args.format == "dot":
        text = to_dot(walk, label_fn)
    elif args.format == "json":
        text = _dump(to_json(walk, label_fn))
    else:
        text = to_text(walk, label_fn)
    return text, EXIT_OK


def _lts_text(graph, label_fn) -> str:
    """The rows of the JSON object, one transition per line."""
    obj = lts_to_json_obj(graph, label_fn)
    lines = [
        f"states: {len(obj['states'])}",
        f"transitions: {len(obj['transitions'])}",
        f"truncated: {str(obj['truncated']).lower()}",
        f"initial: {obj['initial']}",
    ]
    lines.extend(f"  {src} --{label}--> {tgt}" for src, label, tgt in obj["transitions"])
    return "\n".join(lines)


def _tree_text(tree, label_fn) -> str:
    lines = [
        f"nodes: {tree.n_nodes}",
        f"edges: {tree.n_edges}",
        f"truncated: {str(tree.truncated).lower()}",
    ]
    text = tree.node_texts(label_fn)
    for parent, label, child in tree.edges:
        lines.append(f"  {text[parent]} --{label}--> {text[child]}")
    return "\n".join(lines)


def _cmd_simulate(model: BcslModel, args) -> tuple[str, int]:
    guard = _load_regulation(args.regulation, model)
    root, successor_fn, _ = direct_walk(model, guard)
    run = sample_run(root, functools.cache(successor_fn), args.steps, args.seed)
    states = run.states if guard is None else [node[0] for node in run.states]
    if args.format == "text":
        lines = [f"step 0: {states[0]}"]
        for i, label in enumerate(run.labels, start=1):
            lines.append(f"step {i} [{label}]: {states[i]}")
        return "\n".join(lines), EXIT_OK
    obj = {
        "states": [_multiset_obj(state) for state in states],
        "labels": list(run.labels),
    }
    return _dump(obj), EXIT_OK


def _report_obj(report: ConformanceReport) -> dict:
    ce = report.counterexample
    return {
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
        "counterexample": None if ce is None else {f: getattr(ce, f) for f in ce._fields},
    }


def _cmd_check(model: BcslModel, args) -> tuple[str, int]:
    report = check_equivalence(model, args.max_states, args.max_depth)
    if args.json:
        text = _dump(_report_obj(report))
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
        text = "\n".join(lines)
    if not report.passed:
        return text, EXIT_CHECK_FAILED
    return text, EXIT_USAGE if report.truncated else EXIT_OK


_COMMANDS = {
    "parse": (_cmd_parse, "parse a model and print it back"),
    "ground": (_cmd_ground, "ground a model to a rewriting system"),
    "lts": (_cmd_lts, "build the reachable transition system"),
    "simulate": (_cmd_simulate, "sample a seeded random run"),
    "check": (_cmd_check, "compare direct and grounded semantics"),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv else None
    try:
        if command in _COMMANDS:
            args, extras = _command_parser(command).parse_known_args(
                argv[1:], argparse.Namespace(command=command)
            )
            if extras:  # the full tree reports them, from its top-level parser
                build_arg_parser().parse_args(argv)
        else:
            args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        text, code = _COMMANDS[args.command][0](_load_model(args.model), args)
        _emit(text, args.output)
        return code
    except tuple(_ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS.items() if isinstance(exc, kind))
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
