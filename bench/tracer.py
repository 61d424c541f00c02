"""Span recorder for the traced benchmark run.

``install`` rebinds public functions of the bcsl modules to timed
wrappers, so spans sit at the layer boundaries while the program's own
files stay untouched.  A span is ``[name, start, end, parent, attrs,
leaves]``: ``parent`` is the index of the enclosing span, ``attrs`` holds
counts taken at that boundary.  Calls made once per state or per
candidate (rule matching, grounded successors, the regulation guard) are
leaves: they are folded into the enclosing span as per-name totals
``[calls, seconds, results, weight]`` instead of becoming spans, so a
traced run keeps a few hundred spans per pass in memory rather than
hundreds of thousands.  Only the traced process calls ``install``.

Counts that cost work (export sizes, grounding candidates, repeated
states in a run tree) are deferred: the wrappers keep their inputs and
``settle`` takes the counts after the pass, outside every span, so that
work is charged to no layer.  What stays inside the spans is the
wrappers' own calls, a list append per unroll step and an addition per
explore step."""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._pending: list[tuple[int, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, {}, {}])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def annotate(self, index: int, **counts) -> None:
        self.spans[index][4].update(counts)

    def defer(self, index: int, counts) -> None:
        """Annotate span ``index`` with ``counts()`` when ``settle`` runs."""
        self._pending.append((index, counts))

    def settle(self) -> None:
        """Take every deferred count; call it outside all spans."""
        for index, counts in self._pending:
            self.annotate(index, **counts())
        self._pending.clear()

    def leaf(self, name: str, seconds: float, results: int, weight: int = 0) -> None:
        leaves = self.spans[self._open[-1]][5]
        entry = leaves.get(name)
        if entry is None:
            leaves[name] = [1, seconds, results, weight]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += results
            entry[3] += weight

    def write(self, path, origin: float, metrics: dict[str, float]) -> None:
        """Write the per-layer metrics and every span, times relative to ``origin``."""
        spans = [
            {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "counts": counts,
                "leaves": leaves,
            }
            for name, start, end, parent, counts, leaves in self.spans
        ]
        text = json.dumps({"metrics": metrics, "spans": spans}, sort_keys=True)
        path.write_text(text + "\n", encoding="utf-8")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[list], first: int) -> dict[str, float]:
    """Per-layer metrics over ``spans[first:]`` (parents index ``spans``)."""
    child_time: dict[int, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    counts: dict[str, Counter] = defaultdict(Counter)
    leaves: dict[str, list] = defaultdict(lambda: [0, 0.0, 0, 0])
    for name, start, end, parent, _, _ in spans[first:]:
        if parent is not None:
            child_time[parent] += end - start
    for index in range(first, len(spans)):
        name, start, end, _, span_counts, span_leaves = spans[index]
        leaf_time = 0.0
        for leaf_name, values in span_leaves.items():
            for k, value in enumerate(values):
                leaves[leaf_name][k] += value
            leaf_time += values[1]
        total[name] += end - start
        own[name] += end - start - child_time[index] - leaf_time
        counts[name].update(span_counts)
    explore, unroll = counts["lts.explore"], counts["lts.unroll"]
    ground = counts["patterns.ground_rule"]
    matcher = leaves["lts.successors"]
    grounded = leaves["mrs.successors"]
    permits = leaves["regulation.permits"]
    return {
        "lts.successors.s": matcher[1],
        "lts.successors.calls": matcher[0],
        "lts.successors.results": matcher[2],
        "lts.explore.self_s": own["lts.explore"],
        "lts.explore.new_state_ratio": _ratio(explore["new_states"], explore["results"]),
        "lts.unroll.self_s": own["lts.unroll"],
        "lts.unroll.repeat_ratio": _ratio(unroll["repeats"], unroll["calls"]),
        "lts.export.s": total["lts.export"],
        "lts.export.bytes": counts["lts.export"]["bytes"],
        "patterns.ground_rule.s": total["patterns.ground_rule"],
        "patterns.ground_rule.candidates": ground["candidates"],
        "patterns.ground_rule.consistent_ratio": _ratio(ground["reactions"], ground["candidates"]),
        "mrs.build_mrs.s": total["mrs.build_mrs"],
        "mrs.rules": counts["mrs.build_mrs"]["rules"],
        "mrs.successors.s": grounded[1],
        "mrs.successors.calls": grounded[0],
        "mrs.enabled_ratio": _ratio(grounded[2], grounded[3]),
        "regulation.compile_regulation.s": total["regulation.compile_regulation"],
        "regulation.make_guard.s": total["regulation.make_guard"],
        "regulation.permits.s": permits[1],
        "regulation.permits.calls": permits[0],
        "regulation.permit_ratio": _ratio(permits[2], permits[0]),
        "syntax.parse_model.s": total["syntax.parse_model"],
        "lts.RuleMatcher.init.s": total["lts.RuleMatcher.init"],
        "conformance.check_equivalence.self_s": own["conformance.check_equivalence"],
        "cli.main.self_s": own["cli.main"],
    }


def install(tracer: Tracer):
    """Rebind the bcsl layer boundaries to traced wrappers; returns an undo function."""
    import bcsl.cli as cli
    import bcsl.conformance as conformance
    import bcsl.lts as lts
    import bcsl.mrs as mrs
    import bcsl.regulation as regulation
    from bcsl import (
        EPSILON_LABEL,
        RegulationGuard,
        RuleMatcher,
        expand_pattern,
        instantiation_count,
    )

    explore, unroll, successors = lts.explore, lts.unroll, mrs.successors
    originals: list[tuple[object, str, object]] = []

    def rebind(value, *places) -> None:
        for module, attr in places:
            originals.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

    def spanned(name, fn, count=None):
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if count is not None:
                tracer.defer(index, lambda: count(args, result))
            return result

        return traced

    class TracedMatcher(RuleMatcher):
        def __init__(self, model):
            index = tracer.begin("lts.RuleMatcher.init")
            try:
                super().__init__(model)
            finally:
                tracer.end(index)

        def successors(self, state):
            start = perf_counter()
            out = super().successors(state)
            tracer.leaf("lts.successors", perf_counter() - start, len(out))
            return out

    class TracedGuard(RegulationGuard):
        def permits(self, memory, state, candidate, enabled_labels):
            start = perf_counter()
            allowed = super().permits(memory, state, candidate, enabled_labels)
            tracer.leaf("regulation.permits", perf_counter() - start, int(allowed))
            return allowed

    def make_guard(regulation_config, model):
        guard = regulation.make_guard(regulation_config, model)
        return TracedGuard(guard.regulation, guard.concurrency)

    def traced_explore(initial, successor_fn, *args, **kwargs):
        results = 0

        def counting(state):
            nonlocal results
            out = successor_fn(state)
            results += len(out)
            return out

        index = tracer.begin("lts.explore")
        try:
            graph = explore(initial, counting, *args, **kwargs)
        finally:
            tracer.end(index)
        tracer.annotate(index, new_states=graph.n_states - 1, results=results)
        return graph

    def traced_unroll(initial, successor_fn, *args, **kwargs):
        expanded: list = []

        def counting(state):
            expanded.append(state)
            return successor_fn(state)

        index = tracer.begin("lts.unroll")
        try:
            tree = unroll(initial, counting, *args, **kwargs)
        finally:
            tracer.end(index)
        tracer.defer(
            index,
            lambda: {"calls": len(expanded), "repeats": len(expanded) - len(set(expanded))},
        )
        return tree

    def traced_successors(system, state):
        start = perf_counter()
        out = successors(system, state)
        results = sum(1 for label, _ in out if label != EPSILON_LABEL)
        tracer.leaf("mrs.successors", perf_counter() - start, results, len(system.rules))
        return out

    def rule_counts(args, reactions):
        rule, structure_signature, atomic_signature = args[:3]
        candidates = 1
        for side in (rule.lhs, rule.rhs):
            candidates *= instantiation_count(
                expand_pattern(side, structure_signature), atomic_signature
            )
        return {"candidates": candidates, "reactions": len(reactions)}

    def text_bytes(args, text):
        return {"bytes": len(text.encode("utf-8"))}

    class JsonProxy:
        """Stands in for ``json`` inside ``bcsl.cli`` so that its dump is timed."""

        dumps = staticmethod(spanned("lts.export", json.dumps, text_bytes))

        def __getattr__(self, attr):
            return getattr(json, attr)

    rebind(spanned("syntax.parse_model", cli.parse_model), (cli, "parse_model"))
    rebind(TracedMatcher, (lts, "RuleMatcher"), (cli, "RuleMatcher"), (regulation, "RuleMatcher"))
    rebind(traced_explore, (lts, "explore"), (conformance, "explore"), (regulation, "explore"))
    rebind(traced_unroll, (cli, "unroll"), (regulation, "unroll"))
    for attr in ("lts_to_dot", "tree_to_dot"):
        rebind(spanned("lts.export", getattr(cli, attr), text_bytes), (cli, attr))
    for attr in ("lts_to_json_obj", "tree_to_json_obj"):
        rebind(spanned("lts.export", getattr(cli, attr)), (cli, attr))
    rebind(JsonProxy(), (cli, "json"))
    rebind(
        spanned("conformance.check_equivalence", cli.check_equivalence),
        (cli, "check_equivalence"),
    )
    rebind(
        spanned("mrs.build_mrs", mrs.build_mrs, lambda args, system: {"rules": len(system.rules)}),
        (conformance, "build_mrs"),
        (regulation, "build_mrs"),
        (cli, "build_mrs"),
    )
    rebind(spanned("patterns.ground_rule", mrs.ground_rule, rule_counts), (mrs, "ground_rule"))
    rebind(traced_successors, (conformance, "successors"))
    rebind(
        spanned("regulation.compile_regulation", cli.compile_regulation),
        (cli, "compile_regulation"),
    )
    rebind(spanned("regulation.make_guard", make_guard), (cli, "make_guard"))

    def undo() -> None:
        for module, attr, value in reversed(originals):
            setattr(module, attr, value)

    return undo
