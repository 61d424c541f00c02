"""Behavioural equivalence between the direct and the grounded semantics.

Every model has two executable semantics here: direct rewriting of states
by rule patterns (``lts`` module) and rewriting by the grounded system
(``mrs`` module).  The two must generate the same set of runs; since both
are anchored at the same initial state, that reduces to equality of the
reachable labelled graphs (with ε self-loops on terminal states).
``check_equivalence`` explores both within the same bounds and reports
the first discrepancy; ``check_lemmas`` compares enabledness and the
per-rule successor sets at a single state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lts import Lts, RuleMatcher, build_lts, explore, extend_epsilon
from .mrs import Mrs, apply_rule, build_mrs, enabled, successors
from .patterns import enumerate_instantiations, expand_pattern, pattern_multiset
from .syntax import BcslModel
from .terms import Multiset


@dataclass(frozen=True)
class Counterexample:
    """A reachable discrepancy between the two semantics."""

    kind: str  # "state" or "transition"
    direction: str  # "direct_only" or "grounded_only"
    state: str
    label: str | None
    detail: str


@dataclass(frozen=True)
class ConformanceReport:
    states_checked: int
    truncated: bool
    direct_states: int
    grounded_states: int
    direct_transitions: int
    grounded_transitions: int
    counterexample: Counterexample | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass(frozen=True)
class LemmaReport:
    """Per-rule agreement of the two semantics at one state."""

    label: str
    direct_enabled: bool
    grounded_enabled: bool
    direct_targets: frozenset[Multiset]
    grounded_targets: frozenset[Multiset]

    @property
    def enabledness_agrees(self) -> bool:
        return self.direct_enabled == self.grounded_enabled

    @property
    def application_agrees(self) -> bool:
        return self.direct_targets == self.grounded_targets


def _first_difference(direct: Lts, grounded: Lts) -> Counterexample | None:
    # A reachability difference always stems from an edge difference at a
    # shared state, so edge discrepancies make the localized diagnostic.
    sides = (
        (
            "direct_only", direct, grounded,
            "direct rewriting reaches {} via {!r} but no grounded rule does",
            "state reachable by direct rewriting but not in the grounded system",
        ),
        (
            "grounded_only", grounded, direct,
            "a grounded rule reaches {} via {!r} but direct rewriting does not",
            "state reachable in the grounded system but not by direct rewriting",
        ),
    )
    for direction, mine, theirs, edge_detail, _ in sides:
        extra = mine.transitions - theirs.transitions
        if extra:
            src, label, tgt = min(extra, key=lambda e: (str(e[0]), e[1], str(e[2])))
            return Counterexample(
                "transition", direction, str(src), label, edge_detail.format(tgt, label)
            )
    for direction, mine, theirs, _, state_detail in sides:
        extra = mine.states - theirs.states
        if extra:
            return Counterexample("state", direction, min(map(str, extra)), None, state_detail)
    return None


def check_equivalence(
    model: BcslModel,
    max_states: int = 100_000,
    max_depth: int = 1_000,
    mrs: Mrs | None = None,
) -> ConformanceReport:
    """Compare the reachable graphs of the two semantics under shared bounds.

    Passing an explicit ``mrs`` overrides the grounded system (useful as a
    negative control).  When a bound truncates either exploration, the
    explored prefixes are compared and ``truncated`` is set.  The model
    is grounded before the direct side runs, so a model over the grounding
    cap fails at once instead of after a direct exploration that has no cap.
    """
    grounded_system = build_mrs(model) if mrs is None else mrs
    direct = extend_epsilon(build_lts(model, max_states, max_depth))
    grounded = explore(
        grounded_system.init,
        lambda m: successors(grounded_system, m),
        max_states,
        max_depth,
    )
    counterexample = _first_difference(direct, grounded)
    return ConformanceReport(
        states_checked=len(direct.states | grounded.states),
        truncated=direct.truncated or grounded.truncated,
        direct_states=len(direct.states),
        grounded_states=len(grounded.states),
        direct_transitions=len(direct.transitions),
        grounded_transitions=len(grounded.transitions),
        counterexample=counterexample,
    )


def check_lemmas(model: BcslModel, state: Multiset) -> dict[str, LemmaReport]:
    """Per-rule agreement of enabledness and successor sets at ``state``.

    The direct side asks whether some instantiation of the (expanded)
    left-hand side is contained in the state and collects the matcher's
    rewrite targets; the grounded side asks ``enabled`` and
    ``apply_rule`` of the rules of ``build_mrs(model)`` with the label.
    """
    matcher = RuleMatcher(model)
    direct_successors = matcher.successors(state)
    grounded_rules = build_mrs(model).rules
    reports: dict[str, LemmaReport] = {}
    for rule in model.rules:
        lhs = expand_pattern(rule.lhs, model.structure_signature)
        direct_enabled = any(
            pattern_multiset(inst.result).issubset(state)
            for inst in enumerate_instantiations(lhs, model.atomic_signature)
        )
        direct_targets = frozenset(
            target for label, target in direct_successors if label == rule.label
        )
        fired = [mu for mu in grounded_rules if mu.label == rule.label and enabled(mu, state)]
        grounded_targets = frozenset(apply_rule(mu, state) for mu in fired)
        reports[rule.label] = LemmaReport(
            rule.label, direct_enabled, bool(fired), direct_targets, grounded_targets
        )
    return reports
