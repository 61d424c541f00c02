"""Behavioural equivalence between the direct and the grounded semantics.

Every model has two executable semantics here: direct rewriting of states
by rule patterns (``lts`` module) and rewriting by the grounded system
(``mrs`` module).  The two must generate the same set of runs; since both
are anchored at the same initial state, that reduces to equality of the
two successor sets at every reachable state.  Both successor functions
fire ε exactly when nothing else is enabled: the grounded ``successors``,
and on the direct side ``RuleMatcher(model).successors(m) or {(ε, m)}``.
``check_equivalence`` walks the direct side once and compares the two
sets at each state it expands (an on-the-fly product walk, as in
Fernandez and Mounier, CAV 1991).
"""

from __future__ import annotations

from . import lts
from .lts import _move_key, explore
from .mrs import EPSILON_LABEL, Mrs, build_mrs, successors
from .syntax import BcslModel
from .terms import _Record


class Counterexample(_Record):
    """A reachable discrepancy between the two semantics.

    ``kind`` is "state" or "transition", ``direction`` "direct_only" or
    "grounded_only"; ``label`` is ``None`` for a state.
    """

    __slots__ = _fields = ("kind", "direction", "state", "label", "detail")


class ConformanceReport(_Record):
    """What ``check_equivalence`` found: the counts of both explorations, and
    the first ``Counterexample``, or ``None`` when the semantics agree."""

    __slots__ = _fields = (
        "states_checked",
        "truncated",
        "direct_states",
        "grounded_states",
        "direct_transitions",
        "grounded_transitions",
        "counterexample",
    )

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


_EDGE_DETAILS = (
    ("direct_only", "direct rewriting reaches {} via {!r} but no grounded rule does"),
    ("grounded_only", "a grounded rule reaches {} via {!r} but direct rewriting does not"),
)


def check_equivalence(
    model: BcslModel,
    max_states: int = 100_000,
    max_depth: int = 1_000,
    mrs: Mrs | None = None,
) -> ConformanceReport:
    """Compare both semantics' successor sets at each state of one walk.

    One breadth-first walk explores the direct side, and each state it
    expands also gets its grounded successors, so a difference counts
    even among successors that the state cap then drops.  The
    counterexample comes from the first state, in walk order, whose sets
    differ: its least differing edge in ``_move_key`` order (label, then
    target text), direct-only edges first.  With no difference, a grounded walk would build the same
    graph, so the grounded counts are the walk's.  Only on a difference,
    or when an explicit ``mrs`` (a negative control) starts elsewhere, is
    the grounded side walked on its own, to count it.  When a bound
    truncates a walk, the explored prefixes are compared and ``truncated``
    is set.  The model is grounded first, so a model over the grounding
    cap fails before a direct exploration that has no cap.
    """
    grounded_system = build_mrs(model) if mrs is None else mrs
    # Through the module: a tracer that times the matcher rebinds ``lts.RuleMatcher``.
    matcher = lts.RuleMatcher(model)
    differing: list[tuple] = []  # (state, direct-only, grounded-only) of the first

    def direct_fn(m):
        mine = matcher.successors(m) or {(EPSILON_LABEL, m)}
        if not differing and mine != (theirs := successors(grounded_system, m)):
            differing.append((m, mine - theirs, theirs - mine))
        return mine

    direct = grounded = explore(model.init, direct_fn, max_states, max_depth)
    counterexample = None
    if grounded_system.init != model.init:
        elsewhere = grounded_system.init
        detail = f"runs start here by direct rewriting but at {elsewhere} in the grounded system"
        counterexample = Counterexample("state", "direct_only", str(model.init), None, detail)
    elif differing:
        state, direct_only, grounded_only = differing[0]
        direction, detail = _EDGE_DETAILS[0 if direct_only else 1]
        label, target = min(direct_only or grounded_only, key=_move_key)
        detail = detail.format(target, label)
        counterexample = Counterexample("transition", direction, str(state), label, detail)
    states_checked = direct.n_states
    if counterexample:
        grounded = explore(
            grounded_system.init, lambda m: successors(grounded_system, m), max_states, max_depth
        )
        states_checked = len(set(direct.states).union(grounded.states))
    return ConformanceReport(
        states_checked=states_checked,
        truncated=direct.truncated or grounded.truncated,
        direct_states=direct.n_states,
        grounded_states=grounded.n_states,
        direct_transitions=direct.n_transitions,
        grounded_transitions=grounded.n_transitions,
        counterexample=counterexample,
    )
