"""Seeded model generator for the benchmark.

Three families:

* ``site_model(n, k, c)``: one agent ``P`` with ``n`` sites ``S0..``,
  each carrying one of ``k`` features ``f0..``, ``c`` copies in ``cell``.
  Per site, ``act{j}_{m}`` moves ``f{m}`` to ``f{m+1}`` and ``deact{j}``
  moves the last feature back to ``f0``; ``export`` moves any ``P`` from
  ``cell`` to ``out``.  Its state space is every multiset of ``c`` agents
  over the ``2 * k**n`` agent kinds (4 x 2 x 3 gives 5,984 states and
  42,240 transitions).
* ``regulation_configs(n, k)``: one config per regulation type over the
  labels of ``site_model(n, k, _)``.
* ``corpus_models(count)``: small random models with partial
  compositions, multi-agent left-hand sides and chains, drawn from a fixed
  corpus seed.

The structure of every workload is fixed, so each seed does the same
work.  The run seed drives ``scramble_model`` and ``scramble_config``,
which rewrite the surface of each input (line order, split init counts,
arrow spelling, spacing, comments, JSON layout) without changing what it
means.  The program sorts every output canonically, so outputs do not
depend on the seed and can be checked against recorded digests.
"""

from __future__ import annotations

import json
import random

CORPUS_SEED = 20220121

# ---------------------------------------------------------------------------
# Scaled multi-site agents
# ---------------------------------------------------------------------------


def site_labels(n: int, k: int) -> list[str]:
    labels = []
    for j in range(n):
        labels.extend(f"act{j}_{m}" for m in range(k - 1))
        labels.append(f"deact{j}")
    labels.append("export")
    return labels


def _site_agent(n: int, features: list[int], compartment: str) -> str:
    sites = ",".join(f"S{j}{{f{features[j]}}}" for j in range(n))
    return f"P({sites})::{compartment}"


def site_model(n: int, k: int, c: int) -> str:
    lines = ["#! rules"]
    for j in range(n):
        for m in range(k - 1):
            lines.append(f"act{j}_{m} ~ P(S{j}{{f{m}}})::cell => P(S{j}{{f{m + 1}}})::cell")
        lines.append(f"deact{j} ~ P(S{j}{{f{k - 1}}})::cell => P(S{j}{{f0}})::cell")
    lines.append("export ~ P()::cell => P()::out")
    lines.append("#! inits")
    lines.append(f"{c} {_site_agent(n, [0] * n, 'cell')}")
    return "\n".join(lines) + "\n"


def regulation_configs(n: int, k: int) -> dict[str, dict]:
    """One config per regulation type, keyed by type."""
    labels = site_labels(n, k)
    first_acts = [f"act{j}_0" for j in range(n)]
    deacts = [f"deact{j}" for j in range(n)]
    others = "|".join(x for x in labels if x != "export")
    # Words are (others)* export (others)* export: no word is a proper
    # prefix of another, so every word is reachable.
    successors = {"export": first_acts}
    for j in range(n):
        for m in range(k - 1):
            successors[f"act{j}_{m}"] = [f"act{j}_{m + 1}" if m + 2 < k else deacts[j], "export"]
        successors[deacts[j]] = [first_acts[(j + 1) % n], "export"]
    return {
        "regular": {"type": "regular", "expression": f"({others})*.export.({others})*.export"},
        "ordered": {
            "type": "ordered",
            "pairs": [[a, b] for a, b in zip(first_acts, first_acts[1:])]
            + [[a, d] for a, d in zip(first_acts, deacts)]
            + [[d, "export"] for d in deacts],
        },
        "programmed": {"type": "programmed", "successors": successors},
        "conditional": {
            "type": "conditional",
            "prohibited": {
                "export": [f"2 {_site_agent(n, [0] * n, 'cell')}"],
                first_acts[0]: [_site_agent(n, [k - 1] * n, "out")],
            },
        },
        "concurrent-free": {
            "type": "concurrent-free",
            "priority": [[first_acts[j], deacts[(j + 1) % n]] for j in range(n)],
        },
    }


# ---------------------------------------------------------------------------
# Random corpus
# ---------------------------------------------------------------------------

_FEATURES = {"A": ["p", "q"], "B": ["p", "q"], "C": ["q", "r"]}
_POOLS = {"X": ["A", "B"], "Y": ["B", "C"]}
_COMPARTMENTS = ["c", "d"]


def _component(rng: random.Random, full: bool) -> str:
    if rng.random() < 0.35:
        name = rng.choice(sorted(_FEATURES))
        return f"{name}{{{rng.choice(_FEATURES[name])}}}"
    struct = rng.choice(sorted(_POOLS))
    members = [a for a in _POOLS[struct] if full or rng.random() < 0.6]
    return f"{struct}({','.join(f'{a}{{{rng.choice(_FEATURES[a])}}}' for a in members)})"


def _agent(rng: random.Random, full: bool) -> str:
    chain = ".".join(_component(rng, full) for _ in range(1 if rng.random() < 0.7 else 2))
    return f"{chain}::{rng.choice(_COMPARTMENTS)}"


def _side(rng: random.Random) -> str:
    return " + ".join(_agent(rng, full=False) for _ in range(rng.choice([0, 1, 1, 1, 2])))


def corpus_models(count: int) -> list[str]:
    rng = random.Random(CORPUS_SEED)
    models = []
    for _ in range(count):
        lines = ["#! rules"]
        for i in range(rng.randint(1, 4)):
            lines.append(f"r{i} ~ {_side(rng)} => {_side(rng)}")
        lines.append("#! inits")
        for _ in range(rng.randint(1, 3)):
            lines.append(f"{rng.randint(1, 2)} {_agent(rng, full=True)}")
        models.append("\n".join(lines) + "\n")
    return models


# ---------------------------------------------------------------------------
# Seeded surface rewriting
# ---------------------------------------------------------------------------


def _split_count(rng: random.Random, count: int) -> list[int]:
    parts = []
    while count > 0:
        part = rng.randint(1, count)
        parts.append(part)
        count -= part
    return parts


def _respace(rng: random.Random, line: str) -> str:
    for token in ("~", "=>", "+"):
        line = line.replace(f" {token} ", rng.choice([f" {token} ", f"{token}", f"  {token} "]))
    if rng.random() < 0.5:
        line = line.replace("=>", "->")
    return rng.choice(["", " ", "\t"]) + line


def scramble_model(text: str, rng: random.Random) -> str:
    """Same model, seeded surface: order, counts, arrows, spacing, comments."""
    rules: list[str] = []
    inits: list[str] = []
    section = None
    for line in text.splitlines():
        if line.startswith("#!"):
            section = line
        elif section == "#! rules":
            rules.append(line)
        else:
            count, agent = line.split(" ", 1)
            inits.extend(f"{part} {agent}" for part in _split_count(rng, int(count)))
    rng.shuffle(rules)
    rng.shuffle(inits)
    out = [f"// generated, surface seed {rng.random():.6f}", "#! rules"]
    for line in rules:
        out.append(_respace(rng, line))
        if rng.random() < 0.2:
            out.append(rng.choice(["", "// rule", "   "]))
    out.append("#!  inits")
    for line in inits:
        out.append(_respace(rng, line) + rng.choice(["", "  // init"]))
    return "\n".join(out) + "\n"


def scramble_config(config: dict, rng: random.Random) -> str:
    """Same regulation, seeded JSON layout and list order."""
    shuffled: dict = {}
    for key in rng.sample(list(config), len(config)):
        value = config[key]
        if key in ("pairs", "priority"):
            value = rng.sample(value, len(value))
        elif key in ("successors", "prohibited"):
            value = {
                label: rng.sample(value[label], len(value[label]))
                for label in rng.sample(list(value), len(value))
            }
        elif key == "expression":
            for operator in ("|", "."):
                value = value.replace(operator, rng.choice([operator, f" {operator} "]))
        shuffled[key] = value
    return json.dumps(shuffled, indent=rng.choice([None, 1, 2, 4])) + "\n"
