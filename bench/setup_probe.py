"""Time the set-up of the bcsl CLI for a workload, in a fresh process.

Usage: ``python3 setup_probe.py SRC MANIFEST ROUNDS``.  Each MANIFEST line
is a model file, optionally followed by regulation config files, separated
by tabs.  Prints one JSON object: ``import_s``, the seconds taken by
``import bcsl.cli``, and ``rounds``, the seconds of each of ROUNDS rounds
of ``parse_model`` and ``RuleMatcher(model)`` for every model, and
``compile_regulation`` plus ``make_guard`` for every config, and
``host``, the seconds of ``HOST_ROUNDS`` rounds of ``hostspeed`` work
taken after them in the same process.
"""

import json
import sys
from time import perf_counter

import hostspeed

HOST_ROUNDS = 3


def main() -> None:
    src, manifest, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
    entries = []
    with open(manifest, encoding="utf-8") as listing:
        for line in listing.read().splitlines():
            texts = []
            for path in line.split("\t"):
                with open(path, encoding="utf-8") as handle:
                    texts.append(handle.read())
            entries.append(texts)
    sys.path.insert(0, src)
    start = perf_counter()
    import bcsl.cli  # noqa: F401  (every CLI call imports it)
    from bcsl import RuleMatcher, compile_regulation, make_guard, parse_model

    import_s = perf_counter() - start
    times = []
    for _ in range(rounds):
        start = perf_counter()
        for model_text, *configs in entries:
            model = parse_model(model_text)
            RuleMatcher(model)
            for config in configs:
                make_guard(compile_regulation(json.loads(config), model.labels), model)
        times.append(perf_counter() - start)
    host = [hostspeed.round_s() for _ in range(HOST_ROUNDS)]
    print(json.dumps({"import_s": import_s, "rounds": times, "host": host}))


if __name__ == "__main__":
    main()
