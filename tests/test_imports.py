"""Every module-level import in ``src/bcsl`` is used, or kept on purpose.

No linter runs on this repository, so this stands in for pyflakes' F401
on the package modules.  ``__init__.py`` only re-exports, so it is left
out.  An import that its module never reads is allowed only on a
``# noqa: F401`` line under a comment that names ``bench/tracer.py``,
which rebinds module names to time them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bcsl"
TRACER = "bench/tracer.py"
NOQA = "# noqa: F401"

# What the modules keep for the tracer alone.
KEPT_FOR_TRACER = {
    "cli.py": {"RuleMatcher"},
    "regulation.py": {"build_mrs", "explore", "unroll"},
}


def _names_read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _under_tracer_comment(lines: list[str], lineno: int) -> bool:
    """Whether the comment above line ``lineno``, past other noqa lines, names the tracer."""
    i = lineno - 2
    while i >= 0 and lines[i].rstrip().endswith(NOQA):
        i -= 1
    comment = []
    while i >= 0 and lines[i].lstrip().startswith("#"):
        comment.append(lines[i])
        i -= 1
    return TRACER in "".join(comment)


def unused_imports(source: str) -> tuple[set[str], set[str]]:
    """The unused imported names of a module: (kept for the tracer, stray)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = _names_read(tree)
    kept, stray = set(), set()
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name in read:
                continue
            line = lines[alias.lineno - 1]
            marked = line.rstrip().endswith(NOQA) and _under_tracer_comment(lines, node.lineno)
            (kept if marked else stray).add(name)
    return kept, stray


def test_every_import_is_used_or_kept_for_the_tracer():
    kept = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tracer_names, stray = unused_imports(path.read_text(encoding="utf-8"))
        assert not stray, (path.name, sorted(stray))
        if tracer_names:
            kept[path.name] = tracer_names
    assert kept == KEPT_FOR_TRACER


def test_a_stray_import_is_caught():
    source = (
        "import os\n"
        "import sys\n"
        "# ``bench/tracer.py`` rebinds ``Path`` here.\n"
        "from pathlib import Path  # noqa: F401\n"
        "from json import dumps  # noqa: F401\n"
        "print(sys.argv)\n"
    )
    assert unused_imports(source) == ({"Path", "dumps"}, {"os"})
    unmarked = "# Kept for no one.\nfrom pathlib import Path  # noqa: F401\n"
    assert unused_imports(unmarked) == (set(), {"Path"})
