"""Every module-level import in ``src/bcsl`` is used, or kept on purpose.

No linter runs on this repository, so this stands in for pyflakes' F401
on the package modules.  ``__init__.py`` only re-exports, so it is left
out.  An import that its module never reads is allowed only on a
``# noqa: F401`` line under a comment that names ``bench/tracer.py``,
which rebinds module names to time them.

The records take ``_Record``'s one constructor; only the classes built
by the thousand write their own ``__init__``.

Every ``bcsl`` call starts a process, so the package also keeps out of
its import what costs start-up time and nothing needs: ``dataclasses``,
which loads ``inspect`` and ``ast`` and runs generated code for each
decorated class.
"""

import ast
import os
import subprocess
import sys
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


def _dataclass_uses(source: str) -> list[str]:
    """The ``dataclasses`` imports and ``dataclass`` decorators of a module, as text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            found += [ast.unparse(d) for d in node.decorator_list if "dataclass" in ast.unparse(d)]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.append(node.module)
    return found


def test_no_module_uses_dataclasses():
    for path in sorted(PACKAGE.glob("*.py")):
        assert not _dataclass_uses(path.read_text(encoding="utf-8")), path.name
    caught = "import dataclasses\n@dataclasses.dataclass(frozen=True)\nclass A:\n    x: int\n"
    assert _dataclass_uses(caught) == ["dataclasses", "dataclasses.dataclass(frozen=True)"]
    assert _dataclass_uses("from dataclasses import dataclass as d\n") == ["dataclasses"]


def test_importing_the_cli_loads_no_dataclasses():
    probe = "import sys, bcsl.cli; sys.exit('dataclasses' in sys.modules)"
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr


# The records built by the thousand, whose hand-written ``__init__`` is
# faster than ``_Record``'s generic one.
OWN_INIT = {"Atomic", "Structure", "Agent", "Pattern", "BcslRule", "MrsRule"}


def _defines_init(node: ast.ClassDef) -> bool:
    return any(isinstance(s, ast.FunctionDef) and s.name == "__init__" for s in node.body)


def record_classes(sources: list[str]) -> dict[str, bool]:
    """Each ``_Record`` subclass, direct or not, and whether it defines ``__init__``."""
    classes = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
    bases = {name: {ast.unparse(b) for b in node.bases} for name, node in classes.items()}
    records, grown = {"_Record"}, True
    while grown:
        found = {name for name in classes if bases[name] & records}
        grown, records = not found <= records, records | found
    return {name: _defines_init(classes[name]) for name in records - {"_Record"}}


def test_only_the_records_built_by_the_thousand_write_an_init():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    records = record_classes(sources)
    assert {"Lts", "Mrs", "ConformanceReport", "ConcurrentFreeRegulation"} <= records.keys()
    assert {name for name, own_init in records.items() if own_init} == OWN_INIT
    caught = (
        "class _Record:\n    def __init__(self): pass\n"
        "class _Base(_Record): pass\n"
        "class Leaf(_Base):\n    def __init__(self): pass\n"
        "class Other:\n    def __init__(self): pass\n"
    )
    assert record_classes([caught]) == {"_Base": False, "Leaf": True}
