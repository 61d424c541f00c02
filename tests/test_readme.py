import re
from pathlib import Path

from conftest import TWO_SITE_MODEL

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs_as_written(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    (tmp_path / "model.bcsl").write_text(TWO_SITE_MODEL, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(block, "README.md, ## Library", "exec"), scope)
    assert scope["report"].passed
    assert len(scope["run"].labels) == 10
