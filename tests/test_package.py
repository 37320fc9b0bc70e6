"""Package surface: the public names exported from phasefree, and the
README's library example."""

import re
from pathlib import Path

import phasefree

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_once():
    """A name left in __all__ after its definition is deleted fails here."""
    missing = [name for name in phasefree.__all__ if not hasattr(phasefree, name)]
    assert missing == []
    assert len(set(phasefree.__all__)) == len(phasefree.__all__)


def test_readme_library_example_runs(capsys):
    """The python block under "## Library example" runs as written."""
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("0.7219")
