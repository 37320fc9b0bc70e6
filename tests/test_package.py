"""Package surface: the public names exported from phasefree, the
README's library example, and the runtime dependencies."""

import ast
import os
import re
import subprocess
import sys
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


def test_cli_imports_no_third_party_module_but_numpy():
    """pyproject.toml names numpy as the one runtime dependency, so importing
    the package, CLI included, adds no other module from outside the
    standard library: an import of scipy or mpmath, when installed, passes
    every other test and breaks a plain install.  The modules are compared
    before and after the import, as site hooks may load some first."""
    src = str(Path(phasefree.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import phasefree.cli\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names)))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert ast.literal_eval(result.stdout) == ["numpy", "phasefree"]
