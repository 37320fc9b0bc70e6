"""Package surface: the public names exported from phasefree, the
README's library example and CLI block, the runtime dependencies, the
BLAS-free kernels that let the CLI load numpy with one OpenBLAS thread,
the oracle's independence from the kernels it checks, and the code-line
count every test run ends with."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import phasefree
from conftest import code_lines

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(phasefree.__file__).resolve().parent


def _fresh_python(code: str) -> str:
    """stdout of code run in a new interpreter that imports this checkout."""
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout


def test_every_export_resolves_once():
    """A name left in __all__ after its definition is deleted fails here."""
    missing = [name for name in phasefree.__all__ if not hasattr(phasefree, name)]
    assert missing == []
    assert len(set(phasefree.__all__)) == len(phasefree.__all__)


def test_import_loads_no_submodule_and_not_numpy():
    """The root resolves names on first use, so `python -m phasefree` can
    reach cli.py before numpy loads."""
    loaded = _fresh_python("import sys, phasefree\nprint(sorted(m for m in sys.modules if m.startswith(('numpy', 'phasefree'))))")
    assert ast.literal_eval(loaded) == ["phasefree"]


def test_names_and_submodules_resolve_in_a_fresh_process():
    """Right after `import phasefree`, dir() lists every public name, each
    one and each submodule the eager root used to import resolves as an
    attribute, and an unknown name raises an AttributeError naming it."""
    code = (
        "import phasefree\n"
        "names = phasefree.__all__ + ['__version__', 'encoding', 'entanglement', 'numerics']\n"
        "print(sorted(set(names) - set(dir(phasefree))))\n"
        "print(sorted(n for n in names if not hasattr(phasefree, n)))\n"
        "print(phasefree.encoding.encode_pair is phasefree.encode_pair, phasefree.numerics.LOG_ZERO == phasefree.LOG_ZERO)\n"
        "try:\n"
        "    phasefree.not_a_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert _fresh_python(code).splitlines() == ["[]", "[]", "True True", "module 'phasefree' has no attribute 'not_a_name'"]


def test_readme_library_example_runs(capsys):
    """The python block under "## Library example" runs as written."""
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("0.7219")


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Every `phasefree ...` line of the sh block under "## CLI" exits 0
    when run through cli.main, and writes each --csv and --svg file it
    names."""
    from phasefree import cli

    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("phasefree ")]
    assert len(lines) == 5
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert cli.main(argv) == 0, (line, capsys.readouterr().err)
        named = [argv[i + 1] for i, flag in enumerate(argv) if flag in ("--csv", "--svg")]
        assert all((tmp_path / name).is_file() for name in named), line


def test_cli_imports_no_third_party_module_but_numpy():
    """pyproject.toml names numpy as the one runtime dependency, so importing
    the package, CLI included, adds no other module from outside the
    standard library: an import of scipy or mpmath, when installed, passes
    every other test and breaks a plain install.  The modules are compared
    before and after the import, as site hooks may load some first."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import phasefree.cli, phasefree.oracle, phasefree.svgplot\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names)))\n"
    )
    assert ast.literal_eval(_fresh_python(code)) == ["numpy", "phasefree"]


# The calls that numpy hands to BLAS: the @ operator, these functions or
# methods, anything under numpy.linalg, and einsum with an optimize path.
_BLAS_FUNCTIONS = {"dot", "matmul", "inner", "vdot", "tensordot"}
# oracle.py, the dense SVD check, is the one module allowed to call BLAS.
_BLAS_EXEMPT = "oracle.py"


def _blas_calls(source: str) -> list[str]:
    """`line: form` of each BLAS-dispatching expression in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(f"{node.lineno}: linalg")
        elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "").split("."):
            found.append(f"{node.lineno}: import from {node.module}")
        elif isinstance(node, ast.alias) and node.name.rpartition(".")[2] in {*_BLAS_FUNCTIONS, "linalg"}:
            found.append(f"{node.lineno}: import {node.name}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _BLAS_FUNCTIONS:
                found.append(f"{node.lineno}: {name}")
            elif name == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                found.append(f"{node.lineno}: einsum(optimize=...)")
    return found


def test_only_the_oracle_calls_blas():
    """cli.py loads numpy with one OpenBLAS thread because no module but
    oracle.py, which the CLI runs for point --oracle alone, calls BLAS.  A
    kernel that adds such a call elsewhere must revisit that default."""
    found = {path.name: _blas_calls(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert {"encoding.py", "entanglement.py", "numerics.py", "cli.py", "svgplot.py"} <= set(found)
    assert found.pop(_BLAS_EXEMPT), f"{_BLAS_EXEMPT} no longer calls BLAS: drop its exemption"
    assert {name: calls for name, calls in found.items() if calls} == {}


@pytest.mark.parametrize(
    "source",
    [
        "a @ b",
        "a @= b",
        "np.dot(a, b)",
        "a.dot(b)",
        "np.matmul(a, b)",
        "np.inner(a, b)",
        "np.vdot(a, b)",
        "np.tensordot(a, b)",
        "np.linalg.norm(a)",
        "from numpy import linalg",
        "from numpy.linalg import svd",
        "import numpy.linalg",
        "from numpy import dot",
        "np.einsum('ij,jk', a, b, optimize=True)",
    ],
)
def test_blas_detector_flags_each_form(source):
    assert _blas_calls(source) != []


def test_blas_detector_passes_numpy_loops():
    assert _blas_calls("np.einsum('kn,ln->kl', g, g)\nnp.outer(a, b)\na * b\nnp.sum(a, axis=0)") == []


def _package_imports(source: str) -> list[str]:
    """`module.name` of each name that source imports from the package,
    relative imports written with their leading dots."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.partition(".")[0] == "phasefree":
                found += [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.partition(".")[0] == "phasefree"]
    return found


# The one kind of name oracle.py may import from the package: an input rule.
_ORACLE_MAY_IMPORT = (".numerics._require_", "phasefree.numerics._require_")


def test_the_oracle_shares_only_the_input_rules():
    """oracle.py cross-checks the closed-form path, so it must not compute
    with that path's kernels: from the package it imports only the
    _require_* rules of numerics."""
    imports = _package_imports((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    assert [name for name in imports if not name.startswith(_ORACLE_MAY_IMPORT)] == []


@pytest.mark.parametrize(
    "source,allowed",
    [
        ("from .numerics import _require_eta, _require_outcome", True),
        ("from phasefree.numerics import _require_amplitude", True),
        ("import numpy as np\nfrom math import sqrt", True),
        ("from .numerics import log_factorial", False),
        ("from .encoding import encode_pair", False),
        ("from . import numerics", False),
        ("from .numerics import *", False),
        ("import phasefree.numerics", False),
        ("from phasefree import entanglement", False),
    ],
)
def test_oracle_import_check_flags_each_form(source, allowed):
    assert all(name.startswith(_ORACLE_MAY_IMPORT) for name in _package_imports(source)) is allowed


def test_code_line_count_skips_docstrings_comments_and_blank_lines():
    """The summary's count: a statement over two lines counts twice, a
    string that is not a docstring counts, the rest does not."""
    source = (
        '"""Module docstring\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "x = (1 +\n"
        "     2)\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function docstring."""\n'
        '        return "not a docstring"  # trailing comment\n'
    )
    assert code_lines(source) == 5
