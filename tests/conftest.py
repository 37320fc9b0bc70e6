"""Ends every test run with numpy's version, the SIMD kernels it chose and
the package's code-line count.

The byte-pinned references (the two sweep CSVs and the pinned report bits)
hold for one dispatch of numpy's float64 exp, log, log2 and log1p: its
AVX-512 (X86_V4) kernels.  Its AVX2 and baseline kernels differ in the last
bits, so a failing byte check should be read against this line.  The
summary is printed under -q too, which hides the session header.
"""

import ast
import io
import os
import tokenize
from pathlib import Path

_PINNED_UFUNCS = ("exp", "log", "log2", "log1p")

# The float64 dispatches (_float64_dispatch) that byte pins are kept for:
# numpy's AVX-512 kernels, and its AVX2 kernels, which
# NPY_DISABLE_CPU_FEATURES set to _AVX2_MASK leaves on an AVX-512 host.
_X86_V4 = "exp X86_V4, log X86_V4, log2 X86_V4, log1p X86_V4"
_X86_V3 = "exp X86_V3, log X86_V3, log2 baseline(X86_V2), log1p baseline(X86_V2)"
_AVX2_MASK = ("AVX512_SPR", "AVX512_ICL", "X86_V4")

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "phasefree"

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _float64_dispatch() -> str:
    """'exp X86_V4, log X86_V4, ...': the float64 kernel numpy runs for
    each pinned ufunc, or 'unknown' where numpy (before 2.0) cannot say."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return "unknown"
    info = opt_func_info(func_name=f"^({'|'.join(_PINNED_UFUNCS)})$", signature="float64")
    targets = (next(iter(info[name].values()))["current"] if info.get(name) else "unknown" for name in _PINNED_UFUNCS)
    return ", ".join(f"{name} {target}" for name, target in zip(_PINNED_UFUNCS, targets))


def _avx2_child_env() -> dict:
    """The environment of a child process whose numpy runs with the features
    of _AVX2_MASK that the host supports turned off, and with the package
    and the tests on its path."""
    import numpy as np

    cpu = np._core._multiarray_umath
    mask = [name for name in _AVX2_MASK if cpu.__cpu_features__.get(name) and name in cpu.__cpu_dispatch__]
    path = [str(_PACKAGE.parent), str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(mask), "PYTHONPATH": os.pathsep.join(filter(None, path))}


def code_lines(source: str) -> int:
    """The lines that hold a token other than a comment, a line break, an
    indent or the end marker, less the lines of every module, class and
    function docstring: blank lines, comments and docstrings do not count,
    and a statement counts every line it spans."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def pytest_terminal_summary(terminalreporter):
    import numpy as np

    counts = {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in sorted(_PACKAGE.glob("*.py"))}
    per_module = ", ".join(f"{name} {count}" for name, count in counts.items())
    terminalreporter.write_line(f"numpy {np.__version__}, float64 dispatch: {_float64_dispatch()}")
    terminalreporter.write_line(f"src/phasefree: {sum(counts.values())} code lines ({per_module})")
