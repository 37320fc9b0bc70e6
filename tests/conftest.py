"""Ends every test run with numpy's version and the SIMD kernels it chose.

The byte-pinned references (the two sweep CSVs and the pinned report bits)
hold for one dispatch of numpy's float64 exp, log, log2 and log1p: its
AVX-512 (X86_V4) kernels.  Its AVX2 and baseline kernels differ in the last
bits, so a failing byte check should be read against this line.  The
summary is printed under -q too, which hides the session header.
"""

_PINNED_UFUNCS = ("exp", "log", "log2", "log1p")


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


def pytest_terminal_summary(terminalreporter):
    import numpy as np

    terminalreporter.write_line(f"numpy {np.__version__}, float64 dispatch: {_float64_dispatch()}")
