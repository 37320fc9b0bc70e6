"""One benchmark sample in a fresh process; prints one JSON line.

    child.py probe <spawn_time>                       time `import phasefree`
    child.py cli <spawn_time> <spans.json> -- ARGS    traced `phasefree ARGS`
    child.py api <spawn_time> <seed> <points> [--trace <spans.json>] [--fault]

<spawn_time> is the parent's time.perf_counter() just before it started
this process; on Linux that clock is system-wide, so the child can report
times from process start.  The phasefree package must be importable (the
runner puts the checkout's src/ on PYTHONPATH).
"""

import json
import resource
import sys
import time


def _emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def _write_spans(path: str, tracer) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"absent": tracer.absent, "spans": [s.as_dict() for s in tracer.spans]}, fh)


def probe(spawn: float) -> int:
    import phasefree  # noqa: F401  (the import is what is timed)

    ready = time.perf_counter()
    import ctypes

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    _emit(
        {
            "setup_s": ready - spawn,
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(ctypes),
        }
    )
    return 0


def _blas_threads(ctypes):
    """Thread count OpenBLAS reports, read from the loaded library."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cli(spans_path: str, argv: list[str]) -> int:
    import phasefree.cli

    import tracer as tracing

    tracer = tracing.Tracer().install()
    code = phasefree.cli.main(argv)
    tracer.uninstall()
    values, absent = tracing.layer_metrics(tracer)
    _write_spans(spans_path, tracer)
    _emit({"layers": values, "absent": absent})
    return code


def api(spawn: float, seed: int, count: int, spans_path: str | None, fault: bool) -> int:
    from phasefree import encoding, entanglement, oracle

    ready = time.perf_counter()
    cpu_ready = time.process_time()

    import tracer as tracing
    import workloads

    points = workloads.outcome_api_points(seed, count)
    if fault:
        points[-1] = (points[-1][0], 0.0, points[-1][2])  # a vacuum ancilla is rejected
    tracer = tracing.Tracer().install() if spans_path else None
    timed = cpu = 0.0
    errors = []
    for i, (eta, beta, alpha) in enumerate(points):
        t0, c0 = time.perf_counter(), time.process_time()
        dist = encoding.pair_outcome_distribution(eta, beta)
        fid_pair = encoding.mean_pair_approx_fidelity(eta, beta)
        fid_coh = encoding.mean_coherent_approx_fidelity(alpha, beta)
        center = round(beta * beta)
        block = range(center - workloads.API_BLOCK, center + workloads.API_BLOCK + 1)
        states = [encoding.encode_pair(eta, beta, k, l) for k in block for l in block]
        for state in states:
            entanglement.entropy_of_entanglement(state)
        timed += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if tracer:
            tracer.enabled = False
        where = f"point {i} (eta={eta:.4g}, beta={beta:.4g})"
        errors += [f"{where}: {e}" for e in workloads.check_outcome_point(dist, fid_pair, fid_coh, states)]
        if tracer:
            tracer.enabled = True
        del dist
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {"wall_s": ready - spawn + timed, "cpu_s": cpu_ready + cpu, "maxrss_kib": maxrss_kib}
    if tracer:
        tracer.uninstall()
        record["layers"], record["absent"] = tracing.layer_metrics(tracer)
        _write_spans(spans_path, tracer)
    errors += workloads.check_oracle(*workloads.oracle_point(seed), encoding, entanglement, oracle)
    record["errors"] = errors
    _emit(record)
    return 0


def main(argv: list[str]) -> int:
    mode, spawn = argv[0], float(argv[1])
    if mode == "probe":
        return probe(spawn)
    if mode == "cli":
        return cli(argv[2], argv[argv.index("--") + 1 :])
    if mode == "api":
        spans = argv[argv.index("--trace") + 1] if "--trace" in argv else None
        return api(spawn, int(argv[2]), int(argv[3]), spans, "--fault" in argv)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
