"""phasefree benchmark: one workload per run, every sample in a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run it from the root of a source checkout; the package is imported from
./src.  Workloads (closed loop, one caller, one process per sample):

    sweep-default  `phasefree sweep` on the default 60-point grid, 1 thread, CSV + SVG
    sweep-strong   `phasefree sweep` on 8 seeded strong-squeezing points, 2 threads, CSV
    outcome-api    library loop over 96 seeded points: outcome table, both
                   approximant fidelities, encode_pair + entropy on a block of outcomes

With --trace 0 the last stdout line carries the end-to-end metrics, medians
over the samples; with --trace 1 it carries the per-layer metrics of
traced samples, interleaved with untraced ones to give trace.overhead_s,
and the spans of the last traced sample are kept in .bench_out/.
Outputs are checked after each sample, outside the timed region.  Lines
before the last describe the environment and each metric for a reader.
--smoke runs every workload on tiny inputs in both modes, checks that every
metric named in BENCHMARK.json is emitted with its unit, checks that an
injected failure is counted, and checks that the default-sweep CSV check
rejects a perturbed CSV.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 15
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 150.0


class Context:
    """Per-run scratch directory and sample numbering."""

    def __init__(self, workload: str):
        self.dir = OUT / f"{workload}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def sample_dir(self) -> Path:
        self.count += 1
        path = self.dir / str(self.count)
        path.mkdir()
        return path


def _spawn(command, sample_dir: Path) -> tuple[float, resource.struct_rusage, int, str]:
    """Start command(spawn_time) with ./src importable and wait for it.
    Returns (wall seconds, rusage of that child, exit code, its output)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    log = sample_dir / "output.txt"
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(command(start), stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return wall, usage, code, log.read_text(encoding="utf-8", errors="replace")


def _last_json(output: str) -> dict | None:
    for line in reversed(output.splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def _child(*args: str):
    return lambda spawn: [sys.executable, str(HERE / "child.py"), args[0], repr(spawn), *args[1:]]


def _failure(code: int, output: str) -> list[str]:
    return [f"exit code {code}: " + " | ".join(output.strip().splitlines()[-3:])]


class Sweep:
    """`phasefree sweep ARGS` as a user runs it; traced samples run the same
    argv through cli.main inside child.py with the tracer installed."""

    def __init__(self, args: list[str], check, svg: bool):
        self.args, self.check, self.svg = args, check, svg

    def sample(self, ctx: Context, traced: bool) -> dict:
        d = ctx.sample_dir()
        csv_path, svg_path, spans = d / "sweep.csv", d / "sweep.svg", d / "spans.json"
        argv = ["sweep", *self.args, "--csv", str(csv_path)] + (["--svg", str(svg_path)] if self.svg else [])
        if traced:
            command = _child("cli", str(spans), "--", *argv)
        else:
            command = lambda spawn: [sys.executable, "-m", "phasefree", *argv]  # noqa: E731
        wall, usage, code, output = _spawn(command, d)
        sample = {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mib": usage.ru_maxrss / 1024.0,
            "errors": _failure(code, output) if code else [],
        }
        if not code:
            try:
                csv_text = csv_path.read_text(encoding="ascii")
                svg_text = svg_path.read_text(encoding="ascii") if self.svg else ""
            except OSError as exc:
                sample["errors"].append(f"missing output: {exc}")
            else:
                try:
                    sample["errors"] += self.check(csv_text, svg_text)
                except (ValueError, KeyError, TypeError) as exc:
                    sample["errors"].append(f"malformed output: {exc!r}")
                sample["output_bytes"] = len(csv_text) + len(svg_text)
        if traced:
            _take_layers(sample, _last_json(output), spans)
        return sample


class OutcomeApi:
    """The outcome-API library loop in child.py; the child times only the
    calls (import included) and checks each point after its timed block."""

    def __init__(self, seed: int, points: int, fault: bool):
        self.seed, self.points, self.fault = seed, points, fault

    def sample(self, ctx: Context, traced: bool) -> dict:
        d = ctx.sample_dir()
        spans = d / "spans.json"
        extra = (["--trace", str(spans)] if traced else []) + (["--fault"] if self.fault else [])
        wall, usage, code, output = _spawn(_child("api", str(self.seed), str(self.points), *extra), d)
        record = _last_json(output)
        if code or record is None or "errors" not in record:
            return {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mib": usage.ru_maxrss / 1024.0,
                "errors": _failure(code, output),
            }
        sample = {
            "wall_s": record["wall_s"],
            "cpu_s": record["cpu_s"],
            "peak_rss_mib": record["maxrss_kib"] / 1024.0,
            "errors": record["errors"],
            "output_bytes": 0,
        }
        if traced:
            _take_layers(sample, record, spans)
        return sample


def _take_layers(sample: dict, record: dict | None, spans: Path) -> None:
    if record is None or "layers" not in record:
        sample["errors"].append("traced sample reported no layer metrics")
        return
    sample["layers"], sample["absent"], sample["spans_path"] = record["layers"], record["absent"], str(spans)


def make_workload(name: str, seed: int, smoke: bool = False, fault: bool = False):
    if name == "sweep-default":
        args = list(workloads.SWEEP_DEFAULT_ARGS)
        points = None
        if smoke:
            args += ["--etas", "0.1,0.5", "--betas", "1,2"]
            points = [(eta, beta) for eta in ("0.1", "0.5") for beta in ("1", "2")]
        if fault:
            args += ["--epsilon-tail", "2"]
        return Sweep(args, lambda csv_text, svg_text: workloads.check_sweep_default(csv_text, svg_text, points), svg=True)
    if name == "sweep-strong":
        etas, betas = (["0.88", "0.9"], ["2.0"]) if smoke else workloads.sweep_strong_grid(seed)
        args = ["--threads", str(workloads.STRONG_THREADS), "--etas", ",".join(etas), "--betas", ",".join(betas)]
        if fault:
            args += ["--threads", "0"]
        check_seed = None if smoke else seed
        return Sweep(args, lambda csv_text, _: workloads.check_sweep_strong(csv_text, etas, betas, check_seed), svg=False)
    if name == "outcome-api":
        return OutcomeApi(seed, 3 if smoke else workloads.API_POINTS, fault)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# environment and set-up time
# ---------------------------------------------------------------------------


def _commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),  # no repository above ROOT
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "phasefree").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def probe(ctx: Context) -> dict:
    """Time `import phasefree` in a fresh process.  Exits without a result
    if the package cannot be imported."""
    _, _, code, output = _spawn(_child("probe"), ctx.sample_dir())
    record = _last_json(output)
    if code or record is None:
        sys.exit(f"bench: cannot import phasefree from {SRC}: {output.strip()[-500:]}")
    return record


def environment(first_probe: dict) -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": first_probe["numpy"],
        "blas": first_probe["blas"],
        "blas_threads": first_probe["blas_threads"],
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _summary(name: str, values: list[float], unit: str) -> str:
    return f"  {name:30s} {statistics.median(values):.6g} {unit}  (median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})"


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, fault: bool = False) -> dict:
    workload = make_workload(name, seed, smoke, fault)
    ctx = Context(name)
    try:
        env = environment(probe(ctx))  # untimed warm-up; also compiles bytecode
        min_samples = 1 if smoke else MIN_SAMPLES
        setup: list[float] = []
        plain: list[dict] = []
        traced: list[dict] = []
        deadline = time.perf_counter() + seconds
        while len(plain) < min_samples or (trace and len(traced) < min_samples) or time.perf_counter() < deadline:
            # set-up probes interleave with samples so both see the same machine state
            setup.append(probe(ctx)["setup_s"])
            use_trace = trace and len(traced) < len(plain)
            (traced if use_trace else plain).append(workload.sample(ctx, use_trace))
        while len(setup) < (1 if smoke else SETUP_PROBES):
            setup.append(probe(ctx)["setup_s"])
        samples = plain + traced
        attempted = len(samples)
        failed = sum(1 for s in samples if s["errors"])
        lines = [f"bench-env {json.dumps(env, sort_keys=True)}", f"{name} seed={seed} trace={int(trace)}"]
        errors = [error for s in samples for error in s["errors"]]
        lines += [f"  FAILED: {error}" for error in errors[:10]]
        if len(errors) > 10:
            lines.append(f"  ... and {len(errors) - 10} more failures")

        if trace:
            metrics, absent, mismatched = _layer_metrics(plain, traced)
            if mismatched:
                attempted += 1
                failed += 1
                lines.append(f"  FAILED: exact counts differ between traced samples: {', '.join(mismatched)}")
            for metric, entry in metrics.items():
                lines.append(f"  {metric:30s} {entry['value']:.6g} {entry['unit']}" + ("  (absent)" if metric in absent else ""))
        else:
            walls = [s["wall_s"] for s in plain]
            cpus = [s["cpu_s"] for s in plain]
            rss = [s["peak_rss_mib"] for s in plain]
            metrics = {
                "wall_s": _metric(statistics.median(walls), "s"),
                "cpu_s": _metric(statistics.median(cpus), "s"),
                "setup_s": _metric(statistics.median(setup), "s"),
                "peak_rss_mib": _metric(statistics.median(rss), "MiB"),
                "ok_frac": _metric(1.0 - failed / attempted, "ratio"),
            }
            lines += [
                _summary("wall_s", walls, "s"),
                _summary("cpu_s", cpus, "s"),
                _summary("setup_s", setup, "s"),
                _summary("peak_rss_mib", rss, "MiB"),
            ]
        lines.append(f"  {'failed_frac':30s} {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
        spans = [Path(s["spans_path"]) for s in traced if "spans_path" in s]
        if spans:
            kept = OUT / f"{name}-spans.json"
            shutil.copyfile(spans[-1], kept)
            lines.append(f"  spans of the last traced sample: {kept.relative_to(ROOT)}")
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        return {"lines": lines, "result": result}
    finally:
        shutil.rmtree(ctx.dir, ignore_errors=True)
        if OUT.exists() and not any(OUT.iterdir()):
            OUT.rmdir()


def _layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Medians over traced samples; exact counts must agree across them."""
    ok = [s for s in traced if "layers" in s]
    absent = sorted({m for s in ok for m in s["absent"]})
    mismatched = []
    metrics = {}
    for metric, (unit, _) in tracing.LAYER_METRICS.items():
        values = [s["layers"][metric] for s in ok] or [0]
        if metric in tracing.EXACT_COUNTS and len(set(values)) > 1:
            mismatched.append(metric)
        metrics[metric] = _metric(statistics.median(values), unit)
    output_bytes = [s.get("output_bytes", 0) for s in traced] or [0]
    if len(set(output_bytes)) > 1:
        mismatched.append("cli.output_bytes")
    metrics["cli.output_bytes"] = _metric(statistics.median(output_bytes), "bytes")
    metrics["trace.overhead_s"] = _metric(
        statistics.median(s["wall_s"] for s in traced) - statistics.median(s["wall_s"] for s in plain), "s"
    )
    return metrics, absent, mismatched


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(problems)
        for trace in (False, True):
            out = run(workload, 0, 0.0, trace, smoke=True)
            result = out["result"]
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace={int(trace)}: metrics {got} != {wanted[trace]}")
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: failed on tiny inputs: {out['lines']}")
        faulty = run(workload, 0, 0.0, False, smoke=True, fault=True)["result"]
        if faulty["failed"] < 1 or faulty["metrics"]["ok_frac"]["value"] >= 1.0 or faulty["correct"]:
            problems.append(f"{workload}: an injected failure was not counted: {faulty}")
        print(f"smoke {workload}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    problems += _check_self_test()
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _check_self_test() -> list[str]:
    """The default-sweep check passes the reference CSV and rejects a
    dropped row, a repeated row and one changed digit."""
    reference = (workloads.REFERENCE / "sweep_default.csv").read_text(encoding="ascii")
    svg = "<polyline" * 5
    lines = reference.split("\n")
    changed = lines[7].split(",")
    changed[3] = changed[3][:-1] + ("1" if changed[3][-1] != "1" else "2")
    perturbed = {
        "dropped row": "\n".join(lines[:7] + lines[8:]),
        "repeated row": "\n".join(lines[:8] + lines[7:]),
        "changed digit": "\n".join(lines[:7] + [",".join(changed)] + lines[8:]),
    }
    problems = []
    if workloads.check_sweep_default(reference, svg):
        problems.append("the default-sweep check rejects the reference CSV")
    for what, text in perturbed.items():
        if not workloads.check_sweep_default(text, svg):
            problems.append(f"the default-sweep check accepts a CSV with a {what}")
    print(f"smoke sweep-default check: {'FAILED' if problems else 'ok'}", flush=True)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep-default", "sweep-strong", "outcome-api"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test on tiny inputs")
    args = parser.parse_args(argv)

    if not (SRC / "phasefree" / "__init__.py").is_file():
        print(f"bench: no phasefree package under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
