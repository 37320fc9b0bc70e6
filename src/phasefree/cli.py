"""Command-line surface: entanglement-retention sweeps and single-point
drill-downs, with deterministic CSV output and an optional SVG chart."""

from __future__ import annotations

import os
import sys

# Only the dense SVD of point --oracle calls BLAS (tests/test_package.py
# pins that), yet a bundled OpenBLAS starts a worker per extra CPU when numpy
# loads, and each spins for about 0.1 s of CPU before it sleeps.  So the CLI
# process asks for one thread before numpy loads, unless the user set a
# count or numpy is already loaded (the CLI imported from a library process).
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# .encoding comes first: without cached bytecode it is compiled before its
# own `import numpy` runs, so the compiler's peak memory is not stacked on
# numpy's; importing argparse and numpy first raised peak RSS by about 1 MiB.
from .encoding import DEFAULT_EPSILON_TAIL, encode_pair  # noqa: E402
from .entanglement import _report_and_grid, entanglement_sweep, entropy_of_entanglement  # noqa: E402

import argparse  # noqa: E402
import math  # noqa: E402

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402

CSV_HEADER = "eta,beta,E_exact,E_avg,fraction_lost,residual,window_K,window_L"

_DEFAULT_ETAS = "0.1:0.5:0.1"
_DEFAULT_BETAS = "1:12:1"

# A range is expanded into a list, so its length is capped before expansion;
# a sweep lists every (eta, beta) pair, so the product of both is capped too.
MAX_GRID_POINTS = 10_000

# point --oracle compares the outcomes K, L <= _ORACLE_OUTCOMES.  Each
# component the projection keeps, (K - n, L - n, n, n), lies inside a dense
# state of that photon cutoff, so a larger cutoff changes no compared value.
_ORACLE_OUTCOMES = 6


def parse_grid(text: str) -> list[float]:
    """Parse a comma list ("0.1,0.2") or an inclusive range ("1:12:1"); an
    entry that is not a number is named, with the grid text, in the error."""
    text = text.strip()
    if not text:
        raise ValueError("empty grid argument")
    values = []
    for field in text.split(":" if ":" in text else ","):
        try:
            values.append(float(field))
        except ValueError:
            raise ValueError(f"grid entry {field!r} of {text!r} is not a number") from None
    if ":" in text:
        if len(values) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = values
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"range fields must be finite, got {text!r}")
        if step <= 0:
            raise ValueError(f"range step must be positive, got {step}")
        if stop < start:
            raise ValueError(f"range stop must be >= start, got {text!r}")
        steps = (stop - start) / step
        count = math.floor(steps + 1e-9) + 1 if math.isfinite(steps) else math.inf
        if count > MAX_GRID_POINTS:
            raise ValueError(f"range {text!r} has {count} points, more than the limit of {MAX_GRID_POINTS}")
        return [start + i * step for i in range(count)]
    return values


def _flag_grid(flag: str, text: str) -> list[float]:
    """parse_grid(text), with the flag that gave it named in any error."""
    try:
        return parse_grid(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _format(value: float) -> str:
    return f"{value:.12g}"


def _sweep_csv(reports) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            ",".join(
                [
                    _format(r.eta),
                    _format(r.beta_abs),
                    _format(r.E_exact),
                    _format(r.E_avg),
                    _format(r.fraction_lost),
                    _format(r.residual),
                    str(r.window),
                    str(r.window),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> int:
    etas = _flag_grid("--etas", args.etas)
    betas = _flag_grid("--betas", args.betas)
    points = len(etas) * len(betas)
    if points > MAX_GRID_POINTS:
        raise ValueError(f"the sweep has {points} (eta, beta) points, more than the limit of {MAX_GRID_POINTS}")
    reports = entanglement_sweep(etas, betas, args.epsilon_tail, max_workers=args.threads)

    with open(args.csv, "w", encoding="ascii") as fh:
        fh.write(_sweep_csv(reports))

    if args.svg is not None:
        series = []
        for i, eta in enumerate(etas):
            chunk = reports[i * len(betas) : (i + 1) * len(betas)]
            series.append((f"eta={eta:g}", [r.beta_abs for r in chunk], [r.fraction_lost for r in chunk]))
        svg_text = render_line_chart(
            series,
            title="Entanglement lost by phase-reference-free encoding",
            x_label="beta",
            y_label="fraction of entanglement lost",
        )
        with open(args.svg, "w", encoding="ascii") as fh:
            fh.write(svg_text)

    print(f"wrote {len(reports)} rows to {args.csv}")
    return 0


def _oracle_comparison(eta: float, beta: float, probs: np.ndarray) -> tuple[int, float, float, float]:
    """Max deviation between the dense projection path and the closed-form
    path, whose outcome probabilities P(K, L) are probs, over the small
    outcomes inside its window: (count, probability, Schmidt weight, ebits)."""
    from .oracle import (
        PAIR_GROUP_K,
        PAIR_GROUP_L,
        build_joint_pair,
        pair_schmidt_amplitudes,
        project_total_number,
        schmidt_entropy_dense,
    )

    outcomes = range(min(_ORACLE_OUTCOMES + 1, len(probs)))
    joint = build_joint_pair(eta, beta, 0.0, _ORACLE_OUTCOMES)
    compared = 0
    dev_p = dev_q = dev_e = 0.0
    for k in outcomes:
        p_k, after_k = project_total_number(joint, PAIR_GROUP_K, k)
        if after_k is None:
            continue
        for l in outcomes:
            p_l, after_l = project_total_number(after_k, PAIR_GROUP_L, l)
            if after_l is None:
                continue
            dense_p = p_k * p_l
            if dense_p < 1e-12:
                continue
            compared += 1
            dev_p = max(dev_p, abs(dense_p - probs[k, l]))
            dense_q = np.abs(pair_schmidt_amplitudes(after_l, k, l)) ** 2
            state = encode_pair(eta, beta, k, l)
            main_q = np.abs(state.schmidt_coeffs) ** 2
            dev_q = max(dev_q, float(np.max(np.abs(dense_q - main_q))))
            dense_e = schmidt_entropy_dense(after_l, (0, 2))
            dev_e = max(dev_e, abs(dense_e - entropy_of_entanglement(state)))
    return compared, dev_p, dev_q, dev_e


def render_line_chart(*args, **kwargs) -> str:
    """svgplot.render_line_chart, imported on the first call, as only --svg
    runs draw a chart; a module attribute, so a tracer can wrap it."""
    from .svgplot import render_line_chart

    return render_line_chart(*args, **kwargs)


def _most_probable(probabilities: np.ndarray, count: int) -> list[tuple[int, int]]:
    """The count most probable outcomes (K, L) of a 2-D probability grid,
    most probable first; ties broken by outcome index."""
    flat = probabilities.ravel()
    order = np.lexsort((np.arange(flat.size), -flat))[:count]
    return [divmod(int(i), probabilities.shape[1]) for i in order]


def run_point(args) -> int:
    report, probs = _report_and_grid(args.eta, args.beta, args.epsilon_tail)

    print(f"eta            {_format(report.eta)}")
    print(f"beta           {_format(report.beta_abs)}")
    print(f"E_exact        {_format(report.E_exact)}")
    print(f"E_avg          {_format(report.E_avg)}")
    print(f"fraction_lost  {_format(report.fraction_lost)}")
    print(f"residual       {_format(report.residual)}")
    print(f"residual_bound {_format(report.residual_bound)}")
    print(f"window         {report.window} x {report.window}")
    print("top contributions (K, L) -> probability, ebits:")
    for k, l in _most_probable(probs, 10):
        ebits = entropy_of_entanglement(encode_pair(report.eta, report.beta_abs, k, l))
        print(f"  ({k:4d},{l:4d})  {probs[k, l]:.12g}  {ebits:.12g}")

    if args.oracle:
        compared, dev_p, dev_q, dev_e = _oracle_comparison(args.eta, args.beta, probs)
        if compared == 0:
            print(f"oracle-vs-main: no outcome K, L <= {_ORACLE_OUTCOMES} has probability above 1e-12")
        else:
            print(
                f"oracle-vs-main max deviation over {compared} outcomes: "
                f"probability {dev_p:.3e}, schmidt weight {dev_q:.3e}, ebits {dev_e:.3e}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasefree",
        description=(
            "Phase-reference-free encoding of coherent and two-mode squeezed "
            "light: entanglement-retention sweeps and point analyses."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="grid sweep over (eta, beta); writes CSV and optional SVG")
    grid_help = "comma list or start:stop:step; write a leading minus with '=', as in --betas=-3:-1:1 (default %(default)s)"
    sweep.add_argument("--etas", default=_DEFAULT_ETAS, help=grid_help)
    sweep.add_argument("--betas", default=_DEFAULT_BETAS, help=grid_help)
    sweep.add_argument("--csv", required=True, help="output CSV path")
    sweep.add_argument("--svg", default=None, help="optional output SVG path")
    tail_help = "outcome-window tail budget (default %(default)s)"
    sweep.add_argument("--epsilon-tail", type=float, default=DEFAULT_EPSILON_TAIL, help=tail_help)
    sweep.add_argument("--threads", type=int, default=1, help="worker threads; output is identical for any value")
    sweep.set_defaults(func=_cmd_sweep)

    point = sub.add_parser("point", help="single (eta, beta) report with top outcome contributions")
    point.add_argument("--eta", type=float, required=True)
    point.add_argument("--beta", type=float, required=True)
    point.add_argument("--epsilon-tail", type=float, default=DEFAULT_EPSILON_TAIL, help=tail_help)
    point.add_argument("--oracle", action="store_true", help="append dense-projection cross-check deviations")
    point.set_defaults(func=run_point)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        # a rejected input or a window over the grid budget exits 2, an
        # unwritable output (its message names the path) 1: one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
