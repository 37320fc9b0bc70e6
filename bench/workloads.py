"""Seeded inputs and output checks for the three benchmark workloads.

Inputs depend only on the workload name and the seed, never on the code
under test, so two commits measured with the same seed do the same work.
The drawn points are stratified; for the two workloads whose points are
drawn, a draw is accepted only if its predicted grid work lands within a
few percent of a fixed budget, so that runs on different seeds time the
same amount of work and their spread shows noise rather than the draw.
"""

from __future__ import annotations

import csv
import io
import math
import random
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

CSV_HEADER = "eta,beta,E_exact,E_avg,fraction_lost,residual,window_K,window_L"
EPSILON_TAIL = 1e-10
ORACLE_TOL = 1e-10
NORM_TOL = 1e-12

SWEEP_DEFAULT_ARGS = ("--threads", "1")  # the default grid, serial

# sweep-strong: 2 eta strata x 4 beta strata, run with 2 worker threads.
STRONG_ETA = (0.88, 0.95)
STRONG_BETA = (6.0, 12.0)
STRONG_THREADS = 2
STRONG_WORK = 3.1e8  # predicted_work summed over the 8 points
STRONG_WORK_TOL = 0.03
STRONG_BALANCE = 0.54  # predicted 2-worker makespan / total work, at most

# outcome-api: a Latin hypercube over (eta, beta, |alpha|), uniform arg(alpha).
API_ETA = (0.2, 0.6)
API_BETA = (3.0, 8.0)
API_ALPHA = (0.5, 3.0)
API_POINTS = 96
API_BLOCK = 2  # K, L run over round(|beta|^2) +- API_BLOCK
API_WORK = 6.6e7  # predicted_work summed over the points
API_WORK_TOL = 0.02
ORACLE_ETA = (0.3, 0.5)
ORACLE_BETA = (0.5, 1.0)


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def window_sizes(eta: float, mean_b: float):
    """The program's window-growth policy, replayed: k_r = ceil(mu + w sqrt(mu))
    for w = 8, 16, 32, ..., with mu = mean_b + eta^2 / (1 - eta^2).  Endless;
    the caller stops it."""
    mu = mean_b + eta * eta / (1.0 - eta * eta)
    w = 8.0
    while True:
        yield math.ceil(mu + w * math.sqrt(mu))
        w *= 2.0


def predicted_work(eta: float, beta: float) -> float:
    """Predicted cost sum_r (k_r + 1)^3 of the outcome grid, summed over the
    windows [0, k_r]^2 of window_sizes tried until the joint mass outside is
    at most EPSILON_TAIL.  Used only to size draws; the program's own window
    is whatever it computes."""
    mean_b = beta * beta
    work = 0.0
    for k_max in window_sizes(eta, mean_b):
        work += float(k_max + 1) ** 3
        cdf, acc = [], 0.0
        for m in range(k_max + 1):
            acc += math.exp(-mean_b + m * math.log(mean_b) - math.lgamma(m + 1.0))
            cdf.append(acc)
        inside = math.fsum((1.0 - eta * eta) * eta ** (2 * n) * cdf[k_max - n] ** 2 for n in range(k_max + 1))
        if 1.0 - inside <= EPSILON_TAIL:
            return work
    raise AssertionError("unreachable")


def _makespan(costs: list[float], workers: int) -> float:
    """Finish time of in-order greedy scheduling, as ThreadPoolExecutor.map
    hands tasks to whichever worker frees up first."""
    free = [0.0] * workers
    for cost in costs:
        i = free.index(min(free))
        free[i] += cost
    return max(free)


def _cli_number(value: float, digits: int) -> str:
    return repr(round(value, digits))


def sweep_strong_grid(seed: int) -> tuple[list[str], list[str]]:
    """(etas, betas) as the exact strings passed to --etas and --betas."""
    rng = random.Random(f"sweep-strong/{seed}")
    while True:
        etas = [_cli_number(e, 4) for e in _strata(rng, *STRONG_ETA, 2)]
        betas = [_cli_number(b, 3) for b in _strata(rng, *STRONG_BETA, 4)]
        costs = [predicted_work(float(e), float(b)) for e in etas for b in betas]
        total = sum(costs)
        if (
            abs(total / STRONG_WORK - 1.0) <= STRONG_WORK_TOL
            and _makespan(costs, STRONG_THREADS) <= STRONG_BALANCE * total
        ):
            return etas, betas


def outcome_api_points(seed: int, count: int = API_POINTS) -> list[tuple[float, float, complex]]:
    """(eta, beta, alpha) triples for the library loop."""
    rng = random.Random(f"outcome-api/{seed}")
    while True:
        etas = _strata(rng, *API_ETA, count)
        betas = _strata(rng, *API_BETA, count)
        mags = _strata(rng, *API_ALPHA, count)
        rng.shuffle(betas)
        rng.shuffle(mags)
        points = [
            (eta, beta, mag * complex(math.cos(phase), math.sin(phase)))
            for eta, beta, mag, phase in zip(etas, betas, mags, (rng.uniform(0, 2 * math.pi) for _ in etas))
        ]
        if count < API_POINTS:
            return points
        total = sum(predicted_work(eta, beta) for eta, beta, _ in points)
        if abs(total / API_WORK - 1.0) <= API_WORK_TOL:
            return points


def oracle_point(seed: int) -> tuple[float, float, float]:
    """(eta, beta, ancilla phase) of the small-beta dense-oracle check."""
    rng = random.Random(f"oracle/{seed}")
    return rng.uniform(*ORACLE_ETA), rng.uniform(*ORACLE_BETA), rng.uniform(0.0, 2.0 * math.pi)


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages, empty when the output is right
# ---------------------------------------------------------------------------


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep_default(csv_text: str, svg_text: str, points: list[tuple[str, str]] | None = None) -> list[str]:
    """The CSV byte-identical to the default sweep CSV recorded from the
    unmodified code or, for a sub-grid of (eta, beta) strings, to its header
    and those rows in order; one SVG polyline per eta."""
    reference = (REFERENCE / "sweep_default.csv").read_text(encoding="ascii")
    lines = reference.splitlines()
    if lines[0] != CSV_HEADER:
        return ["reference CSV has an unexpected header"]
    if points is None:
        expected = reference
        n_etas = len({line.split(",")[0] for line in lines[1:]})
    else:
        by_point = {tuple(line.split(",")[:2]): line for line in lines[1:]}
        expected = "\n".join([CSV_HEADER] + [by_point[p] for p in points]) + "\n"
        n_etas = len({eta for eta, _ in points})
    errors = []
    if csv_text != expected:
        got, want = csv_text.split("\n"), expected.split("\n")
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        errors.append(
            f"CSV differs from the reference at line {i + 1} ({len(got) - 1} lines, expected {len(want) - 1}): "
            f"{got[i] if i < len(got) else None!r} != {want[i] if i < len(want) else None!r}"
        )
    polylines = svg_text.count("<polyline")
    if polylines != n_etas:
        errors.append(f"SVG has {polylines} polylines for {n_etas} etas")
    return errors


def check_sweep_strong(csv_text: str, etas: list[str], betas: list[str], seed: int | None) -> list[str]:
    """Per-row invariants; for seed 0 also E_avg against values recorded
    from the unmodified code."""
    rows = _rows(csv_text)
    errors = []
    expected = [(e, b) for e in etas for b in betas]
    got = [(r["eta"], r["beta"]) for r in rows]
    if [(float(e), float(b)) for e, b in got] != [(float(e), float(b)) for e, b in expected]:
        errors.append(f"rows cover {got}, expected {expected}")
    for r in rows:
        e_avg, e_exact, residual = float(r["E_avg"]), float(r["E_exact"]), float(r["residual"])
        if not residual <= EPSILON_TAIL:
            errors.append(f"residual {residual} > {EPSILON_TAIL} at {r['eta']},{r['beta']}")
        if not 0.0 <= e_avg <= e_exact:
            errors.append(f"E_avg {e_avg} outside [0, E_exact={e_exact}] at {r['eta']},{r['beta']}")
        if r["window_K"] != r["window_L"]:
            errors.append(f"window_K != window_L at {r['eta']},{r['beta']}")
    if seed == 0:
        recorded = {
            (float(r["eta"]), float(r["beta"])): float(r["E_avg"])
            for r in _rows((REFERENCE / "sweep_strong_seed0.csv").read_text(encoding="ascii"))
        }
        for r in rows:
            ref = recorded.get((float(r["eta"]), float(r["beta"])))
            if ref is None or abs(float(r["E_avg"]) - ref) > ORACLE_TOL:
                errors.append(f"E_avg {r['E_avg']} differs from recorded {ref} at {r['eta']},{r['beta']}")
    return errors


def check_outcome_point(dist, fid_pair: float, fid_coh: float, states) -> list[str]:
    """Sum rule, exact K <-> L symmetry, fidelity range, normalization."""
    errors = []
    support = dist.support
    total = math.fsum(support.values())
    if abs(total - (1.0 - dist.residual)) > NORM_TOL:
        errors.append(f"distribution sums to {total!r}, residual {dist.residual!r}")
    if any(support.get((l, k)) != p for (k, l), p in support.items()):
        errors.append("outcome table is not exactly symmetric under K <-> L")
    for name, fid in (("pair", fid_pair), ("coherent", fid_coh)):
        if not 0.0 <= fid <= 1.0:
            errors.append(f"{name} fidelity {fid!r} outside [0, 1]")
    for state in states:
        norm = math.fsum((abs(state.schmidt_coeffs) ** 2).tolist())
        if abs(norm - 1.0) > NORM_TOL:
            errors.append(f"encode_pair({state.K}, {state.L}) has norm {norm!r}")
    return errors


def check_oracle(eta: float, beta: float, phase: float, encoding, entanglement, oracle) -> list[str]:
    """Closed-form probabilities, Schmidt weights and entropies against the
    dense projector path, outcomes K, L <= 8 at cutoff 12."""
    import numpy as np

    ancilla = beta * complex(math.cos(phase), math.sin(phase))
    dist = encoding.pair_outcome_distribution(eta, ancilla)
    joint = oracle.build_joint_pair(eta, beta, phase, 12)
    worst = 0.0
    for k in range(9):
        p_k, after_k = oracle.project_total_number(joint, oracle.PAIR_GROUP_K, k)
        if after_k is None:
            continue
        for l in range(9):
            p_l, after_l = oracle.project_total_number(after_k, oracle.PAIR_GROUP_L, l)
            if after_l is None:
                continue
            state = encoding.encode_pair(eta, ancilla, k, l)
            dense_q = np.abs(oracle.pair_schmidt_amplitudes(after_l, k, l)) ** 2
            worst = max(
                worst,
                abs(p_k * p_l - dist.support[(k, l)]),
                float(np.max(np.abs(dense_q - np.abs(state.schmidt_coeffs) ** 2))),
                abs(oracle.schmidt_entropy_dense(after_l, (0, 2)) - entanglement.entropy_of_entanglement(state)),
            )
    if not worst <= ORACLE_TOL:
        return [f"dense oracle deviates by {worst:.3e} at eta={eta}, beta={beta}"]
    return []
