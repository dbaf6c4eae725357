"""Seeded inputs of the benchmark workloads and the checks of their outputs.

The seed draws only parameters that leave every Hilbert-space dimension, and
so the cost of a pass, unchanged: eps points, the phase of alpha, r and theta,
and omega/kappa.  Every pass of a run repeats the same job list.

The checks read the report that ``lindrec.cli.run_experiment`` returns and
compare it with the closed-form oracles of ``lindrec.models`` or with numbers
recomputed here from the reported values, never with a value the timed code
derived on its own path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lindrec import models
from lindrec.cli import RunConfig

WORKLOADS = ("sweep-weak", "collective-large", "bosonic-mix")

SWEEP_N = (10, 20, 40)
SWEEP_EPS_DECADES = (-4.0, -2.0)
SWEEP_EPS_POINTS = 3
# criterion 8 of the acceptance suite
LAMBDA1_SLOPE_WINDOW = (1.9, 2.1)

COLLECTIVE_N = (100, 200, 300, 400)
# weak drive gives extra near-null directions at large N; strong drive does not
RATIO_BELOW = (0.5, 0.9)
RATIO_ABOVE = (1.1, 2.0)

# |alpha| <= 2 keeps the default coherent cutoff at n_max = 40 for any phase
ALPHA_ABS = 1.5
SQUEEZE_R = (0.25, 1.0)
# one cutoff for every drawn r, the default one of the largest r, so the
# squeezed dimension does not follow the draw
SQUEEZE_N_MAX = models.default_cutoff(models.SqueezedSpec(r=SQUEEZE_R[1]))
DRAWS_PER_PASS = 4

OVERLAP_TOL = 1e-8
SPECTRUM_TOL = 1e-8
STEADY_STATE_TOL = 1e-8
INFEASIBLE_FLOOR = 1e-3
PSD_TOL = 1e-10


@dataclass
class Job:
    """One ``run_experiment`` call and what its report must satisfy.

    ``check`` returns the reasons the report is wrong, empty when it is right.
    ``expected_kernel_dim`` is the closed-form kernel dimension of each
    reconstruction in the report, or None when no closed form exists.
    """

    name: str
    config: RunConfig
    check: Callable[[dict], list[str]]
    expected_kernel_dim: int | None


def make_jobs(workload: str, seed: int, out_root: Path) -> tuple[list[Job], dict]:
    """Job list of one workload and the inputs drawn for it from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "sweep-weak":
        jobs, drawn = _sweep_weak(rng)
    elif workload == "collective-large":
        jobs, drawn = _collective_large(rng)
    elif workload == "bosonic-mix":
        jobs, drawn = _bosonic_mix(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for job in jobs:
        job.config.out_dir = str(out_root / workload / job.name)
        job.config.validate()
    return jobs, drawn


def kernel_dim_excess(job: Job, report: dict) -> int:
    """Reported kernel dimensions above the closed-form ones, summed."""
    if job.expected_kernel_dim is None or "error" in report:
        return 0
    results = report["results"]
    dims = [row["kernel_dim"] for row in results["rows"]] if "rows" in results else [
        results["kernel_dim"]
    ]
    return sum(max(0, int(d) - job.expected_kernel_dim) for d in dims)


def _sweep_weak(rng) -> tuple[list[Job], dict]:
    # one eps point per equal slice of the log range, so the slope fit
    # always spans the range
    lo, hi = SWEEP_EPS_DECADES
    width = (hi - lo) / SWEEP_EPS_POINTS
    eps = tuple(
        float(10 ** (lo + width * (k + rng.uniform()))) for k in range(SWEEP_EPS_POINTS)
    )
    config = RunConfig(experiment="robustness", regime="weak", n_list=SWEEP_N, eps_list=eps)
    return [Job("robustness-weak", config, _check_sweep, None)], {"eps": list(eps)}


def _collective_large(rng) -> tuple[list[Job], dict]:
    jobs = []
    drawn = {}
    for name, (lo, hi) in (("below", RATIO_BELOW), ("above", RATIO_ABOVE)):
        ratio = float(rng.uniform(lo, hi))
        config = RunConfig(
            experiment="collective", n_list=COLLECTIVE_N, omega_over_kappa=ratio
        )
        jobs.append(Job(f"collective-{name}", config, _check_collective, 1))
        drawn[f"omega_over_kappa_{name}"] = ratio
    return jobs, drawn


def _bosonic_mix(rng) -> tuple[list[Job], dict]:
    jobs = []
    draws = []
    for k in range(DRAWS_PER_PASS):
        alpha = complex(ALPHA_ABS * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))
        r = float(rng.uniform(*SQUEEZE_R))
        theta = float(rng.uniform(0.0, 2 * np.pi))
        draws.append({"alpha": [alpha.real, alpha.imag], "r": r, "theta": theta})
        jobs.append(
            Job(f"coherent-{k}", RunConfig(experiment="coherent", alpha=alpha),
                _check_coherent, 1)
        )
        for jumps, dim in ((models.SINGLE_JUMPS, 3), (models.TWO_JUMPS, 1)):
            config = RunConfig(
                experiment="squeezed", r=r, theta=theta, jumps=jumps, n_max=SQUEEZE_N_MAX
            )
            jobs.append(Job(f"squeezed-{jumps}-{k}", config, _check_squeezed, dim))
        jobs.append(
            Job(f"feasibility-{k}", RunConfig(experiment="feasibility", alpha=alpha),
                _check_feasibility, 0)
        )
    return jobs, {"draws": draws, "squeezed_n_max": SQUEEZE_N_MAX}


def _vector(payload: dict) -> np.ndarray:
    """Packed parameter vector (c, gamma row-major) of a reported solution."""
    c = np.asarray(payload["c"], dtype=complex).reshape(-1)
    return np.concatenate([c, np.asarray(payload["gamma"], dtype=complex).reshape(-1)])


def _min_overlap(vectors: list[np.ndarray], basis: list[np.ndarray]) -> float:
    """Smallest norm of the projection of a unit ``vectors`` entry onto span(basis)."""
    if not basis:
        return 0.0
    q, _ = np.linalg.qr(np.array(basis).T)
    return min(float(np.linalg.norm(q.conj().T @ (v / np.linalg.norm(v)))) for v in vectors)


def _psd_spectrum(w) -> bool:
    w = np.sort(np.asarray(w, dtype=float))
    return bool(w[0] >= -PSD_TOL * max(1.0, float(w[-1])))


def _check_error(report: dict) -> list[str]:
    return [f"report error: {report['error']}"] if "error" in report else []


def _check_reconstruction(results: dict, spec) -> list[str]:
    """Reported kernel against the closed-form kernel and M spectrum."""
    reasons = []
    reported = [_vector(p) for p in results["solutions"]]
    reported += [np.asarray(e["vector"]) for e in results["non_admissible"]]
    overlap = _min_overlap(models.analytic_kernel_vectors(spec), reported)
    if overlap < 1.0 - OVERLAP_TOL:
        reasons.append(f"closed-form kernel overlap 1 - {1.0 - overlap:.2e}")
    exact = np.linalg.eigvalsh(models.analytic_corr_matrix(spec))
    spectrum = np.asarray(results["spectrum"], dtype=float)
    gap = float(np.max(np.abs(spectrum - exact)))
    if gap > SPECTRUM_TOL * max(1.0, float(exact[-1])):
        reasons.append(f"spectrum of M differs from the closed form by {gap:.2e}")
    return reasons


def _check_coherent(report: dict) -> list[str]:
    reasons = _check_error(report)
    if reasons:
        return reasons
    config, results = report["config"], report["results"]
    spec = models.CoherentSpec(alpha=config["alpha"], n_max=config["n_max"])
    reasons += _check_reconstruction(results, spec)
    error = results.get("steady_state_error")
    if error is None or not error <= STEADY_STATE_TOL:
        reasons.append(f"steady-state error {error}")
    return reasons


def _check_squeezed(report: dict) -> list[str]:
    reasons = _check_error(report)
    if reasons:
        return reasons
    config, results = report["config"], report["results"]
    spec = models.SqueezedSpec(
        r=config["r"], theta=config["theta"], jumps=config["jumps"], n_max=config["n_max"]
    )
    reasons += _check_reconstruction(results, spec)
    if config["jumps"] == models.SINGLE_JUMPS:
        found = results["markovian_search"]["solutions"]
        if not found:
            reasons.append("superposition search found no Markovian solution")
        analytic = models.analytic_kernel_vectors(spec)
        for params in found:
            if not _psd_spectrum(np.linalg.eigvalsh(params["gamma"])):
                reasons.append("search solution has an indefinite rate matrix")
            if _min_overlap([_vector(params)], analytic) < 1.0 - OVERLAP_TOL:
                reasons.append("search solution leaves the closed-form kernel")
    return reasons


def _check_feasibility(report: dict) -> list[str]:
    reasons = _check_error(report)
    if reasons:
        return reasons
    results = report["results"]
    if results["verdict"] != "infeasible":
        reasons.append(f"verdict {results['verdict']}")
    brute = results["brute_force"]["min_normalized_rapidity"]
    if not brute > INFEASIBLE_FLOOR:
        reasons.append(f"brute-force minimum {brute:.3e}")
    # with one jump and no drive, M is 1x1 and equals every normalized rapidity
    lam = float(results["min_eigenvalue"])
    if abs(brute - lam) > SPECTRUM_TOL * max(1.0, lam):
        reasons.append(f"brute-force minimum {brute!r} differs from M = {lam!r}")
    return reasons


def _check_collective(report: dict) -> list[str]:
    reasons = _check_error(report)
    if reasons:
        return reasons
    config = report["config"]
    ratio = config["omega_over_kappa"]
    for row in report["results"]["rows"]:
        n = row["n_spins"]
        if row["kernel_dim"] < 1:
            reasons.append(f"N={n}: empty kernel for a target with a known generator")
        # with a degenerate kernel every direction may come out non-admissible,
        # and the row then carries no solution to compare; that shows in
        # kernel_dim_excess and the unpack admissible ratio, not here
        if "solution" not in row:
            continue
        spec = models.CollectiveSpec(
            n_spins=n, omega0=ratio * config["kappa"], kappa=config["kappa"]
        )
        exact = models.collective_generator_params(spec).to_vector()
        overlap = _min_overlap([exact], [_vector(row["solution"])])
        if overlap < 1.0 - OVERLAP_TOL:
            reasons.append(f"N={n}: closed-form generator overlap 1 - {1.0 - overlap:.2e}")
    return reasons


def _check_sweep(report: dict) -> list[str]:
    reasons = _check_error(report)
    if reasons:
        return reasons
    rows = report["results"]["rows"]
    for row in rows:
        where = f"N={row['n_spins']} eps={row['eps']:.3e}"
        if row["unique"] is not True:
            reasons.append(f"{where}: steady state not certified unique")
        if not _psd_spectrum(row["repaired_gamma_eigenvalues"]):
            reasons.append(f"{where}: repaired rate spectrum not PSD")
        if not np.isfinite(row["state_diff_repaired"]):
            reasons.append(f"{where}: repaired error not finite")
    lo, hi = LAMBDA1_SLOPE_WINDOW
    for n in sorted({row["n_spins"] for row in rows}):
        pts = sorted((row["eps"], row["lambda1"]) for row in rows if row["n_spins"] == n)
        x, y = np.log([p[0] for p in pts]), np.log([p[1] for p in pts])
        slope = float(np.polyfit(x, y, 1)[0])
        if not lo <= slope <= hi:
            reasons.append(f"N={n}: lambda1 slope {slope:.4f} outside [{lo}, {hi}]")
    return reasons
