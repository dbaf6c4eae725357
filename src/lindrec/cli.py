"""Batch experiment runner.

Subcommands reconstruct generators for each studied target family, sweep the
noise-robustness grids, and fit the scaling laws.  Every run writes a JSON
report (plus a CSV table for sweeps) whose content is deterministic for a
fixed seed; wall-clock metadata lives under the single ``meta`` key, which is
excluded from the determinism contract.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure,
4 infeasible verdict when feasibility was required.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import models
from .engine import (
    LindbladAnsatz,
    LindbladianParams,
    markovian_postselect,
    markovian_superposition_search,
    rapidity,
    repair_markovianity,
    reverse_engineer,
    unpack_kernel_vector,
)
from .errors import ConfigInvalidError, InsufficientDataError, LindrecError
from .numerics import DEFAULT_NULL_TOL, loglog_fit
from .quantum_ops import FockSpace, boson_ops, coherent_state
from .verification import norm_difference, steady_state_of

EXPERIMENTS = ("coherent", "squeezed", "collective", "robustness", "feasibility")

DEFAULT_EPS_GRID = tuple(float(x) for x in np.logspace(-4, -2, 9))
DEFAULT_N_GRID = (10, 20, 40)


@dataclass
class RunConfig:
    experiment: str
    out_dir: str = "out"
    tol_null: float = DEFAULT_NULL_TOL
    seed: int = 0
    alpha: complex = 1.0 + 0.0j
    r: float = 0.5
    theta: float = 0.0
    jumps: str = models.SINGLE_JUMPS
    n_list: tuple[int, ...] = DEFAULT_N_GRID
    omega_over_kappa: float | None = None
    kappa: float = 1.0
    regime: str = "strong"
    eps_list: tuple[float, ...] = DEFAULT_EPS_GRID
    n_samples: int = 10_000
    n_max: int | None = None
    require_feasible: bool = False

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigInvalidError(f"unknown experiment {self.experiment!r}")
        if not 0 < self.tol_null <= 1e-4:
            raise ConfigInvalidError("tol_null must lie in (0, 1e-4]")
        if self.experiment in ("collective", "robustness") and not self.n_list:
            raise ConfigInvalidError("empty N grid")
        if self.experiment == "robustness":
            if not self.eps_list:
                raise ConfigInvalidError("empty eps grid")
            if self.regime not in ("strong", "weak"):
                raise ConfigInvalidError("regime must be strong or weak")
        if self.kappa <= 0:
            raise ConfigInvalidError("kappa must be positive")

    def resolved_ratio(self) -> float:
        """Drive-to-decay ratio; the regime picks the default when unset."""
        if self.omega_over_kappa is not None:
            return self.omega_over_kappa
        if self.experiment == "robustness" and self.regime == "strong":
            return 0.5
        return 2.0


def _jsonify(obj):
    """Recursively convert to JSON-safe types; complex becomes [re, im]."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
        )
    _atomic_write(path, buf.getvalue())


def _params_payload(
    params: LindbladianParams, ansatz: LindbladAnsatz, rho: np.ndarray
) -> dict:
    return {
        "c": params.c,
        "gamma": params.gamma,
        "gamma_eigenvalues": params.gamma_eigenvalues,
        "markovian": params.markovian,
        "rapidity_residual": rapidity(params, ansatz, rho),
    }


def _reconstruction_payload(result, ansatz, rho) -> dict:
    return {
        "spectrum": result.spectrum,
        "kernel_dim": result.kernel_dim,
        "verdict": result.verdict,
        "raw_asymmetry": result.corr.raw_asymmetry,
        "solutions": [
            _params_payload(p, ansatz, rho) for p in result.solutions
        ],
        "non_admissible": [
            {"reason": e.reason, "vector": e.vector}
            for e in result.kernel
            if not isinstance(e, LindbladianParams)
        ],
    }


def _subspace_overlap(vec: np.ndarray, basis: list[np.ndarray]) -> float:
    """Norm of the projection of unit-normalized ``vec`` onto span(basis)."""
    q, _ = np.linalg.qr(np.array(basis).T)
    v = vec / np.linalg.norm(vec)
    return float(np.linalg.norm(q.conj().T @ v))


def _run_coherent(config: RunConfig) -> dict:
    spec = models.CoherentSpec(alpha=config.alpha, n_max=config.n_max)
    model = models.build_model(spec)
    result = reverse_engineer(model.ansatz, model.rho_ss, config.tol_null)
    payload = _reconstruction_payload(result, model.ansatz, model.rho_ss)
    analytic = models.analytic_kernel_vectors(spec)[0]
    if result.kernel_dim:
        payload["analytic_overlap"] = _subspace_overlap(analytic, list(result.kernel_vectors))
    if result.solutions:
        ss = steady_state_of(result.solutions[0], model.ansatz, method="lu")
        payload["steady_state_error"] = norm_difference(ss.rho, model.rho_ss)
        payload["steady_state_residual"] = ss.residual
    return payload


def _run_squeezed(config: RunConfig) -> dict:
    spec = models.SqueezedSpec(
        r=config.r, theta=config.theta, jumps=config.jumps, n_max=config.n_max
    )
    model = models.build_model(spec)
    result = reverse_engineer(model.ansatz, model.rho_ss, config.tol_null)
    payload = _reconstruction_payload(result, model.ansatz, model.rho_ss)
    analytic = models.analytic_kernel_vectors(spec)
    payload["analytic_kernel_dim"] = len(analytic)
    search = markovian_superposition_search(
        [v / np.linalg.norm(v) for v in analytic],
        model.ansatz.n_drive,
        model.ansatz.n_jump,
        n_samples=config.n_samples,
        seed=config.seed,
    )
    payload["markovian_search"] = {
        "n_solutions": len(search.solutions),
        "direction_supported": search.direction_supported,
        "solutions": [
            _params_payload(p, model.ansatz, model.rho_ss) for p in search.solutions
        ],
    }
    payload["postselected"] = [
        _params_payload(p, model.ansatz, model.rho_ss)
        for p in markovian_postselect(result.kernel)
    ]
    return payload


def _run_collective(config: RunConfig) -> dict:
    rows = []
    second_eigs = []
    for n in config.n_list:
        spec = models.CollectiveSpec(
            n_spins=n,
            omega0=config.resolved_ratio() * config.kappa,
            kappa=config.kappa,
            basis=models.FULL_BASIS,
        )
        model = models.build_model(spec)
        result = reverse_engineer(model.ansatz, model.rho_ss, config.tol_null)
        row = {
            "n_spins": n,
            "two_lowest_eigenvalues": result.spectrum[:2],
            "kernel_dim": result.kernel_dim,
        }
        if result.solutions:
            sol = result.solutions[0]
            row["solution"] = _params_payload(sol, model.ansatz, model.rho_ss)
            g = sol.gamma
            row["ratios"] = {
                "c1_over_gamma11": sol.c[0] / g[0, 0].real,
                "gamma12_over_gamma11": g[0, 1] / g[0, 0],
                "gamma21_over_gamma11": g[1, 0] / g[0, 0],
            }
            gev = sol.gamma_eigenvalues
            row["n_gamma_above_tol"] = int(
                np.sum(gev > 1e-10 * max(1.0, gev[-1]))
            )
        rows.append(row)
        second_eigs.append(float(result.spectrum[1]))
    return {
        "rows": rows,
        "solutions": [row["solution"] for row in rows if "solution" in row],
        "second_eigenvalue_decreasing": bool(
            all(b < a for a, b in zip(second_eigs, second_eigs[1:]))
        ),
    }


def _two_segment_fit(eps: np.ndarray, diffs: np.ndarray) -> dict:
    """Split a log-log curve into two branches at the split minimizing the
    total squared residual; used to locate the saturation knee."""
    n = eps.size
    single = loglog_fit(eps, diffs)
    best = None
    for k in range(3, n - 2):
        lo = loglog_fit(eps[:k], diffs[:k])
        hi = loglog_fit(eps[k:], diffs[k:])
        sse = 0.0
        for fit, (x, y) in ((lo, (eps[:k], diffs[:k])), (hi, (eps[k:], diffs[k:]))):
            resid = np.log(y) - (fit.slope * np.log(x) + fit.intercept)
            sse += float(np.sum(resid**2))
        if best is None or sse < best[0]:
            best = (sse, k, lo, hi)
    if best is None:
        return {
            "knee_eps": None,
            "slope_small_eps": single.slope,
            "r2_small_eps": single.r_squared,
            "slope_full": single.slope,
        }
    _, k, lo, hi = best
    return {
        "knee_eps": float(np.sqrt(eps[k - 1] * eps[k])),
        "n_points_below_knee": int(k),
        "slope_small_eps": lo.slope,
        "r2_small_eps": lo.r_squared,
        "slope_large_eps": hi.slope,
        "slope_full": single.slope,
    }


def _run_robustness(config: RunConfig) -> tuple[dict, list[str], list[list]]:
    omega0 = config.resolved_ratio() * config.kappa
    weak = config.regime == "weak"
    eps_grid = np.array(config.eps_list, dtype=float)
    rows_payload = []
    csv_rows = []
    header = ["N", "eps", "lambda1", "state_diff", "gamma_min"]
    if weak:
        header += ["n_negative_gamma", "state_diff_repaired"]
    header += ["unique"]
    for n in config.n_list:
        spec = models.CollectiveSpec(
            n_spins=n, omega0=omega0, kappa=config.kappa, basis=models.XY_BASIS
        )
        model = models.build_model(spec)
        rho_clean = model.rho_ss
        dim = rho_clean.shape[0]
        for eps in eps_grid:
            # white noise as the maximally mixed state; this trace-normalized
            # mixing is the parametrization under which the quoted eps/N
            # scalings of the smallest eigenvalue and the state error hold
            rho_eps = (1.0 - eps) * rho_clean + eps * np.eye(dim) / dim
            result = reverse_engineer(model.ansatz, rho_eps, config.tol_null)
            lam1 = float(result.spectrum[0])
            # parameters of the minimum-eigenvalue direction
            min_vec = result.kernel_result.eig.eigenvectors[:, 0]
            params = unpack_kernel_vector(
                min_vec, model.ansatz.n_drive, model.ansatz.n_jump
            )
            gev = params.gamma_eigenvalues
            neg_tol = 1e-10 * max(1.0, float(gev[-1]))
            n_negative = int(np.sum(gev < -neg_tol))
            ss = steady_state_of(params, model.ansatz, method="svd")
            diff = norm_difference(ss.rho, rho_clean)
            row = {
                "n_spins": n,
                "eps": float(eps),
                "lambda1": lam1,
                "lambda2": float(result.spectrum[1]),
                "verdict": result.verdict,
                "state_diff": diff,
                "solution": _params_payload(params, model.ansatz, rho_eps),
                "gamma_eigenvalues": gev,
                "gamma_min": float(gev[0]),
                "n_negative_gamma": n_negative,
                "markovian": params.markovian,
                "unique": ss.unique,
                "steady_state_method": ss.method,
                "uniqueness_bound": ss.uniqueness_bound,
                "rapidity_residual": rapidity(params, model.ansatz, rho_eps),
            }
            csv_row = [n, float(eps), lam1, diff, float(gev[0])]
            if weak:
                repaired = repair_markovianity(params)
                ss_rep = steady_state_of(repaired, model.ansatz, method="lu")
                diff_rep = norm_difference(ss_rep.rho, rho_clean)
                row["state_diff_repaired"] = diff_rep
                row["repaired_gamma_eigenvalues"] = repaired.gamma_eigenvalues
                csv_row += [n_negative, diff_rep]
            csv_row += [bool(ss.unique)]
            rows_payload.append(row)
            csv_rows.append(csv_row)
    fits = _fit_rows(rows_payload, weak)
    results = {
        "rows": rows_payload,
        "solutions": [row["solution"] for row in rows_payload],
        "fits": fits,
    }
    return results, header, csv_rows


def _fit_rows(rows: list[dict], weak: bool) -> dict:
    n_values = sorted({row["n_spins"] for row in rows})
    eps_values = sorted({row["eps"] for row in rows})

    def series(filter_key, filter_val, x_key, y_key):
        pts = [
            (row[x_key], row[y_key]) for row in rows if row[filter_key] == filter_val
        ]
        pts.sort()
        return np.array([p[0] for p in pts]), np.array([p[1] for p in pts])

    fits: dict = {"per_N": {}, "per_eps": {}}
    slope_eps_l1, slope_eps_diff = [], []
    r2_eps_l1, r2_eps_diff = [], []
    for n in n_values:
        eps, lam = series("n_spins", n, "eps", "lambda1")
        _, diff = series("n_spins", n, "eps", "state_diff")
        fit_l1 = loglog_fit(eps, lam)
        fit_diff = loglog_fit(eps, diff)
        entry = {
            "lambda1_slope": fit_l1.slope,
            "lambda1_r2": fit_l1.r_squared,
            "state_diff_slope": fit_diff.slope,
            "state_diff_r2": fit_diff.r_squared,
        }
        if weak:
            entry["state_diff_two_segment"] = _two_segment_fit(eps, diff)
            _, diff_rep = series("n_spins", n, "eps", "state_diff_repaired")
            entry["state_diff_repaired_two_segment"] = _two_segment_fit(eps, diff_rep)
        fits["per_N"][str(n)] = entry
        slope_eps_l1.append(fit_l1.slope)
        slope_eps_diff.append(fit_diff.slope)
        r2_eps_l1.append(fit_l1.r_squared)
        r2_eps_diff.append(fit_diff.r_squared)
    slope_n_l1, slope_n_diff = [], []
    if len(n_values) >= 3:
        for eps in eps_values:
            ns, lam = series("eps", eps, "n_spins", "lambda1")
            _, diff = series("eps", eps, "n_spins", "state_diff")
            fit_l1 = loglog_fit(np.array(ns, dtype=float), lam)
            fit_diff = loglog_fit(np.array(ns, dtype=float), diff)
            fits["per_eps"][repr(float(eps))] = {
                "lambda1_slope": fit_l1.slope,
                "state_diff_slope": fit_diff.slope,
            }
            slope_n_l1.append(fit_l1.slope)
            slope_n_diff.append(fit_diff.slope)
    fits["lambda1"] = {
        "slope_eps": float(np.mean(slope_eps_l1)),
        "r2_eps": float(np.mean(r2_eps_l1)),
        "slope_N": float(np.mean(slope_n_l1)) if slope_n_l1 else None,
    }
    fits["state_diff"] = {
        "slope_eps": float(np.mean(slope_eps_diff)),
        "r2_eps": float(np.mean(r2_eps_diff)),
        "slope_N": float(np.mean(slope_n_diff)) if slope_n_diff else None,
    }
    return fits


def fit_scalings(csv_path: str | Path) -> dict:
    """Refit the scaling laws from an emitted robustness CSV.

    Per-axis slopes are obtained by fixing the other variable at each grid
    value and averaging the individual log-log fits.
    """
    path = Path(csv_path)
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        for record in csv.DictReader(fh):
            rows.append(
                {
                    "n_spins": int(record["N"]),
                    "eps": float(record["eps"]),
                    "lambda1": float(record["lambda1"]),
                    "state_diff": float(record["state_diff"]),
                }
            )
    if len(rows) < 3:
        raise InsufficientDataError(f"only {len(rows)} rows in {path}")
    try:
        return _fit_rows(rows, weak=False)
    except LindrecError as exc:
        raise InsufficientDataError(str(exc)) from exc


def _run_feasibility(config: RunConfig) -> dict:
    """Deliberately impoverished ansatz: a lone decay jump, no drives."""
    alpha = complex(config.alpha)
    n_max = config.n_max or int(max(40, np.ceil(10 * max(4.0, abs(alpha) ** 2))))
    space = FockSpace(n_max)
    ops = boson_ops(space)
    rho = coherent_state(space, alpha)
    ansatz = LindbladAnsatz(h_ops=(), jump_ops=(ops.a,))
    result = reverse_engineer(ansatz, rho, config.tol_null)
    # independent check: scan the one-parameter family directly
    grid = np.linspace(-2.0, 2.0, 401)
    scan = []
    for g in grid:
        if abs(g) < 1e-9:
            continue
        params = LindbladianParams(c=np.zeros(0), gamma=np.array([[g]], dtype=complex))
        scan.append(rapidity(params, ansatz, rho) / g**2)
    unit = LindbladianParams(c=np.zeros(0), gamma=np.array([[1.0]], dtype=complex))
    return {
        "spectrum": result.spectrum,
        "kernel_dim": result.kernel_dim,
        "verdict": result.verdict,
        "solutions": [_params_payload(p, ansatz, rho) for p in result.solutions],
        "min_eigenvalue": float(result.spectrum[0]),
        "brute_force": {
            "grid_points": len(scan),
            "min_normalized_rapidity": float(np.min(scan)),
            "unit_family_rapidity": rapidity(unit, ansatz, rho),
        },
    }


def run_experiment(config: RunConfig) -> dict:
    """Execute one experiment and write its artifacts under ``config.out_dir``.

    Returns the full report dictionary (also written to ``report.json``).
    """
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    error = None
    results: dict = {}
    csv_payload = None
    try:
        if config.experiment == "coherent":
            results = _run_coherent(config)
        elif config.experiment == "squeezed":
            results = _run_squeezed(config)
        elif config.experiment == "collective":
            results = _run_collective(config)
        elif config.experiment == "robustness":
            results, header, csv_rows = _run_robustness(config)
            csv_payload = (header, csv_rows)
        elif config.experiment == "feasibility":
            results = _run_feasibility(config)
    except (LindrecError, np.linalg.LinAlgError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    report = {
        "config": asdict(config),
        "results": results,
        "meta": {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "runtime_seconds": time.perf_counter() - started,
        },
    }
    if error is not None:
        report["error"] = error
    write_json(out / "report.json", report)
    solutions = results.get("solutions") if isinstance(results, dict) else None
    if solutions is not None:
        write_json(out / "solutions.json", {"solutions": solutions})
    if csv_payload is not None:
        write_csv(out / "scaling.csv", csv_payload[0], csv_payload[1])
    return report


def _parse_int_grid(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        span, _, step = text.partition(":")
        start, _, stop = span.partition("..")
        step_val = int(step) if step else 1
        return tuple(range(int(start), int(stop) + 1, step_val))
    return tuple(int(tok) for tok in text.split(",") if tok)


def _parse_float_grid(text: str) -> tuple[float, ...]:
    text = text.strip()
    if ".." in text:
        span, _, count = text.partition(":")
        lo, _, hi = span.partition("..")
        n = int(count) if count else 9
        return tuple(
            float(x) for x in np.logspace(np.log10(float(lo)), np.log10(float(hi)), n)
        )
    return tuple(float(tok) for tok in text.split(",") if tok)


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigInvalidError(f"cannot parse complex number {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindrec",
        description="Reconstruct Lindblad generators for target steady states.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--tol-null", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n-max", type=int, default=None, help="Fock cutoff override")

    p = sub.add_parser("coherent", help="coherent target, linear ansatz")
    common(p)
    p.add_argument("--alpha", type=str, default=None)

    p = sub.add_parser("squeezed", help="squeezed-vacuum target, quadratic drives")
    common(p)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument(
        "--jumps", choices=[models.SINGLE_JUMPS, models.TWO_JUMPS], default=None
    )
    p.add_argument("--n-samples", type=int, default=None)

    p = sub.add_parser("collective", help="driven-dissipative collective spins")
    common(p)
    p.add_argument("--N", type=str, default=None, help="e.g. 10,20,40 or 10..60:10")
    p.add_argument("--omega-over-kappa", type=float, default=None)
    p.add_argument("--kappa", type=float, default=None)

    p = sub.add_parser("robustness", help="noise-mixed collective target sweeps")
    common(p)
    p.add_argument("--regime", choices=["strong", "weak"], default=None)
    p.add_argument("--N", type=str, default=None)
    p.add_argument("--eps", type=str, default=None, help="e.g. 1e-4..1e-2:9")
    p.add_argument("--kappa", type=float, default=None)

    p = sub.add_parser("feasibility", help="no-go check on an impoverished ansatz")
    common(p)
    p.add_argument("--alpha", type=str, default=None)
    p.add_argument("--require-feasible", action="store_true", default=False)

    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalidError(f"cannot read config: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigInvalidError("config file must hold a JSON object")
    file_experiment = values.pop("experiment", None)
    if file_experiment is not None and file_experiment != args.experiment:
        raise ConfigInvalidError(
            f"config experiment {file_experiment!r} differs from subcommand"
        )
    if "alpha" in values and isinstance(values["alpha"], list):
        values["alpha"] = complex(values["alpha"][0], values["alpha"][1])
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(values) - known
    if unknown:
        raise ConfigInvalidError(f"unknown config keys: {sorted(unknown)}")
    config = RunConfig(experiment=args.experiment, **values)

    def override(attr, value, transform=None):
        if value is not None:
            setattr(config, attr, transform(value) if transform else value)

    override("out_dir", getattr(args, "out", None))
    override("tol_null", getattr(args, "tol_null", None))
    override("seed", getattr(args, "seed", None))
    override("n_max", getattr(args, "n_max", None))
    override("alpha", getattr(args, "alpha", None), _parse_complex)
    override("r", getattr(args, "r", None))
    override("theta", getattr(args, "theta", None))
    override("jumps", getattr(args, "jumps", None))
    override("n_samples", getattr(args, "n_samples", None))
    override("n_list", getattr(args, "N", None), _parse_int_grid)
    override("omega_over_kappa", getattr(args, "omega_over_kappa", None))
    override("kappa", getattr(args, "kappa", None))
    override("regime", getattr(args, "regime", None))
    override("eps_list", getattr(args, "eps", None), _parse_float_grid)
    if getattr(args, "require_feasible", False):
        config.require_feasible = True
    if isinstance(config.n_list, list):
        config.n_list = tuple(config.n_list)
    if isinstance(config.eps_list, list):
        config.eps_list = tuple(config.eps_list)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        config.validate()
    except ConfigInvalidError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(config)
    except (LindrecError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if "error" in report:
        print(f"numerical failure: {report['error']}", file=sys.stderr)
        return 3
    verdict = report.get("results", {}).get("verdict")
    if config.require_feasible and verdict == "infeasible":
        print("verdict: infeasible (feasibility was required)", file=sys.stderr)
        return 4
    print(json.dumps({"out_dir": config.out_dir, "experiment": config.experiment,
                      "verdict": verdict}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
