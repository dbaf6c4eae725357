"""Batch experiment runner.

Subcommands reconstruct generators for each studied target family, sweep the
noise-robustness grids, and fit the scaling laws.  Every run writes a JSON
report (plus a CSV table for sweeps) whose content is deterministic: no step
draws random numbers, so the same configuration gives the same bytes.
Wall-clock metadata lives under the single ``meta`` key, which is excluded
from the determinism contract.  ``EXPERIMENTS`` is the one table of
subcommands: each entry names its runner, its own flags and, for sweeps, its
CSV table.

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
import typing
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from . import models
from .engine import (
    MARKOV_TOL,
    LindbladAnsatz,
    LindbladianParams,
    ReconstructionResult,
    markovian_postselect,
    markovian_superposition_search,
    rapidity,  # noqa: F401 -- module attribute that perfbench/tracing.py wraps
    repair_markovianity,
    reverse_engineer,
    unpack_kernel_vector,
)
from .errors import ConfigInvalidError, LindrecError
from .numerics import DEFAULT_NULL_TOL, loglog_fit
from .quantum_ops import (
    coherent_state,  # noqa: F401 -- module attribute that perfbench/tracing.py wraps
    mix_with_identity,
)
from .verification import MAX_SUPEROP_DIM, norm_difference, steady_state_of

DEFAULT_EPS_GRID = tuple(float(x) for x in np.logspace(-4, -2, 9))
DEFAULT_N_GRID = (10, 20, 40)


@dataclass
class RunConfig:
    experiment: str
    out_dir: str = "out"
    tol_null: float = DEFAULT_NULL_TOL
    alpha: complex = 1.0 + 0.0j
    r: float = 0.5
    theta: float = 0.0
    jumps: str = models.SINGLE_JUMPS
    n_list: tuple[int, ...] = DEFAULT_N_GRID
    omega_over_kappa: float | None = None
    kappa: float = 1.0
    regime: str = "strong"
    eps_list: tuple[float, ...] = DEFAULT_EPS_GRID
    n_max: int | None = None
    require_feasible: bool = False

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigInvalidError(f"unknown experiment {self.experiment!r}")
        if not 0 < self.tol_null <= 1e-4:
            raise ConfigInvalidError("tol_null must lie in (0, 1e-4]")
        if self.experiment in ("collective", "robustness"):
            if not self.n_list:
                raise ConfigInvalidError("empty N grid")
            if len(set(self.n_list)) != len(self.n_list):
                raise ConfigInvalidError("N values must not repeat")
        if self.experiment == "robustness":
            # at eps = 1 the target is I/d, which every unital term annihilates
            if not all(0.0 < eps < 1.0 for eps in self.eps_list):
                raise ConfigInvalidError("eps values must lie in (0, 1)")
            if len(set(self.eps_list)) != len(self.eps_list):
                raise ConfigInvalidError("eps values must not repeat")
            if len(self.eps_list) < 3:  # each N is fitted against eps
                raise ConfigInvalidError("need at least three eps values")
            if self.regime not in ("strong", "weak"):
                raise ConfigInvalidError("regime must be strong or weak")
        if self.n_max is not None and self.n_max < 1:
            raise ConfigInvalidError("n_max must be at least 1")
        try:  # the spec constructors own the model parameter rules
            specs = self.specs()
        except ValueError as exc:
            raise ConfigInvalidError(str(exc)) from exc
        dim = max(models.hilbert_dim(spec) for spec in specs)
        if dim > models.MAX_HILBERT_DIM:
            raise ConfigInvalidError(
                f"a model needs a Hilbert-space dimension above {models.MAX_HILBERT_DIM}"
            )
        # every robustness row certifies its steady state on the dense inverse
        if self.experiment == "robustness" and dim * dim > MAX_SUPEROP_DIM:
            raise ConfigInvalidError(
                f"superoperator dimension {dim * dim} exceeds {MAX_SUPEROP_DIM}"
            )

    def specs(self) -> list[models.ModelSpec]:
        """Model spec of each reconstruction the experiment runs, in order."""
        if self.experiment in ("coherent", "feasibility"):
            return [models.CoherentSpec(alpha=self.alpha, n_max=self.n_max)]
        if self.experiment == "squeezed":
            return [models.SqueezedSpec(
                r=self.r, theta=self.theta, jumps=self.jumps, n_max=self.n_max
            )]
        basis = models.XY_BASIS if self.experiment == "robustness" else models.FULL_BASIS
        omega0 = self.resolved_ratio() * self.kappa
        return [
            models.CollectiveSpec(n_spins=n, omega0=omega0, kappa=self.kappa, basis=basis)
            for n in self.n_list
        ]

    def resolved_ratio(self) -> float:
        """Drive-to-decay ratio; the regime picks the default when unset."""
        if self.omega_over_kappa is not None:
            return self.omega_over_kappa
        if self.experiment == "robustness" and self.regime == "strong":
            return 0.5
        return 2.0


def _json_default(obj):
    """JSON form of a value ``json`` cannot write: an array as a list, a
    complex as [re, im] and any other numpy scalar as its Python value."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
    _atomic_write(path, text + "\n")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
        )
    _atomic_write(path, buf.getvalue())


def _params_payload(params: LindbladianParams, result: ReconstructionResult) -> dict:
    """Reported form of ``params``; the residual is evaluated on the (ansatz,
    state) pair that ``result`` reconstructed."""
    return {
        "c": params.c,
        "gamma": params.gamma,
        "gamma_eigenvalues": params.gamma_eigenvalues,
        "markovian": params.markovian,
        "rapidity_residual": result.rapidity(params),
    }


def _reconstruction_payload(result: ReconstructionResult) -> dict:
    return {
        "spectrum": result.spectrum,
        "kernel_dim": result.kernel_dim,
        "verdict": result.verdict,
        "solutions": [_params_payload(p, result) for p in result.solutions],
        # every kernel vector unpacks, so this list is always empty; the key
        # stays because the benchmark's reconstruction check still reads it
        "non_admissible": [],
    }


def _subspace_overlap(vec: np.ndarray, basis: list[np.ndarray]) -> float:
    """Norm of the projection of unit-normalized ``vec`` onto span(basis)."""
    q, _ = np.linalg.qr(np.array(basis).T)
    v = vec / np.linalg.norm(vec)
    return float(np.linalg.norm(q.conj().T @ v))


def _run_coherent(config: RunConfig) -> dict:
    (spec,) = config.specs()
    model = models.build_model(spec)
    result = reverse_engineer(model.ansatz, model.rho_ss, config.tol_null)
    payload = _reconstruction_payload(result)
    analytic = models.analytic_kernel_vectors(spec)[0]
    if result.kernel_dim:
        payload["analytic_overlap"] = _subspace_overlap(analytic, list(result.kernel_vectors))
    if result.solutions:
        ss = steady_state_of(result.solutions[0], model.ansatz, method="lu")
        payload["steady_state_error"] = norm_difference(ss.rho, model.rho_ss)
        payload["steady_state_residual"] = ss.residual
        payload["steady_state_method"] = ss.method
        payload["steady_state_fallback"] = ss.fallback
    return payload


def _run_squeezed(config: RunConfig) -> dict:
    (spec,) = config.specs()
    model = models.build_model(spec)
    result = reverse_engineer(model.ansatz, model.rho_ss, config.tol_null)
    payload = _reconstruction_payload(result)
    analytic = models.analytic_kernel_vectors(spec)
    payload["analytic_kernel_dim"] = len(analytic)
    search = markovian_superposition_search(
        [v / np.linalg.norm(v) for v in analytic],
        model.ansatz.n_drive,
        model.ansatz.n_jump,
    )
    payload["markovian_search"] = {
        "n_solutions": len(search.solutions),
        "direction_supported": search.direction_supported,
        "max_min_rate": search.max_min_rate,
        "solutions": [_params_payload(p, result) for p in search.solutions],
    }
    payload["postselected"] = [
        _params_payload(p, result) for p in markovian_postselect(result.solutions)
    ]
    return payload


def _collective_row(spec: models.CollectiveSpec, tol_null: float) -> dict:
    """One row of the collective scan; the model and its term images are
    released on return, before the next (larger) row is built."""
    model = models.build_model(spec)
    result = reverse_engineer(model.ansatz, model.rho_ss, tol_null)
    row = {
        "n_spins": spec.n_spins,
        "two_lowest_eigenvalues": result.spectrum[:2],
        "kernel_dim": result.kernel_dim,
    }
    if result.solutions:
        sol = result.solutions[0]
        row["solution"] = _params_payload(sol, result)
        g = sol.gamma
        row["ratios"] = {
            "c1_over_gamma11": sol.c[0] / g[0, 0].real,
            "gamma12_over_gamma11": g[0, 1] / g[0, 0],
            "gamma21_over_gamma11": g[1, 0] / g[0, 0],
        }
        gev = row["solution"]["gamma_eigenvalues"]
        row["n_gamma_above_tol"] = int(np.sum(gev > MARKOV_TOL * max(1.0, gev[-1])))
    return row


def _run_collective(config: RunConfig) -> dict:
    rows = [_collective_row(spec, config.tol_null) for spec in config.specs()]
    # the flag reads the rows in ascending N, whatever order the grid gives
    second_eigs = [
        float(row["two_lowest_eigenvalues"][1])
        for row in sorted(rows, key=lambda row: row["n_spins"])
    ]
    return {
        "rows": rows,
        "solutions": [row["solution"] for row in rows if "solution" in row],
        "second_eigenvalue_decreasing": bool(
            all(b < a for a, b in zip(second_eigs, second_eigs[1:]))
        ),
    }


def _two_segment_fit(eps: np.ndarray, diffs: np.ndarray) -> dict:
    """Split a log-log curve into two branches at the split minimizing the
    total squared residual (the lower split on ties); used to locate the
    saturation knee."""
    single = loglog_fit(eps, diffs)
    splits = {
        k: (loglog_fit(eps[:k], diffs[:k]), loglog_fit(eps[k:], diffs[k:]))
        for k in range(3, eps.size - 2)
    }
    if not splits:
        return {
            "knee_eps": None,
            "slope_small_eps": single.slope,
            "r2_small_eps": single.r_squared,
            "slope_full": single.slope,
        }
    k = min(splits, key=lambda k: splits[k][0].ss_res + splits[k][1].ss_res)
    lo, hi = splits[k]
    return {
        "knee_eps": float(np.sqrt(eps[k - 1] * eps[k])),
        "n_points_below_knee": int(k),
        "slope_small_eps": lo.slope,
        "r2_small_eps": lo.r_squared,
        "slope_large_eps": hi.slope,
        "slope_full": single.slope,
    }


def _run_robustness(config: RunConfig) -> dict:
    weak = config.regime == "weak"
    eps_grid = np.array(config.eps_list, dtype=float)
    rows_payload = []
    for spec in config.specs():
        model = models.build_model(spec)
        rho_clean = model.rho_ss
        for eps in eps_grid:
            # white noise as the maximally mixed state; this trace-normalized
            # mixing is the parametrization under which the quoted eps/N
            # scalings of the smallest eigenvalue and the state error hold
            rho_eps = mix_with_identity(rho_clean, eps)
            result = reverse_engineer(model.ansatz, rho_eps, config.tol_null)
            lam1 = float(result.spectrum[0])
            # parameters of the minimum-eigenvalue direction
            min_vec = result.eigenvectors[:, 0]
            params = unpack_kernel_vector(
                min_vec, model.ansatz.n_drive, model.ansatz.n_jump
            )
            solution = _params_payload(params, result)
            gev = solution["gamma_eigenvalues"]
            neg_tol = MARKOV_TOL * max(1.0, float(gev[-1]))
            n_negative = int(np.sum(gev < -neg_tol))
            ss = steady_state_of(params, model.ansatz, method="svd")
            diff = norm_difference(ss.rho, rho_clean)
            row = {
                "n_spins": spec.n_spins,
                "eps": float(eps),
                "lambda1": lam1,
                "lambda2": float(result.spectrum[1]),
                "verdict": result.verdict,
                "state_diff": diff,
                "solution": solution,
                "gamma_eigenvalues": gev,
                "gamma_min": float(gev[0]),
                "n_negative_gamma": n_negative,
                "markovian": solution["markovian"],
                "unique": ss.unique,
                "steady_state_method": ss.method,
                "steady_state_fallback": ss.fallback,
                "uniqueness_bound": ss.uniqueness_bound,
                "rapidity_residual": solution["rapidity_residual"],
            }
            if weak:
                repaired = repair_markovianity(params)
                ss_rep = steady_state_of(repaired, model.ansatz, method="lu")
                diff_rep = norm_difference(ss_rep.rho, rho_clean)
                row["state_diff_repaired"] = diff_rep
                row["steady_state_method_repaired"] = ss_rep.method
                row["steady_state_residual_repaired"] = ss_rep.residual
                row["repaired_gamma_eigenvalues"] = repaired.gamma_eigenvalues
            rows_payload.append(row)
    return {
        "rows": rows_payload,
        "solutions": [row["solution"] for row in rows_payload],
        "fits": _fit_rows(rows_payload, weak),
    }


def _scaling_table(config: RunConfig, results: dict) -> tuple[list[str], list[list]]:
    """``scaling.csv`` of a robustness sweep: one line per row."""
    keys = ["n_spins", "eps", "lambda1", "state_diff", "gamma_min"]
    if config.regime == "weak":
        keys += ["n_negative_gamma", "state_diff_repaired"]
    keys.append("unique")
    return ["N"] + keys[1:], [[row[key] for key in keys] for row in results["rows"]]


def _fit_rows(rows: list[dict], weak: bool) -> dict:
    """Log-log fits of lambda1 and state_diff against eps at every N and,
    with three or more sizes, against N at every eps."""

    def series(key: str, axis: str, at) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (x, y) of ``key`` against ``axis`` ("eps" or "n_spins")
        over the rows where the other axis equals ``at``."""
        other = "n_spins" if axis == "eps" else "eps"
        pts = sorted((row[axis], row[key]) for row in rows if row[other] == at)
        return np.array([p[0] for p in pts], dtype=float), np.array([p[1] for p in pts])

    n_values = sorted({row["n_spins"] for row in rows})
    eps_values = sorted({row["eps"] for row in rows}) if len(n_values) >= 3 else []
    fits: dict = {
        "per_N": {str(n): {} for n in n_values},
        "per_eps": {repr(float(eps)): {} for eps in eps_values},
    }
    for key in ("lambda1", "state_diff"):
        by_n = [loglog_fit(*series(key, "eps", n)) for n in n_values]
        by_eps = [loglog_fit(*series(key, "n_spins", eps)) for eps in eps_values]
        for entry, fit in zip(fits["per_N"].values(), by_n):
            entry[f"{key}_slope"], entry[f"{key}_r2"] = fit.slope, fit.r_squared
        for entry, fit in zip(fits["per_eps"].values(), by_eps):
            entry[f"{key}_slope"] = fit.slope
        fits[key] = {
            "slope_eps": float(np.mean([fit.slope for fit in by_n])),
            "r2_eps": float(np.mean([fit.r_squared for fit in by_n])),
            "slope_N": float(np.mean([fit.slope for fit in by_eps])) if by_eps else None,
        }
    if weak:
        for n, entry in zip(n_values, fits["per_N"].values()):
            for key in ("state_diff", "state_diff_repaired"):
                entry[f"{key}_two_segment"] = _two_segment_fit(*series(key, "eps", n))
    return fits


def _run_feasibility(config: RunConfig) -> dict:
    """Deliberately impoverished ansatz: a lone decay jump, no drives."""
    (spec,) = config.specs()
    model = models.build_model(spec)
    ansatz = LindbladAnsatz(h_ops=(), jump_ops=model.ansatz.jump_operators[:1])
    result = reverse_engineer(ansatz, model.rho_ss, config.tol_null)
    # with no drive and one jump, R is 1 x 1 and gamma = [[g]] has rapidity (R g)^2
    grid = np.linspace(-2.0, 2.0, 401)
    gammas = grid[np.abs(grid) >= 1e-9]
    scan = (result.factor[0, 0] * gammas) ** 2 / gammas**2
    unit = LindbladianParams(c=np.zeros(0), gamma=np.array([[1.0]], dtype=complex))
    return {
        "spectrum": result.spectrum,
        "kernel_dim": result.kernel_dim,
        "verdict": result.verdict,
        "solutions": [_params_payload(p, result) for p in result.solutions],
        "min_eigenvalue": float(result.spectrum[0]),
        "brute_force": {
            "grid_points": len(gammas),
            "min_normalized_rapidity": float(np.min(scan)),
            "unit_family_rapidity": result.rapidity(unit),
        },
    }


def run_experiment(config: RunConfig) -> dict:
    """Execute one experiment and write its artifacts under ``config.out_dir``.

    Returns the full report dictionary (also written to ``report.json``).
    Whichever of ``solutions.json`` and ``scaling.csv`` this run does not
    write (a failed run writes neither) is removed, so no earlier run's copy
    stays behind.
    """
    config.validate()
    experiment = EXPERIMENTS[config.experiment]
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    error = None
    results: dict = {}
    try:
        results = experiment.run(config)
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
    solutions = results.get("solutions")
    if solutions is not None:
        write_json(out / "solutions.json", {"solutions": solutions})
    else:
        (out / "solutions.json").unlink(missing_ok=True)
    if experiment.table is not None and error is None:
        write_csv(out / "scaling.csv", *experiment.table(config, results))
    else:
        (out / "scaling.csv").unlink(missing_ok=True)
    return report


def _parse_int_grid(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ".." in text:
            span, _, step = text.partition(":")
            start, _, stop = span.partition("..")
            step_val = int(step) if step else 1
            if step_val < 1:
                raise ConfigInvalidError(f"range step must be at least 1: {text!r}")
            return tuple(range(int(start), int(stop) + 1, step_val))
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise ConfigInvalidError(f"cannot parse integer grid {text!r}") from exc


def _parse_float_grid(text: str) -> tuple[float, ...]:
    text = text.strip()
    try:
        if ".." in text:
            span, _, count = text.partition(":")
            lo, hi = (float(bound) for bound in span.split(".."))
            n = int(count) if count else 9
            if not all(0 < bound < np.inf for bound in (lo, hi)):
                raise ConfigInvalidError(
                    f"range bounds must be positive and finite: {text!r}"
                )
            return tuple(float(x) for x in np.logspace(np.log10(lo), np.log10(hi), n))
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise ConfigInvalidError(f"cannot parse float grid {text!r}") from exc


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigInvalidError(f"cannot parse complex number {text!r}") from exc


@dataclass(frozen=True)
class Flag:
    """Command-line flag that sets the ``RunConfig`` field ``dest``.

    ``parse`` turns the flag's text into the field's value when the config is
    built, as for ``--alpha``, ``--N`` and ``--eps``; ``options`` are passed
    on to ``argparse``.
    """

    name: str
    dest: str
    parse: Callable[[str], object] | None = None
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Experiment:
    """One subcommand: help line, runner, own flags and, for sweeps, the
    function that tabulates the results as ``scaling.csv``."""

    help: str
    run: Callable[[RunConfig], dict]
    flags: tuple[Flag, ...]
    table: Callable[[RunConfig, dict], tuple[list[str], list[list]]] | None = None


COMMON_FLAGS = (
    Flag("--out", "out_dir", options={"help": "output directory"}),
    Flag("--tol-null", "tol_null", options={"type": float}),
)
_N_MAX = Flag("--n-max", "n_max", options={"type": int, "help": "Fock cutoff override"})
_ALPHA = Flag("--alpha", "alpha", _parse_complex)
_N_GRID = Flag("--N", "n_list", _parse_int_grid, {"help": "e.g. 10,20,40 or 10..60:10"})
_KAPPA = Flag("--kappa", "kappa", options={"type": float})
_RATIO = Flag("--omega-over-kappa", "omega_over_kappa", options={"type": float})

EXPERIMENTS = {
    "coherent": Experiment("coherent target, linear ansatz", _run_coherent, (_ALPHA, _N_MAX)),
    "squeezed": Experiment(
        "squeezed-vacuum target, quadratic drives",
        _run_squeezed,
        (
            Flag("--r", "r", options={"type": float}),
            Flag("--theta", "theta", options={"type": float}),
            Flag("--jumps", "jumps",
                 options={"choices": [models.SINGLE_JUMPS, models.TWO_JUMPS]}),
            _N_MAX,
        ),
    ),
    "collective": Experiment(
        "driven-dissipative collective spins",
        _run_collective,
        (_N_GRID, _RATIO, _KAPPA),
    ),
    "robustness": Experiment(
        "noise-mixed collective target sweeps",
        _run_robustness,
        (
            Flag("--regime", "regime", options={"choices": ["strong", "weak"]}),
            _N_GRID,
            Flag("--eps", "eps_list", _parse_float_grid, {"help": "e.g. 1e-4..1e-2:9"}),
            _RATIO,
            _KAPPA,
        ),
        table=_scaling_table,
    ),
    "feasibility": Experiment(
        "no-go check on an impoverished ansatz",
        _run_feasibility,
        (_ALPHA, _N_MAX, Flag("--require-feasible", "require_feasible",
                              options={"action": "store_true"})),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindrec",
        description="Reconstruct Lindblad generators for target steady states.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, experiment in EXPERIMENTS.items():
        p = sub.add_parser(name, help=experiment.help)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        # every flag defaults to None, which leaves the config's value in place
        for flag in COMMON_FLAGS + experiment.flags:
            p.add_argument(flag.name, dest=flag.dest, default=None, **flag.options)
    return parser


def _from_json(key: str, value, hint):
    """Config-file ``value`` of the field ``key`` as the field's type ``hint``
    (a list becomes a tuple, [re, im] a complex), or ``ConfigInvalidError``."""
    if type(None) in typing.get_args(hint):  # X | None
        hint = type(None) if value is None else typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        if isinstance(value, list):
            return tuple(_from_json(key, item, typing.get_args(hint)[0]) for item in value)
    elif hint is complex and isinstance(value, list) and len(value) == 2:
        return complex(*(_from_json(key, part, float) for part in value))
    # bool is a subclass of int, so it is matched on its own
    elif isinstance(value, bool) == (hint is bool) and isinstance(
        value, (int, float) if hint in (float, complex) else hint
    ):
        return value
    raise ConfigInvalidError(f"config key {key!r} has the wrong type: {value!r}")


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
    # a config file sets only the fields of the subcommand's own flags
    flags = COMMON_FLAGS + EXPERIMENTS[args.experiment].flags
    unknown = set(values) - {flag.dest for flag in flags}
    if unknown:
        raise ConfigInvalidError(f"unknown config keys: {sorted(unknown)}")
    hints = typing.get_type_hints(RunConfig)
    values = {key: _from_json(key, value, hints[key]) for key, value in values.items()}
    config = RunConfig(experiment=args.experiment, **values)
    for flag in flags:
        value = getattr(args, flag.dest)
        if value is not None:
            setattr(config, flag.dest, flag.parse(value) if flag.parse else value)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        report = run_experiment(config)
    except ConfigInvalidError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
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
