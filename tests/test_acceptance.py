"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and runtime
budget and prints a [PASS]/[FAIL] line; run with ``pytest -v -s`` to see the
lines stream.  The robustness sweeps are shared module-scoped fixtures so the
two regime criteria reuse one run each.
"""

import json
import time

import numpy as np
import pytest

from lindrec.cli import RunConfig, run_experiment
from lindrec.engine import (
    LindbladAnsatz,
    LindbladianParams,
    markovian_postselect,
    markovian_superposition_search,
    rapidity,
    reverse_engineer,
    unpack_kernel_vector,
)
from lindrec.models import (
    CoherentSpec,
    CollectiveSpec,
    SqueezedSpec,
    analytic_corr_matrix,
    analytic_kernel_vectors,
    build_model,
)
from lindrec.quantum_ops import boson_ops, coherent_state
from lindrec.verification import norm_difference, steady_state_of

from conftest import (
    ansatz_matrices,
    correlation_matrix,
    random_ansatz,
    random_density,
    random_params,
)

R_GRID = (0.25, 0.5, 1.0)
THETA_GRID = (0.0, np.pi / 3)


class CriterionTimer:
    """Times a criterion block against its budget and prints the outcome.

    ``fixture_seconds`` is work done before the block, in a shared fixture;
    it is added to the printed runtime only, since a criterion that uses a
    fixture asserts the fixture's own runtime against the budget itself.
    """

    def __init__(self, name, budget_seconds, fixture_seconds=0.0):
        self.name = name
        self.budget = budget_seconds
        self.fixture_seconds = fixture_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        shown = self.fixture_seconds + elapsed
        print(f"[{status}] {self.name} ({shown:.1f}s / budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.name}: runtime {elapsed:.1f}s exceeds {self.budget}s"
            )
        return False


def vector_angle(a, b):
    """Sine of the angle between two complex directions, stable near zero."""
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return float(np.linalg.norm(b - a * np.vdot(a, b)))


def operator_alignment(a, b):
    """|<A, B>| / (||A|| ||B||); 1 exactly when A and B agree up to scale."""
    return abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


@pytest.fixture(scope="module")
def strong_robustness(tmp_path_factory):
    config = RunConfig(
        experiment="robustness",
        regime="strong",
        out_dir=str(tmp_path_factory.mktemp("strong")),
    )
    started = time.perf_counter()
    report = run_experiment(config)
    report["_elapsed"] = time.perf_counter() - started
    return report


@pytest.fixture(scope="module")
def weak_robustness(tmp_path_factory):
    config = RunConfig(
        experiment="robustness",
        regime="weak",
        out_dir=str(tmp_path_factory.mktemp("weak")),
    )
    started = time.perf_counter()
    report = run_experiment(config)
    report["_elapsed"] = time.perf_counter() - started
    return report


def test_criterion_01_rapidity_identity(rng):
    with CriterionTimer("criterion 1: rapidity equals the quadratic form", 10):
        checked = 0
        while checked < 200:
            dim = int(rng.integers(2, 9))
            n_drive = int(rng.integers(0, 4))
            n_jump = int(rng.integers(1, 4))
            if n_drive == 0 and n_jump == 0:
                continue
            ansatz = random_ansatz(rng, dim, n_drive, n_jump)
            params = random_params(rng, n_drive, n_jump)
            rho = random_density(rng, dim)
            phi = params.to_vector()
            quad = float((phi.conj() @ correlation_matrix(ansatz, rho) @ phi).real)
            value = rapidity(params, ansatz, rho)
            assert abs(value - quad) <= 1e-9 * (1 + value)
            checked += 1


def test_criterion_02_coherent_reconstruction():
    with CriterionTimer("criterion 2: coherent targets reconstructed", 5):
        for alpha in (1.0, 1 + 1j, 2j):
            model = build_model(CoherentSpec(alpha=alpha, n_max=40))
            res = reverse_engineer(model.ansatz, model.rho_ss)
            assert res.kernel_dim == 1, f"alpha={alpha}"
            analytic = analytic_kernel_vectors(model.spec)[0]
            assert vector_angle(analytic, res.kernel_vectors[0]) < 1e-8
            sol = res.solutions[0]
            out = steady_state_of(sol, model.ansatz, method="lu")
            assert norm_difference(out.rho, model.rho_ss) < 1e-7


def test_criterion_03_squeezed_single_particle_jumps():
    with CriterionTimer("criterion 3: squeezed target, single-particle jumps", 60):
        for r in R_GRID:
            for theta in THETA_GRID:
                spec = SqueezedSpec(r=r, theta=theta)
                model = build_model(spec)
                res = reverse_engineer(model.ansatz, model.rho_ss)
                assert res.kernel_dim == 3, f"r={r} theta={theta}"
                analytic = analytic_kernel_vectors(spec)
                q_num, _ = np.linalg.qr(np.array(res.kernel_vectors).T)
                q_ana, _ = np.linalg.qr(np.array(analytic).T)
                resid = q_ana - q_num @ (q_num.conj().T @ q_ana)
                assert np.linalg.norm(resid, 2) < 1e-6
                unpacked = [unpack_kernel_vector(v, 2, 2) for v in analytic]
                np.testing.assert_allclose(
                    unpacked[0].gamma_eigenvalues, [-1.0, 1.0], atol=1e-8
                )
                np.testing.assert_allclose(
                    unpacked[1].gamma_eigenvalues,
                    [-np.cosh(2 * r), np.cosh(2 * r)],
                    atol=1e-8,
                )
                kept = markovian_postselect(unpacked)
                assert len(kept) == 1
                assert np.allclose(kept[0].c, 0.0, atol=1e-12)
                basis = [v / np.linalg.norm(v) for v in analytic]
                search = markovian_superposition_search(basis, 2, 2)
                assert len(search.solutions) >= 1
                for sol in search.solutions:
                    coeffs = np.linalg.lstsq(np.array(basis).T, sol.to_vector(), rcond=None)[0]
                    assert abs(coeffs[0]) <= 1e-6 * abs(coeffs[2])
                    assert abs(coeffs[1]) <= 1e-6 * abs(coeffs[2])
                assert search.direction_supported == [False, False, True]


def test_criterion_04_squeezed_two_particle_jumps():
    with CriterionTimer("criterion 4: squeezed target, two-particle jumps", 60):
        for r in R_GRID:
            for theta in THETA_GRID:
                spec = SqueezedSpec(r=r, theta=theta, jumps="two")
                model = build_model(spec)
                res = reverse_engineer(model.ansatz, model.rho_ss)
                assert res.kernel_dim == 1, f"r={r} theta={theta}"
                analytic = analytic_kernel_vectors(spec)[0]
                assert vector_angle(analytic, res.kernel_vectors[0]) < 1e-8
                sol = res.solutions[0]
                # the recovered Hamiltonian matches i sinh(4r) (e^{-it}a^2 - h.c.)
                a = boson_ops(model.ansatz.dim - 1).a.dense()
                a2 = a @ a
                h_expected = (
                    1j
                    * np.sinh(4 * r)
                    * (np.exp(-1j * theta) * a2 - np.exp(1j * theta) * a2.conj().T)
                )
                drives, jumps = ansatz_matrices(model.ansatz)
                h_recovered = sum(c * h for c, h in zip(sol.c, drives))
                assert 1 - operator_alignment(h_recovered, h_expected) < 1e-7
                # rank-1 rate matrix gives one effective jump operator
                gev, gvec = np.linalg.eigh(sol.gamma)
                assert gev[0] > -1e-10
                w = gvec[:, -1]
                jump_recovered = sum(wj * l for wj, l in zip(w, jumps))
                jump_expected = -np.exp(-2j * theta) * np.sqrt(2) * (
                    np.cosh(2 * r) + 1
                ) * a2 + np.sqrt(2) * (np.cosh(2 * r) - 1) * a2.conj().T
                assert 1 - operator_alignment(jump_recovered, jump_expected) < 1e-7


def test_criterion_05_closed_form_oracle():
    with CriterionTimer("criterion 5: closed-form correlation matrices", 120):
        for jumps in ("single", "two"):
            for r in (0.0,) + R_GRID:
                for theta in (0.0, np.pi / 3, np.pi):
                    spec = SqueezedSpec(r=r, theta=theta, jumps=jumps)
                    model = build_model(spec)
                    numeric = correlation_matrix(model.ansatz, model.rho_ss)
                    closed = analytic_corr_matrix(spec)
                    assert np.allclose(numeric, closed, atol=1e-8, rtol=1e-8), (
                        f"jumps={jumps} r={r} theta={theta}"
                    )
        # truncation convergence gate: doubling the cutoff is inert
        spec = SqueezedSpec(r=1.0, theta=np.pi / 3, jumps="two")
        base = build_model(spec)
        doubled = build_model(
            SqueezedSpec(r=1.0, theta=np.pi / 3, jumps="two", n_max=2 * base.ansatz.dim)
        )
        m_base = correlation_matrix(base.ansatz, base.rho_ss)
        m_doubled = correlation_matrix(doubled.ansatz, doubled.rho_ss)
        assert np.allclose(m_base, m_doubled, atol=1e-8, rtol=1e-8)


def test_criterion_06_collective_spin_reconstruction():
    with CriterionTimer("criterion 6: collective spin model", 120):
        second_eigs = []
        for n_spins in (10, 20, 40, 60):
            spec = CollectiveSpec(n_spins=n_spins, omega0=2.0, kappa=1.0)
            model = build_model(spec)
            res = reverse_engineer(model.ansatz, model.rho_ss)
            assert res.kernel_dim == 1, f"N={n_spins}"
            second_eigs.append(float(res.spectrum[1]))
            sol = res.solutions[0]
            phi_norm = np.linalg.norm(sol.to_vector())
            assert abs(sol.c[1]) < 1e-10 * phi_norm
            assert abs(sol.c[2]) < 1e-10 * phi_norm
            g = sol.gamma
            for k in range(3):
                assert abs(g[2, k]) < 1e-10 * phi_norm
                assert abs(g[k, 2]) < 1e-10 * phi_norm
            for k in range(2):
                assert abs(abs(g[0, k]) - abs(g[1, k])) < 1e-10 * phi_norm
            # the decay channel S- = Sx - i Sy fixes the cross phase:
            # gamma_12/gamma_11 = +i (the conjugate ordering is gamma_21)
            assert abs(g[0, 1] / g[0, 0] - 1j) < 1e-8
            assert abs(g[1, 0] / g[0, 0] + 1j) < 1e-8
            ratio = sol.c[0] / g[0, 0]
            assert abs(ratio.imag) < 1e-8
            assert ratio.real > 0
            gev = sol.gamma_eigenvalues
            above = np.sum(gev > 1e-10 * max(1.0, gev[-1]))
            assert above == 1
        assert all(b < a for a, b in zip(second_eigs, second_eigs[1:]))


def test_criterion_07_strong_regime_robustness(strong_robustness):
    with CriterionTimer(
        "criterion 7: strong-regime noise scalings",
        300,
        fixture_seconds=strong_robustness["_elapsed"],
    ):
        fits = strong_robustness["results"]["fits"]
        rows = strong_robustness["results"]["rows"]
        for entry in fits["per_N"].values():
            assert 1.9 <= entry["lambda1_slope"] <= 2.1
            assert entry["lambda1_r2"] > 0.99
            assert 0.9 <= entry["state_diff_slope"] <= 1.1
        assert -1.2 <= fits["lambda1"]["slope_N"] <= -0.8
        assert -1.8 <= fits["state_diff"]["slope_N"] <= -1.2
        for row in rows:
            assert row["markovian"], f"negative rate at N={row['n_spins']} eps={row['eps']}"
            assert row["unique"]
            assert row["lambda1"] > 0
        assert strong_robustness["_elapsed"] < 300


def test_criterion_08_weak_regime_robustness(weak_robustness):
    with CriterionTimer(
        "criterion 8: weak-regime repair and scalings",
        300,
        fixture_seconds=weak_robustness["_elapsed"],
    ):
        fits = weak_robustness["results"]["fits"]
        rows = weak_robustness["results"]["rows"]
        knees = {}
        for n_key, entry in fits["per_N"].items():
            assert 1.9 <= entry["lambda1_slope"] <= 2.1
            two_seg = entry["state_diff_two_segment"]
            knees[int(n_key)] = two_seg["knee_eps"]
            assert 0.8 <= two_seg["slope_small_eps"] <= 1.2
        for row in rows:
            # the single negative rate eigenvalue is a scaling-regime
            # feature: asserted below the saturation knee for each size
            if row["eps"] < knees[row["n_spins"]]:
                assert row["n_negative_gamma"] == 1, (
                    f"N={row['n_spins']} eps={row['eps']}"
                )
            assert not row["markovian"] or row["n_negative_gamma"] == 0
            # repaired generator is PSD and has a well-defined steady state
            repaired_ev = np.array(row["repaired_gamma_eigenvalues"])
            assert repaired_ev.min() >= -1e-10 * max(1.0, repaired_ev.max())
            assert np.isfinite(row["state_diff_repaired"])
            assert row["state_diff_repaired"] >= 0
        assert weak_robustness["_elapsed"] < 300


def test_criterion_09_no_go_verdict():
    with CriterionTimer("criterion 9: infeasibility certificate", 30):
        alpha = 1.0
        ops = boson_ops(40)
        rho = coherent_state(40, alpha)
        ansatz = LindbladAnsatz(h_ops=(), jump_ops=(ops.a,))
        res = reverse_engineer(ansatz, rho)
        assert res.verdict == "infeasible"
        assert res.spectrum[0] > 1e-3
        # independent certificate: scan the whole one-parameter family
        rates = np.linspace(-2.0, 2.0, 401)
        normalized = [
            rapidity(
                LindbladianParams(c=np.zeros(0), gamma=np.array([[g]], dtype=complex)),
                ansatz,
                rho,
            )
            / g**2
            for g in rates
            if abs(g) > 1e-9
        ]
        assert min(normalized) > 1e-3


def test_criterion_10_deterministic_reports(tmp_path):
    with CriterionTimer("criterion 10: byte-identical reports", 120):
        out = tmp_path / "run"
        config = dict(
            experiment="collective",
            n_list=(10, 20, 40, 60),
            omega_over_kappa=2.0,
            out_dir=str(out),
        )
        run_experiment(RunConfig(**config))
        first = (out / "report.json").read_bytes()
        run_experiment(RunConfig(**config))
        second = (out / "report.json").read_bytes()
        doc_a = json.loads(first)
        doc_b = json.loads(second)
        doc_a.pop("meta")
        doc_b.pop("meta")
        canon_a = json.dumps(doc_a, sort_keys=True).encode()
        canon_b = json.dumps(doc_b, sort_keys=True).encode()
        assert canon_a == canon_b
