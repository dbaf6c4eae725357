"""Target-state families, their operator ansatz catalogs, and the
closed-form oracles (kernel vectors and correlation matrices) used to
cross-check the numerical pipeline.

The closed-form expressions are transcribed once and kept on a separate
code path from the numerical Gram builder, so each side independently
validates the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .engine import LindbladAnsatz, LindbladianParams, apply_lindbladian
from .errors import DegenerateParamsError, DimMismatchError, UnsupportedVariantError
from .quantum_ops import (
    SpinOps,
    boson_ops,
    coherent_cutoff,
    coherent_state,
    spin_ops,
    squeezed_cutoff,
    squeezed_vacuum,
)

SINGLE_JUMPS = "single"
TWO_JUMPS = "two"
FULL_BASIS = "full3"
XY_BASIS = "xy2"


def _check_cutoff(n_max) -> None:
    """A Fock cutoff is None (the default rule) or an integer >= 1; a bool is no integer."""
    integer = isinstance(n_max, (int, np.integer)) and not isinstance(n_max, bool)
    if not (n_max is None or integer and n_max >= 1):
        raise ValueError("n_max must be None or an integer >= 1")


@dataclass(frozen=True)
class CoherentSpec:
    """Coherent target |alpha><alpha| with linear drive and jump operators."""

    alpha: complex
    n_max: int | None = None

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        _check_cutoff(self.n_max)


@dataclass(frozen=True)
class SqueezedSpec:
    """Squeezed-vacuum target with quadratic drives and single- or
    two-particle jump operators."""

    r: float
    theta: float = 0.0
    jumps: str = SINGLE_JUMPS
    n_max: int | None = None

    def __post_init__(self):
        if not 0 <= self.r < np.inf:
            raise ValueError("r must be finite and >= 0")
        if not np.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.jumps not in (SINGLE_JUMPS, TWO_JUMPS):
            raise ValueError(f"jumps must be '{SINGLE_JUMPS}' or '{TWO_JUMPS}'")
        _check_cutoff(self.n_max)


@dataclass(frozen=True)
class CollectiveSpec:
    """Driven-dissipative collective spin target on the maximal sector."""

    n_spins: int
    omega0: float
    kappa: float
    basis: str = FULL_BASIS

    def __post_init__(self):
        if self.n_spins < 2:
            raise ValueError("n_spins must be >= 2")
        if not 0 < self.kappa < np.inf:
            raise ValueError("kappa must be finite and > 0")
        if not 0 < abs(self.omega0) < np.inf:
            raise ValueError("omega0 must be finite and nonzero")
        if not 0 < abs(float(self.omega0) / float(self.kappa)) < np.inf:
            raise ValueError("omega0/kappa must be finite and nonzero")
        if self.basis not in (FULL_BASIS, XY_BASIS):
            raise ValueError(f"basis must be '{FULL_BASIS}' or '{XY_BASIS}'")


ModelSpec = Union[CoherentSpec, SqueezedSpec, CollectiveSpec]

# Largest Hilbert-space dimension d an experiment may build.  The d x d
# state, 67 MB at d = 2048, sets the memory: the ansatz holds the model
# operators by their diagonals, and the term images are formed and folded a
# block of rows at a time, no block outweighing the state.
# The default Fock cutoffs stay below it up to |alpha| ~ 14 and r ~ 2.25.
MAX_HILBERT_DIM = 2048

# Columns of eta eta^dag formed per product in ``collective_steady_state``.
STATE_BLOCK_COLUMNS = 32


def default_cutoff(spec: CoherentSpec | SqueezedSpec) -> int:
    """Fock cutoff large enough for a truncation tail below ~1e-18.

    It starts from the floor the state's constructor enforces.  The rule
    grows without limit in |alpha| and r, so the result is clipped to
    ``MAX_HILBERT_DIM``: a clipped cutoff gives a dimension (cutoff + 1)
    above the bound, as the unclipped one would.
    """
    if isinstance(spec, CoherentSpec):
        need = coherent_cutoff(spec.alpha)
    else:
        need = squeezed_cutoff(spec.r)
        t2 = np.tanh(spec.r) ** 2
        if t2 == 1:  # the even-Fock tail no longer decays in double precision
            need = np.inf
        elif t2 > 0:
            pairs = np.ceil(np.log(1e-18 * (1 - t2)) / np.log(t2))
            need = max(need, 2 * pairs + 8)
    return int(min(max(40.0, np.ceil(need)), MAX_HILBERT_DIM))


def hilbert_dim(spec: ModelSpec) -> int:
    """Hilbert-space dimension of the model ``build_model(spec)`` builds:
    n_spins + 1 for a collective target, and for a Fock target one more
    than ``n_max``, or than ``default_cutoff(spec)`` when ``n_max`` is None."""
    if isinstance(spec, CollectiveSpec):
        return spec.n_spins + 1
    return (default_cutoff(spec) if spec.n_max is None else spec.n_max) + 1


@dataclass(frozen=True)
class Model:
    spec: ModelSpec
    ansatz: LindbladAnsatz
    rho_ss: np.ndarray


def build_model(spec: ModelSpec) -> Model:
    """Target state plus the operator basis for the reconstruction.

    Coherent: drives {x, p}, jumps {a, a_dag}.  Squeezed: quadratic drives
    {(a^2 + ad^2)/sqrt2, (a^2 - ad^2)/(i sqrt2)} with jumps {a, a_dag} or
    {a^2, ad^2}.  Collective: drives and jumps both {Sx, Sy, Sz} (full) or
    {Sx, Sy} (reduced).
    """
    if isinstance(spec, CollectiveSpec):
        ops = spin_ops(spec.n_spins)
        if spec.basis == FULL_BASIS:
            drives = (ops.sx, ops.sy, ops.sz)
            jumps = drives
        else:
            # reduced basis for the noise-robustness sweeps; jumps carry the
            # intensive 1/sqrt(S) normalization so the recovered rate matrix
            # is size-independent and the smallest correlation-matrix
            # eigenvalue follows its 1/N decay
            scale = np.sqrt(spec.n_spins / 2.0)
            drives = (ops.sx, ops.sy)
            jumps = (ops.sx / scale, ops.sy / scale)
        ansatz = LindbladAnsatz(h_ops=drives, jump_ops=jumps)
        return Model(spec=spec, ansatz=ansatz, rho_ss=collective_steady_state(spec, ops))
    if not isinstance(spec, (CoherentSpec, SqueezedSpec)):
        raise UnsupportedVariantError(f"unknown spec type {type(spec)!r}")
    n_max = hilbert_dim(spec) - 1
    ops = boson_ops(n_max)
    if isinstance(spec, CoherentSpec):
        ansatz = LindbladAnsatz(
            h_ops=(ops.x, ops.p), jump_ops=(ops.a, ops.a_dag)
        )
        return Model(spec=spec, ansatz=ansatz, rho_ss=coherent_state(n_max, spec.alpha))
    a2, ad2 = ops.a @ ops.a, ops.a_dag @ ops.a_dag
    drives = ((a2 + ad2) / np.sqrt(2), (a2 - ad2) / (1j * np.sqrt(2)))
    jumps = (ops.a, ops.a_dag) if spec.jumps == SINGLE_JUMPS else (a2, ad2)
    ansatz = LindbladAnsatz(h_ops=drives, jump_ops=jumps)
    return Model(
        spec=spec,
        ansatz=ansatz,
        rho_ss=squeezed_vacuum(n_max, spec.r, spec.theta),
    )


def collective_generator_params(spec: CollectiveSpec) -> LindbladianParams:
    """Exact generator parameters of the driven-dissipative collective model
    expressed in the model's reconstruction basis.

    Drive omega0 along Sx; the collective decay channel S- = Sx - i Sy at
    rate kappa/S appears as the rank-1 rate matrix (kappa/S) w w^dag with
    w = (1, -i, 0), i.e. gamma_12 = +i kappa/S and gamma_21 = -i kappa/S.
    In the reduced basis the jumps carry 1/sqrt(S), so the rate block is
    kappa w w^dag instead.
    """
    s = spec.n_spins / 2.0
    if spec.basis == FULL_BASIS:
        c = np.array([spec.omega0, 0.0, 0.0])
        gamma = (spec.kappa / s) * np.array(
            [[1.0, 1.0j, 0.0], [-1.0j, 1.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex
        )
    else:
        c = np.array([spec.omega0, 0.0])
        gamma = spec.kappa * np.array([[1.0, 1.0j], [-1.0j, 1.0]], dtype=complex)
    return LindbladianParams(c=c, gamma=gamma)


def collective_steady_state(spec: CollectiveSpec, ops: SpinOps) -> np.ndarray:
    """Analytic steady state of the driven-dissipative collective spin model
    ``spec``, built from the spin operators ``ops`` of its sector.

    eta = sum_{j=0}^{N} (S_- / beta)^j with beta = -i omega0 N / (2 kappa);
    powers beyond j = N vanish by ladder nilpotency.  S_- has a single
    nonzero subdiagonal, so eta is lower triangular with
    eta[c + j, c] = prod_{t=c+1..c+j} S_-[t, t-1] / beta, built in O(d^2) as a
    column-wise cumulative product, scaled by a power of two when its
    squares would overflow (``DegenerateParamsError`` when no scaling holds
    them, at weak drive and large N).  The density matrix is eta eta^dag,
    formed ``STATE_BLOCK_COLUMNS`` columns at a time, normalized and made
    exactly Hermitian in place, so at most two d x d arrays are held (this
    product ordering is the one annihilated by the generator; the
    construction is verified to 1e-10 before returning, through
    ``apply_lindbladian``, against the generator divided by kappa, so that
    the state and its check read the model through omega0/kappa alone).
    Operators of another sector raise ``DimMismatchError``: the residual
    cannot catch them, since the same eta is the steady state of that
    sector too.
    """
    n_spins, ratio = spec.n_spins, spec.omega0 / spec.kappa
    dim = n_spins + 1
    if ops.sm.shape != (dim, dim):
        raise DimMismatchError(f"spin operators of shape {ops.sm.shape} for N = {n_spins}")
    beta = -1j * ratio * n_spins / 2.0
    step = ops.sm.diagonal(-1) / beta
    # log2 of the largest ladder product, the largest entry of eta
    log_products = np.concatenate(([0.0], np.cumsum(np.log2(np.abs(step)))))
    top = float(np.max(log_products - np.minimum.accumulate(log_products)))
    # eta eta^dag sums at most d^2 squared entries of eta, so every column
    # starts at 2^-k when the squares would leave the float range; a power
    # of two scales exactly, and the trace normalization removes it
    floats = np.finfo(float)
    shift = max(0.0, np.ceil(top + np.log2(dim) - (floats.maxexp - 1) / 2))
    if not shift <= -floats.minexp:  # 2^-k is a normal float
        raise DegenerateParamsError(
            f"ladder products of the steady state span 2^{top:.0f}, beyond the float range"
        )
    # eta[i, c] starts as S_-[i, i-1] / beta below the diagonal, 2^-k on
    # the first row and 1 elsewhere, so the cumulative product down column c
    # is 2^-k up to row c and then 2^-k times the ladder product; the upper
    # triangle is then zeroed
    rows = np.arange(dim)
    sub = np.concatenate(([1.0], step))
    eta = np.where(rows[:, None] > rows[None, :], sub[:, None], 1.0)
    eta[0] = 2.0**-shift
    np.cumprod(eta, axis=0, out=eta)
    for row in range(dim - 1):
        eta[row, row + 1:] = 0
    rho = np.empty_like(eta)
    # the blocks start at multiples of STATE_BLOCK_COLUMNS and the last one
    # takes the final 9 to 40 columns: BLAS sums a product of a few columns
    # in another order, and these give the bits of the one product
    edges = [*range(0, max(1, dim - 8), STATE_BLOCK_COLUMNS), dim]
    for lo, hi in zip(edges[:-1], edges[1:]):
        rho[:, lo:hi] = eta @ eta[lo:hi].conj().T
    del eta  # released before the residual check forms its images
    rho /= np.trace(rho).real
    rho += rho.conj().T  # exactly Hermitian, so hermitian_part keeps it
    rho /= 2
    ansatz = LindbladAnsatz(h_ops=(ops.sx,), jump_ops=(ops.sm,))
    params = LindbladianParams(
        c=np.array([ratio]),
        gamma=np.array([[1 / (n_spins / 2.0)]], dtype=complex),
    )
    residual = float(np.linalg.norm(apply_lindbladian(params, ansatz, rho)))
    if not residual <= 1e-10:
        raise DegenerateParamsError(
            f"steady-state residual {residual:.3e} exceeds 1e-10"
        )
    return rho


def analytic_kernel_vectors(spec: ModelSpec) -> list[np.ndarray]:
    """Closed-form null vectors of the correlation matrix, in index-map order.

    Coherent and two-particle squeezed targets have a one-dimensional kernel;
    the single-particle squeezed target has the three orthogonal directions
    (two with indefinite rate matrices, one purely dissipative).
    """
    if isinstance(spec, CoherentSpec):
        al = complex(spec.alpha)
        return [
            np.array(
                [
                    1j * np.sqrt(2) / 4 * (al - al.conjugate()),
                    np.sqrt(2) / 4 * (al + al.conjugate()),
                    1.0,
                    0.0,
                    0.0,
                    0.0,
                ],
                dtype=complex,
            )
        ]
    if isinstance(spec, SqueezedSpec):
        r, th = spec.r, spec.theta
        ch2, sh2 = np.cosh(2 * r), np.sinh(2 * r)
        if spec.jumps == SINGLE_JUMPS:
            v1 = np.array(
                [
                    -np.sqrt(2) / 2 * np.sin(th),
                    np.sqrt(2) / 2 * np.cos(th),
                    -np.tanh(2 * r),
                    np.exp(-1j * th) / ch2,
                    np.exp(1j * th) / ch2,
                    np.tanh(2 * r),
                ],
                dtype=complex,
            )
            v2 = np.array(
                [
                    np.sqrt(2) / 2 * np.cos(th),
                    np.sqrt(2) / 2 * np.sin(th),
                    0.0,
                    1j * np.exp(-1j * th) * ch2,
                    -1j * np.exp(1j * th) * ch2,
                    0.0,
                ],
                dtype=complex,
            )
            v3 = 0.5 * np.array(
                [
                    0.0,
                    0.0,
                    ch2 + 1.0,
                    np.exp(-1j * th) * sh2,
                    np.exp(1j * th) * sh2,
                    ch2 - 1.0,
                ],
                dtype=complex,
            )
            return [v1, v2, v3]
        ch4, sh4 = np.cosh(4 * r), np.sinh(4 * r)
        return [
            np.array(
                [
                    np.sqrt(2) * np.sin(th) * sh4,
                    -np.sqrt(2) * np.cos(th) * sh4,
                    3.0 + 4.0 * ch2 + ch4,
                    np.exp(-2j * th) * (1.0 - ch4),
                    np.exp(2j * th) * (1.0 - ch4),
                    3.0 - 4.0 * ch2 + ch4,
                ],
                dtype=complex,
            )
        ]
    raise UnsupportedVariantError("closed-form kernel vectors exist only for bosonic targets")


def _hermitian_completion(upper: np.ndarray) -> np.ndarray:
    return upper + np.triu(upper, 1).conj().T


def analytic_corr_matrix(spec: ModelSpec) -> np.ndarray:
    """Closed-form correlation matrix for the bosonic targets.

    All 21 independent entries of the 6x6 matrix come from the displayed
    expressions; the lower triangle is the Hermitian completion.
    """
    if isinstance(spec, CoherentSpec):
        al = complex(spec.alpha)
        m13 = -np.sqrt(2) / 4 * 1j * (al - al.conjugate())
        m23 = -np.sqrt(2) / 4 * (al + al.conjugate())
        aa = abs(al) ** 2
        m = np.zeros((6, 6), dtype=complex)
        m[0, 0] = m[1, 1] = 1.0
        m[0, 2], m[0, 5] = m13, -m13
        m[1, 2], m[1, 5] = m23, -m23
        m[2, 2], m[2, 5] = aa / 2, -aa / 2
        m[3, 3] = m[4, 4] = 0.5
        m[5, 5] = 2.0 + aa / 2
        return _hermitian_completion(m)
    if not isinstance(spec, SqueezedSpec):
        raise UnsupportedVariantError(
            "closed-form correlation matrices exist only for bosonic targets"
        )
    r, th = spec.r, spec.theta
    ch = np.cosh
    sh = np.sinh
    m = np.zeros((6, 6), dtype=complex)
    # the drive-drive block is the same for both jump choices
    m[0, 0] = 0.5 * (3 - np.cos(2 * th) + (1 + np.cos(2 * th)) * ch(4 * r))
    m[0, 1] = 0.5 * np.sin(2 * th) * (ch(4 * r) - 1)
    m[1, 1] = 0.5 * (3 + np.cos(2 * th) + (1 - np.cos(2 * th)) * ch(4 * r))
    if spec.jumps == SINGLE_JUMPS:
        m[0, 2] = -np.sqrt(2) / 2 * np.sin(th) * sh(2 * r)
        m[0, 3] = 1j * np.sqrt(2) / 2 * ch(2 * r)
        m[0, 4] = m[0, 3].conjugate()
        m[0, 5] = -np.sqrt(2) / 2 * np.sin(th) * sh(2 * r)
        m[1, 2] = np.sqrt(2) / 2 * np.cos(th) * sh(2 * r)
        m[1, 3] = -np.sqrt(2) / 2 * ch(2 * r)
        m[1, 4] = m[1, 3].conjugate()
        m[1, 5] = np.sqrt(2) / 2 * np.cos(th) * sh(2 * r)
        m[2, 2] = 5 / 8 - ch(2 * r) + 3 / 8 * ch(4 * r)
        m[2, 3] = 0.5 * np.exp(1j * th) * (sh(2 * r) - 0.75 * sh(4 * r))
        m[2, 4] = m[2, 3].conjugate()
        m[2, 5] = 3 / 8 * (ch(4 * r) - 1)
        m[3, 3] = m[4, 4] = (1 + 3 * ch(4 * r)) / 8
        m[3, 4] = 3 / 8 * np.exp(-2j * th) * (ch(4 * r) - 1)
        m[3, 5] = -0.5 * np.exp(-1j * th) * (sh(2 * r) + 0.75 * sh(4 * r))
        m[4, 5] = m[3, 5].conjugate()
        m[5, 5] = 5 / 8 + ch(2 * r) + 3 / 8 * ch(4 * r)
        return _hermitian_completion(m)
    m[0, 2] = -np.sqrt(2) / 2 * np.sin(th) * (sh(4 * r) - sh(2 * r))
    m[0, 3] = -1j * np.sqrt(2) / 2 * np.exp(1j * th) * sh(4 * r)
    m[0, 4] = m[0, 3].conjugate()
    m[0, 5] = -np.sqrt(2) / 2 * np.sin(th) * (sh(4 * r) + sh(2 * r))
    m[1, 2] = np.sqrt(2) / 2 * np.cos(th) * (sh(4 * r) - sh(2 * r))
    m[1, 3] = np.sqrt(2) / 2 * np.exp(1j * th) * sh(4 * r)
    m[1, 4] = m[1, 3].conjugate()
    m[1, 5] = np.sqrt(2) / 2 * np.cos(th) * (sh(4 * r) + sh(2 * r))
    m[2, 2] = (
        71 / 32
        - 13 / 4 * ch(2 * r)
        + 3 / 2 * ch(4 * r)
        - 3 / 4 * ch(6 * r)
        + 9 / 32 * ch(8 * r)
    )
    m[2, 3] = (
        1
        / 8
        * np.exp(2j * th)
        * (-29 / 4 + 3 * ch(2 * r) + 5 * ch(4 * r) - 3 * ch(6 * r) + 9 / 4 * ch(8 * r))
    )
    m[2, 4] = m[2, 3].conjugate()
    m[2, 5] = 0.25 * (15 / 8 - 3 * ch(4 * r) + 9 / 8 * ch(8 * r))
    m[3, 3] = m[4, 4] = (91 / 4 + 23 * ch(4 * r) + 9 / 4 * ch(8 * r)) / 8
    m[3, 4] = 9 / 32 * np.exp(-4j * th) * (3 - 4 * ch(4 * r) + ch(8 * r))
    m[3, 5] = (
        1
        / 8
        * np.exp(-2j * th)
        * (-29 / 4 - 3 * ch(2 * r) + 5 * ch(4 * r) + 3 * ch(6 * r) + 9 / 4 * ch(8 * r))
    )
    m[4, 5] = m[3, 5].conjugate()
    m[5, 5] = (
        71 / 32
        + 13 / 4 * ch(2 * r)
        + 3 / 2 * ch(4 * r)
        + 3 / 4 * ch(6 * r)
        + 9 / 32 * ch(8 * r)
    )
    return _hermitian_completion(m)
