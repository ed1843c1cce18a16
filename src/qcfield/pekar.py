"""Field reduction: the minimizing field for fixed psi and the reduced energy.

At fixed psi the coupled energy is quadratic in eta = omega^(1/2) z, with
the linear term b and the psi-dependent quadratic part T supplied by the
model's coupling (qcfield.coupling); the minimizing field solves
(1 + T) eta = -b.  For the linear families T = 0, and substituting eta = -b
back yields a self-interaction kernel for the particles alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CapacityError, ConsistencyError, ModelAssumptionError,
                     SolverError)
from .model import ModelSpec, ParticleGrid, mode_norm
from .qc_energy import (FieldAmplitudes, WaveFunction, field_eta, mode_source,
                        qc_energy_eta)

PEKAR_AGREE_TOL = 1e-10
DEFAULT_KERNEL_CAP = 4_000_000  # entries of a materialized kernel
FIXED_POINT_TOL = 1e-12  # fixed_point_eta's step-norm target
FIXED_POINT_MAX_ITER = 500


# ---------------------------------------------------------------------------
# minimizing field
# ---------------------------------------------------------------------------

def eta_pekar(spec: ModelSpec, psi: WaveFunction) -> FieldAmplitudes:
    """Unique field minimizer of the energy at fixed psi, in the eta gauge:
    the solution of (1 + T) eta = -b, from the model's coupling."""
    psi.require_normalized()
    spec.dispersion.require_gap("the field reduction")
    return field_eta(spec.coupling.solve_field(spec, psi))


def fixed_point_eta(spec: ModelSpec, psi: WaveFunction,
                    start: np.ndarray | None = None):
    """Iterate eta <- -b - T eta, which converges when ||T|| < 1, until a
    step is at most FIXED_POINT_TOL, in at most FIXED_POINT_MAX_ITER steps;
    a cross-check for the direct solve.  Returns (eta, steps taken)."""
    psi.require_normalized()
    b = spec.coupling.b_vector(spec, psi)
    eta = np.zeros(spec.n_modes, dtype=complex) if start is None \
        else np.asarray(start, dtype=complex).copy()
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        new = -b - spec.coupling.apply_t(spec, psi, eta)
        if mode_norm(spec.modes, new - eta) <= FIXED_POINT_TOL:
            return field_eta(new), it
        eta = new
    raise SolverError(f"fixed-point field iteration did not reach "
                      f"{FIXED_POINT_TOL:g} in {FIXED_POINT_MAX_ITER} steps")


# ---------------------------------------------------------------------------
# self-interaction kernel
# ---------------------------------------------------------------------------

def kernel_convolve(spec: ModelSpec, density: np.ndarray) -> np.ndarray:
    """(V_kernel * rho)(X) via the mode-sum factorization (no kernel storage).

    Applies the induced kernel -Re sum_{p,q} U_pq(x_p, y_q) to a configuration
    density: apply lambda, divide by omega, apply the adjoint.
    """
    grid = spec.grid
    coef = spec.modes.weights / spec.dispersion.values \
        * np.conj(mode_source(spec, density))
    out = np.zeros(grid.total_points)
    for p, table in enumerate(spec.form_factor.tables):
        out += grid.lift_single(-np.real(table @ coef), p)
    return out


@dataclass(frozen=True, eq=False)
class PekarKernel:
    """Self-interaction kernel induced by eliminating a linearly coupled field.

    pair_kernels[p][q] holds U_pq(x, y) = <lambda_p(x)|omega^(-1)|lambda_q(y)>
    on single-particle grid pairs; config_matrix holds the N-particle kernel
    -Re sum_{p,q} U_pq(x_p, y_q).
    """

    pair_kernels: tuple[tuple[np.ndarray, ...], ...]
    config_matrix: np.ndarray
    grid: ParticleGrid

    @property
    def single_particle(self) -> np.ndarray:
        """The U(x, y) of every particle pair, defined when the particles
        share one form factor (as in the linear families)."""
        u = self.pair_kernels[0][0]
        if any(not np.array_equal(v, u) for row in self.pair_kernels
               for v in row):
            raise ModelAssumptionError("the particles' form factors differ; "
                                       "read pair_kernels")
        return u


def pekar_kernel(spec: ModelSpec) -> PekarKernel:
    """Materialize the self-interaction kernel (symmetric by construction).

    Only a linearly coupled field leaves a kernel; minimal coupling is
    refused with ModelAssumptionError, and a kernel of more than
    DEFAULT_KERNEL_CAP entries with CapacityError.
    """
    if spec.family == "pauli_fierz":
        raise ModelAssumptionError("minimal coupling leaves no "
                                   "self-interaction kernel")
    spec.dispersion.require_gap("the self-interaction kernel")
    grid = spec.grid
    if grid.total_points ** 2 > DEFAULT_KERNEL_CAP:
        raise CapacityError(
            f"kernel would need {grid.total_points ** 2} entries, over the "
            f"cap {DEFAULT_KERNEL_CAP}; use kernel_convolve instead")
    coef = spec.modes.weights / spec.dispersion.values
    tables = spec.form_factor.tables
    pairs = tuple(tuple((ti.conj() * coef) @ tj.T for tj in tables)
                  for ti in tables)
    # sum_{p,q} U_pq(x_p, y_q) = sum_j coef_j conj(L_j(X)) L_j(Y), with
    # L_j(X) = sum_p lambda_p(x_p; k_j)
    lifted = sum(grid.lift_single(t, p) for p, t in enumerate(tables))
    config = -np.real((lifted.conj() * coef) @ lifted.T)
    return PekarKernel(pair_kernels=pairs, config_matrix=config, grid=grid)


# ---------------------------------------------------------------------------
# reduced energy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PekarEnergy:
    """Reduced energy with both evaluation routes.

    value comes from the coupled energy at the minimizing field; for the
    linear families kernel_value re-derives it through the self-interaction
    kernel and the two must agree.
    """

    value: float
    kernel_value: float | None
    eta: FieldAmplitudes


def pekar_energy(spec: ModelSpec, psi: WaveFunction) -> PekarEnergy:
    """Reduced energy at psi by the field route and, for the linear families,
    the kernel route, which must agree within PEKAR_AGREE_TOL relative."""
    psi.require_normalized()
    eta = eta_pekar(spec, psi)
    value = qc_energy_eta(spec, psi, eta)
    kernel_value = spec.coupling.kernel_value(spec, psi)
    if kernel_value is not None:
        scale = max(abs(value), abs(kernel_value), 1e-30)
        if abs(value - kernel_value) > PEKAR_AGREE_TOL * scale:
            raise ConsistencyError(
                f"kernel route {kernel_value!r} and field route {value!r} "
                f"disagree beyond {PEKAR_AGREE_TOL:g} relative")
    return PekarEnergy(value=value, kernel_value=kernel_value, eta=eta)


# ---------------------------------------------------------------------------
# one-particle density
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Density:
    """One-particle density on the single-particle grid; integrates to N."""

    values: np.ndarray
    grid: ParticleGrid

    def total(self) -> float:
        return float(np.sum(self.values) * self.grid.spacing ** self.grid.dim)


def one_particle_density(psi: WaveFunction, grid: ParticleGrid) -> Density:
    """rho(x) = N * integral over the remaining coordinates of |psi|^2."""
    psi.require_normalized()
    cell = grid.spacing ** (grid.dim * (grid.n_particles - 1))
    vals = grid.n_particles * (grid.marginal(np.abs(psi.values) ** 2, 0) * cell)
    return Density(values=vals, grid=grid)


def eta_pekar_from_density(spec: ModelSpec, rho: Density) -> FieldAmplitudes:
    """Linear-coupling minimizing field from the one-particle density of a
    symmetric psi, whose every particle marginal is rho / N.  Refused for
    minimal coupling, whose field depends on the particle current too."""
    if spec.family == "pauli_fierz":
        raise ModelAssumptionError("the minimally coupled field depends on "
                                   "more than the density")
    spec.dispersion.require_gap("the field reduction")
    grid = spec.grid
    share = rho.values * grid.spacing ** grid.dim / grid.n_particles
    m = sum(table.T @ share for table in spec.form_factor.tables)
    return field_eta(-m / np.sqrt(spec.dispersion.values))


# ---------------------------------------------------------------------------
# convexity diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gap:
    """Convex-combination energy gap and its analytic quadratic value."""

    gap: float
    prediction: float


def convexity_gap(spec: ModelSpec, psi: WaveFunction,
                  eta1: FieldAmplitudes, eta2: FieldAmplitudes,
                  beta: float) -> Gap:
    """Strict-convexity gap of the field energy at fixed psi.

    gap = beta f(eta1) + (1-beta) f(eta2) - f(beta eta1 + (1-beta) eta2);
    for a quadratic functional it equals beta (1-beta) Q(eta1 - eta2) with Q
    the purely quadratic part, Q(delta) = ||delta||_w^2 + Re<delta|T delta>_w.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    eta1.require_gauge("eta")
    eta2.require_gauge("eta")
    mix = field_eta(beta * eta1.values + (1.0 - beta) * eta2.values)
    f1 = qc_energy_eta(spec, psi, eta1)
    f2 = qc_energy_eta(spec, psi, eta2)
    fm = qc_energy_eta(spec, psi, mix)
    gap = beta * f1 + (1.0 - beta) * f2 - fm
    delta = eta1.values - eta2.values
    t_delta = spec.coupling.apply_t(spec, psi, delta)
    quad = mode_norm(spec.modes, delta) ** 2 \
        + float(np.sum(spec.modes.weights * np.conj(delta) * t_delta).real)
    return Gap(gap=gap, prediction=beta * (1.0 - beta) * quad)


# ---------------------------------------------------------------------------
# phonon-coupling splitting diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingReport:
    """Norms of the low/high-momentum pieces of the phonon coupling at a
    cutoff, and the stability bound they induce."""

    cutoff: float
    low_norm: float
    high_norm: float
    lower_bound: float


def polaron_splitting(spec: ModelSpec, cutoff: float) -> SplittingReport:
    """Split the phonon coupling at |k| = cutoff and report both norms.

    low_norm is ||1_{|k|<=cutoff} |k|^(-(d-1)/2)||, high_norm is
    ||1_{|k|>cutoff} |k|^(-(d+1)/2)||, both in the weighted mode space;
    the induced bound is E >= -2 alpha N^2 low_norm^2.
    """
    if spec.family != "polaron":
        raise ValueError("the splitting diagnostic applies to the polaron family")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    mags = spec.modes.magnitudes
    w = spec.modes.weights
    d = spec.grid.dim
    safe = np.where(mags > 0, mags, 1.0)
    low_sq = float(np.sum(w[mags <= cutoff] * safe[mags <= cutoff] ** (-(d - 1))))
    high_sq = float(np.sum(w[mags > cutoff] * safe[mags > cutoff] ** (-(d + 1))))
    n = spec.grid.n_particles
    return SplittingReport(cutoff=cutoff,
                           low_norm=float(np.sqrt(low_sq)),
                           high_norm=float(np.sqrt(high_sq)),
                           lower_bound=-2.0 * spec.alpha * n ** 2 * low_sq)
