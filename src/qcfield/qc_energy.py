"""Effective particle Hamiltonian at a fixed classical field and its energies.

For a field configuration z the particle feels

    H_z = K_0 + (interaction at the classical field a_z) + <z|omega|z>,

with a_z(x) = 2 Re <z|lambda(x)> and the interaction of the model's coupling
(qcfield.coupling): the potential sum_i a_z(x_i) for linear coupling, the
first-order minimal-coupling operator for the vector family.  Every H_z of
a model is built on one memoised sparsity pattern (hz_pattern).  The energy
qc_energy(psi, z) = <psi|H_z|psi> and its eta-gauge variant (eta = omega^(1/2) z)
drive everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import GaugeError, NormalizationError
from .model import (Dispersion, ModelSpec, ParticleGrid, grid_inner,
                    grid_norm)

NORM_TOL = 1e-10


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Amplitudes on the N-particle grid, L2-normalized within NORM_TOL."""

    values: np.ndarray
    grid: ParticleGrid

    def __post_init__(self):
        if self.values.shape != (self.grid.total_points,):
            raise ValueError("wave function shape does not match the grid")

    def norm(self) -> float:
        return grid_norm(self.grid, self.values)

    def require_normalized(self) -> None:
        if not abs(self.norm() - 1.0) <= NORM_TOL:  # NaN fails too
            raise NormalizationError(
                f"wave function norm {self.norm():.12g} is not 1 within "
                f"{NORM_TOL:g}")

    @staticmethod
    def normalized(values: np.ndarray, grid: ParticleGrid) -> "WaveFunction":
        values = np.asarray(values, dtype=complex).ravel()
        n = grid_norm(grid, values)
        if n == 0:
            raise NormalizationError("cannot normalize the zero vector")
        if not np.isfinite(n):
            raise NormalizationError(f"cannot normalize a vector of norm {n}")
        return WaveFunction(values=values / n, grid=grid)


@dataclass(frozen=True, eq=False)
class FieldAmplitudes:
    """Complex mode amplitudes, tagged with the gauge they live in.

    gauge "z" is the bare configuration; gauge "eta" stores omega^(1/2) z.
    """

    values: np.ndarray
    gauge: str = "z"

    def __post_init__(self):
        if self.gauge not in ("z", "eta"):
            raise ValueError(f"unknown gauge {self.gauge!r}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field amplitudes must be finite")

    def require_gauge(self, gauge: str) -> None:
        if self.gauge != gauge:
            raise GaugeError(f"expected field amplitudes in gauge {gauge!r}, "
                             f"got {self.gauge!r}")


def field_z(values) -> FieldAmplitudes:
    return FieldAmplitudes(np.asarray(values, dtype=complex).ravel(), "z")


def field_eta(values) -> FieldAmplitudes:
    return FieldAmplitudes(np.asarray(values, dtype=complex).ravel(), "eta")


def eta_to_z(eta: FieldAmplitudes, dispersion: Dispersion) -> FieldAmplitudes:
    eta.require_gauge("eta")
    dispersion.require_gap("the gauge change omega^(-1/2)")
    return FieldAmplitudes(eta.values / np.sqrt(dispersion.values), "z")


def z_to_eta(z: FieldAmplitudes, dispersion: Dispersion) -> FieldAmplitudes:
    z.require_gauge("z")
    return FieldAmplitudes(z.values * np.sqrt(dispersion.values), "eta")


def complex_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """n complex Gaussian draws: n real parts, then n imaginary parts."""
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def random_wavefunction(grid: ParticleGrid, rng: np.random.Generator) -> WaveFunction:
    return WaveFunction.normalized(complex_normal(rng, grid.total_points), grid)


# ---------------------------------------------------------------------------
# sparse operators on the particle grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ParticleOperator:
    """Sparse Hermitian operator on the particle grid plus a scalar offset.

    The offset carries the field self-energy <z|omega|z>; expectation values
    are <psi|matrix|psi> + constant_offset.
    """

    matrix: sp.csr_matrix
    grid: ParticleGrid
    constant_offset: float = 0.0

    def hermiticity_defect(self) -> float:
        d = self.matrix - self.matrix.conj().T
        if d.nnz == 0:
            return 0.0
        return float(np.max(np.abs(d.data)))

    def expectation(self, psi: WaveFunction) -> float:
        val = grid_inner(self.grid, psi.values, self.matrix @ psi.values)
        return float(val.real) + self.constant_offset

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _axis_laplacian(n: int, h: float) -> sp.csr_matrix:
    """Second-order central differences with Dirichlet walls; zero for a
    single frozen site."""
    if n == 1:
        return sp.csr_matrix((1, 1), dtype=complex)
    main = np.full(n, 2.0 / h ** 2)
    off = np.full(n - 1, -1.0 / h ** 2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr", dtype=complex)


def _axis_momentum(n: int, h: float) -> sp.csr_matrix:
    """-i d/dx as central differences; Hermitian with Dirichlet walls."""
    if n == 1:
        return sp.csr_matrix((1, 1), dtype=complex)
    off = np.full(n - 1, 1.0 / (2.0 * h))
    return sp.diags([1j * off, -1j * off], [-1, 1], format="csr", dtype=complex)


def kinetic_matrix(spec: ModelSpec) -> sp.csr_matrix:
    grid = spec.grid
    total = sp.csr_matrix((grid.total_points, grid.total_points), dtype=complex)
    lap1d = _axis_laplacian(grid.points_per_axis, grid.spacing)
    for p in range(grid.n_particles):
        coeff = spec.kinetic_coefficient(p)
        for d in range(grid.dim):
            total = total + coeff * grid.lift_axis(lap1d, p, d)
    return total.tocsr()


def momentum_matrix(grid: ParticleGrid, particle: int) -> sp.csr_matrix:
    """Momentum -i d/dx of a particle's first coordinate on the full grid."""
    mom1d = _axis_momentum(grid.points_per_axis, grid.spacing)
    return grid.lift_axis(mom1d, particle)


def assemble_k0(spec: ModelSpec) -> ParticleOperator:
    """Free particle Hamiltonian: Dirichlet Laplacian plus external potential.

    K_0 depends on the frozen spec alone, so it is built on the first call
    and memoised on the spec, as functools.cached_property memoises; callers
    share the one operator, whose data, indices and indptr are read-only.
    """
    k0 = spec.__dict__.get("_k0")
    if k0 is None:
        mat = (kinetic_matrix(spec) + sp.diags(
            spec.external_potential.astype(complex), format="csr")).tocsr()
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.flags.writeable = False
        k0 = spec.__dict__["_k0"] = ParticleOperator(matrix=mat,
                                                     grid=spec.grid)
    return k0


def box_ground_energy(grid: ParticleGrid) -> float:
    """Closed-form lowest eigenvalue of the discrete Dirichlet Laplacian.

    With G cell-centered points the walls sit at +-(L + h/2), so the lowest
    mode reads 2 (1 - cos(pi h / (2L + h))) / h^2 per axis.
    """
    h = grid.spacing
    per_axis = 2.0 * (1.0 - np.cos(np.pi * h / (2.0 * grid.extent + h))) / h ** 2
    return float(grid.n_axes * per_axis)


# ---------------------------------------------------------------------------
# interaction at fixed field configuration
# ---------------------------------------------------------------------------

def field_self_energy(spec: ModelSpec, z: FieldAmplitudes) -> float:
    z.require_gauge("z")
    w = spec.modes.weights
    om = spec.dispersion.values
    return float(np.sum(w * om * np.abs(z.values) ** 2))


def effective_potential(spec: ModelSpec, z: FieldAmplitudes,
                        particle: int = 0) -> np.ndarray:
    """Classical field a_z(x) = 2 Re sum_j w_j conj(z_j) lambda_p(x;k_j) of one
    particle on the single-particle grid: under linear coupling the potential
    V_z that particle feels, under minimal coupling its vector potential."""
    z.require_gauge("z")
    table = spec.form_factor.tables[particle]
    return 2.0 * np.real(table @ (spec.modes.weights * np.conj(z.values)))


@dataclass(frozen=True, eq=False)
class HzPattern:
    """The CSR sparsity pattern every H_z of a model is built on: the union
    of K_0's entries, the diagonal and each particle's momentum P_p, with
    sorted indices.  k0_data and momentum hold K_0 and each P_p on it;
    diagonal and rows give the position of each (i, i) entry and the row
    of each entry.  Every array is read-only: indices and indptr are shared
    by every H_z, so an in-place scipy call on one raises instead of
    corrupting the next build."""

    indices: np.ndarray
    indptr: np.ndarray
    rows: np.ndarray
    diagonal: np.ndarray
    k0_data: np.ndarray
    momentum: tuple[np.ndarray, ...]

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with the given data on this pattern."""
        n = self.indptr.size - 1
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))


def hz_pattern(spec: ModelSpec) -> HzPattern:
    """H_z's sparsity pattern, memoised on the spec as assemble_k0 is."""
    pattern = spec.__dict__.get("_hz_pattern")
    if pattern is None:
        grid = spec.grid
        n = grid.total_points
        k0 = assemble_k0(spec).matrix
        moms = [momentum_matrix(grid, p) for p in range(grid.n_particles)]

        def keys(mat):  # row-major position of each stored entry
            coo = mat.tocoo()
            return coo.row.astype(np.int64) * n + coo.col

        def on_pattern(mat):
            data = np.zeros(union.size, dtype=complex)
            data[np.searchsorted(union, keys(mat))] = mat.data
            return data

        diag_keys = np.arange(n, dtype=np.int64) * (n + 1)
        union = np.unique(np.concatenate([keys(k0), diag_keys]
                                         + [keys(m) for m in moms]))
        rows, cols = np.divmod(union, n)
        # scipy picks the index dtype of the arrays every H_z shares
        layout = sp.csr_matrix((np.zeros(union.size), (rows, cols)),
                               shape=(n, n))
        pattern = spec.__dict__["_hz_pattern"] = HzPattern(
            indices=layout.indices, indptr=layout.indptr, rows=rows,
            diagonal=np.searchsorted(union, diag_keys),
            k0_data=on_pattern(k0),
            momentum=tuple(on_pattern(m) for m in moms))
        for arr in (pattern.indices, pattern.indptr, pattern.rows,
                    pattern.diagonal, pattern.k0_data, *pattern.momentum):
            arr.flags.writeable = False
    return pattern


def assemble_hz(spec: ModelSpec, z: FieldAmplitudes) -> ParticleOperator:
    """Effective Hamiltonian H_z with the field self-energy as offset: K_0's
    data plus the coupling's field data at the lifted classical fields
    a_z(x_p), on the memoised pattern."""
    grid = spec.grid
    pattern = hz_pattern(spec)
    fields = [grid.lift_single(effective_potential(spec, z, p), p)
              for p in range(grid.n_particles)]
    data = pattern.k0_data + spec.coupling.field_data(spec, pattern, fields)
    return ParticleOperator(matrix=pattern.csr(data), grid=grid,
                            constant_offset=field_self_energy(spec, z))


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def qc_energy(spec: ModelSpec, psi: WaveFunction, z: FieldAmplitudes) -> float:
    """Coupled energy <psi|H_z|psi> including the field self-energy."""
    psi.require_normalized()
    return assemble_hz(spec, z).expectation(psi)


def qc_energy_eta(spec: ModelSpec, psi: WaveFunction,
                  eta: FieldAmplitudes) -> float:
    """Same energy in the eta = omega^(1/2) z gauge (needs a mass gap)."""
    return qc_energy(spec, psi, eta_to_z(eta, spec.dispersion))


def mode_source(spec: ModelSpec, density: np.ndarray) -> np.ndarray:
    """s_j = sum_p sum_x lambda_p(x;k_j) rho_p(x), with rho_p particle p's
    marginal of a configuration-grid density (volume element included)."""
    out = np.zeros(spec.n_modes, dtype=complex)
    for p, table in enumerate(spec.form_factor.tables):
        out += table.T @ spec.grid.marginal(density, p)
    return out


def coupling_expectation(spec: ModelSpec, psi: WaveFunction) -> np.ndarray:
    """Per-mode expectation m_j = <psi| sum_i lambda(x_i;k_j) |psi>."""
    return mode_source(spec, np.abs(psi.values) ** 2 * spec.grid.measure)


def field_gradient(spec: ModelSpec, psi: WaveFunction,
                   z: FieldAmplitudes) -> np.ndarray:
    """Gradient of qc_energy in the field coordinates.

    Component j is d/d(Re z_j) + i d/d(Im z_j); matches central finite
    differences of qc_energy and vanishes at a stationary field.
    """
    return 2.0 * spec.modes.weights * _el_field_vector(spec, psi, z)


def _el_field_vector(spec: ModelSpec, psi: WaveFunction,
                     z: FieldAmplitudes) -> np.ndarray:
    """omega z + sqrt(omega) (b + T eta) at eta = sqrt(omega) z."""
    z.require_gauge("z")
    sq = np.sqrt(spec.dispersion.values)
    return spec.dispersion.values * z.values + sq * (
        spec.coupling.b_vector(spec, psi)
        + spec.coupling.apply_t(spec, psi, sq * z.values))


@dataclass(frozen=True)
class ELResiduals:
    """Stationarity residuals of the coupled minimization."""

    psi_residual: float
    field_residual: float


def el_residual(spec: ModelSpec, psi: WaveFunction,
                z: FieldAmplitudes) -> ELResiduals:
    """Residuals of the two stationarity equations at (psi, z).

    psi_residual is ||H_z psi - eps psi|| with eps = <psi|H_z|psi>;
    field_residual is the omega-weighted mode norm of
    omega z + sqrt(omega) (b + T eta), the field's Euler-Lagrange vector.
    """
    psi.require_normalized()
    return _el_residuals(spec, assemble_hz(spec, z), psi, z)


def _el_residuals(spec: ModelSpec, op: ParticleOperator, psi: WaveFunction,
                  z: FieldAmplitudes) -> ELResiduals:
    """el_residual with H_z given as op (already built at z)."""
    h_psi = op.apply(psi.values)
    eps = grid_inner(spec.grid, psi.values, h_psi).real
    psi_res = grid_norm(spec.grid, h_psi - eps * psi.values)
    r = _el_field_vector(spec, psi, z)
    w = spec.modes.weights
    om = spec.dispersion.values
    field_res = float(np.sqrt(np.sum(w * om * np.abs(r) ** 2)))
    return ELResiduals(psi_residual=psi_res, field_residual=field_res)
