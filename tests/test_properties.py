"""Property checks over random small models of all three families, and
over random matrices for the preconditioned ground solver."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qcfield import (SolverError, alternating_minimize, assemble_h_eps,
                     assemble_hz, assemble_k0, build_dispersion,
                     build_field_modes, build_fock_basis, build_particle_grid,
                     convexity_gap, eta_pekar, field_eta, field_gradient,
                     field_z, ground_eigenpair, ground_energy_eps, make_model,
                     nelson_form_factor, pauli_fierz_form_factor,
                     polaron_form_factor, qc_energy, qc_energy_eta,
                     random_wavefunction, stability_lower_bound, trial_energy,
                     z_to_eta)
from qcfield import fock

MOMENTA = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def _random_model(family, n_particles, n_modes, rng):
    """A G = 8 model with random momenta, weights, frequencies and couplings."""
    grid = build_particle_grid(1, n_particles, 4.0, 8)
    k = rng.choice(MOMENTA, size=n_modes, replace=False)
    modes = build_field_modes([[x] for x in k],
                              weights=rng.uniform(0.5, 1.5, n_modes))

    def amplitudes():
        return rng.uniform(-0.5, 0.5, n_modes) \
            + 1j * rng.uniform(-0.5, 0.5, n_modes)

    if family == "polaron":
        alpha = float(rng.uniform(0.1, 1.0))
        form = polaron_form_factor(grid, modes, alpha)
        return make_model(family, grid, modes, build_dispersion([1.0] * n_modes),
                          form, "harmonic", alpha=alpha)
    disp = build_dispersion(rng.uniform(0.5, 2.0, n_modes))
    if family == "nelson":
        form = nelson_form_factor(grid, modes, amplitudes(), dispersion=disp)
        return make_model(family, grid, modes, disp, form, "harmonic")
    form = pauli_fierz_form_factor(grid, modes,
                                   [amplitudes() for _ in range(n_particles)])
    return make_model(family, grid, modes, disp, form, "harmonic",
                      masses=rng.uniform(0.5, 2.0, n_particles),
                      charge=float(rng.uniform(0.1, 0.5)))


def _fd_gradient(spec, psi, z, step=1e-5):
    out = np.zeros(spec.n_modes, dtype=complex)
    for j in range(spec.n_modes):
        for direction in (1.0, 1j):
            zp = z.values.copy()
            zp[j] += step * direction
            zm = z.values.copy()
            zm[j] -= step * direction
            out[j] += direction * (qc_energy(spec, psi, field_z(zp))
                                   - qc_energy(spec, psi, field_z(zm))) \
                / (2 * step)
    return out


@pytest.mark.parametrize("n_particles", [1, 2])
@pytest.mark.parametrize("family", ["nelson", "polaron", "pauli_fierz"])
@settings(derandomize=True, deadline=None, max_examples=8, database=None)
@given(n_modes=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_convexity_and_field_gradient_on_random_models(family, n_particles,
                                                       n_modes, seed):
    rng = np.random.default_rng(seed)
    spec = _random_model(family, n_particles, n_modes, rng)
    psi = random_wavefunction(spec.grid, rng)

    def draw():
        return rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)

    g = convexity_gap(spec, psi, field_eta(draw()), field_eta(draw()),
                      float(rng.uniform(0.05, 0.95)))
    assert abs(g.gap - g.prediction) <= 1e-10 * abs(g.prediction)

    z = field_z(draw())
    fd = _fd_gradient(spec, psi, z)
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(field_gradient(spec, psi, z) - fd)) <= 1e-6 * scale


@pytest.mark.parametrize("n_particles", [1, 2])
@pytest.mark.parametrize("family", ["nelson", "polaron", "pauli_fierz"])
@settings(derandomize=True, deadline=None, max_examples=8, database=None)
@given(n_modes=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_field_quadratic_form_gauge_and_trace_on_random_models(
        family, n_particles, n_modes, seed):
    rng = np.random.default_rng(seed)
    spec = _random_model(family, n_particles, n_modes, rng)
    psi = random_wavefunction(spec.grid, rng)

    def draw():
        return rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)

    # E(psi, eta) = <K_0> + ||eta||^2 + 2 Re<eta|b> + Re<eta|T eta>, weighted
    eta = draw()
    w = spec.modes.weights
    b = spec.coupling.b_vector(spec, psi)
    t_eta = spec.coupling.apply_t(spec, psi, eta)
    terms = [assemble_k0(spec).expectation(psi),
             float(np.sum(w * np.abs(eta) ** 2)),
             2.0 * float(np.sum(w * np.conj(eta) * b).real),
             float(np.sum(w * np.conj(eta) * t_eta).real)]
    energy = qc_energy_eta(spec, psi, field_eta(eta))
    assert abs(energy - sum(terms)) <= 1e-10 * sum(abs(t) for t in terms)

    z = field_z(draw())
    e_z = qc_energy(spec, psi, z)
    e_eta = qc_energy_eta(spec, psi, z_to_eta(z, spec.dispersion))
    assert abs(e_z - e_eta) <= 1e-12 * max(1.0, abs(e_z))

    res = alternating_minimize(spec, init_eta=eta_pekar(spec, psi),
                               max_iter=30)
    assert np.all(np.diff(res.energy_trace) <= 1e-12)


@pytest.mark.parametrize("n_particles", [1, 2])
@pytest.mark.parametrize("family", ["nelson", "polaron", "pauli_fierz"])
@settings(derandomize=True, deadline=None, max_examples=8, database=None)
@given(n_modes=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_quantized_ground_energy_between_trial_and_lower_bound(
        family, n_particles, n_modes, seed):
    rng = np.random.default_rng(seed)
    spec = _random_model(family, n_particles, n_modes, rng)
    eps = float(rng.uniform(0.25, 1.0))
    basis = build_fock_basis(n_modes, 4)
    energy, _ = ground_energy_eps(assemble_h_eps(spec, basis, eps))

    # the renormalized, truncated coherent state lies in the truncated space
    z = field_z(0.5 * (rng.standard_normal(n_modes)
                       + 1j * rng.standard_normal(n_modes)))
    _, psi = ground_eigenpair(assemble_hz(spec, z))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fock, "COHERENT_TAIL_TOL", 1.0)
        trial = trial_energy(spec, basis, eps, psi, z)
    assert energy <= trial.energy + 1e-12 * max(1.0, abs(trial.energy))
    if family != "pauli_fierz":
        assert energy >= stability_lower_bound(spec)


def _wide_band_problem(n, seed, dtype):
    """A random sparse Hermitian matrix with a wide band (an entry in the
    corner) and the diagonal preconditioner 1/(diag - sigma), sigma one
    below the Gershgorin lower bound."""
    rng = np.random.default_rng(seed)
    rows = np.append(rng.integers(0, n, 3 * n), 0)
    cols = np.append(rng.integers(0, n, 3 * n), n - 1)
    vals = rng.standard_normal(rows.size)
    if dtype is np.complex128:
        vals = vals + 1j * rng.standard_normal(rows.size)
    upper = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    mat = (upper + upper.conj().T
           + sp.diags(rng.uniform(0.0, 20.0, n))).tocsr()
    diag = mat.diagonal().real
    radius = np.asarray(abs(mat).sum(axis=1)).ravel() - np.abs(diag)
    shifted = diag - (np.min(diag - radius) - 1.0)

    def precond(r):
        return r / shifted

    return mat, precond


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@settings(derandomize=True, deadline=None, max_examples=12, database=None)
@given(n=st.integers(201, 320), seed=st.integers(0, 2 ** 32 - 1))
def test_lobpcg_finds_lowest_eigenvalue_or_raises_solver_error(dtype, n,
                                                               seed):
    """Random wide-band matrices solved by LOBPCG with a diagonal
    preconditioner: the result is the lowest eigenvalue, or a SolverError;
    nothing else is raised, nothing warns."""
    mat, precond = _wide_band_problem(n, seed, dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            energy, vec = ground_energy_eps(mat, preconditioner=precond)
        except SolverError:
            return
    assert energy == pytest.approx(np.linalg.eigvalsh(mat.toarray())[0],
                                   abs=1e-9)
    assert np.linalg.norm(mat @ vec - energy * vec) <= 1e-9


def test_lobpcg_converges_where_reused_ritz_values_stall():
    """On this draw the 3 x 3 Rayleigh-Ritz pair grows ill conditioned; a
    solver that carried the Ritz value forward instead of recomputing the
    Rayleigh quotient stalled above the residual bound for 400 steps."""
    mat, precond = _wide_band_problem(225, 264, np.float64)
    energy, _ = ground_energy_eps(mat, preconditioner=precond)
    assert energy == pytest.approx(np.linalg.eigvalsh(mat.toarray())[0],
                                   abs=1e-9)


def test_lobpcg_refreshes_ax_below_its_round_off_floor():
    """Scaled by 1e8 and solved with the identity preconditioner, this draw
    converges in 139 steps.  When A x was only ever updated in place, its
    drift from A x held the residual near 1e-4, above the bound of 3.2e-5,
    for all 400 steps, and the solve raised SolverError."""
    mat, _ = _wide_band_problem(292, 1681990798, np.complex128)
    mat = (mat * 1e8).tocsr()
    energy, _ = ground_energy_eps(mat, preconditioner=lambda r: r.copy())
    assert energy == pytest.approx(np.linalg.eigvalsh(mat.toarray())[0],
                                   rel=1e-12)
