import numpy as np
import pytest
import scipy.sparse as sp

from qcfield import (ParticleOperator, SolverError, alternating_minimize,
                     assemble_k0, best_particle_energy, build_dispersion,
                     build_field_modes, build_particle_grid,
                     equivalence_check, eta_pekar, field_z,
                     ground_eigenpair, make_model, multi_start,
                     nelson_form_factor, pekar_minimize, random_wavefunction)
from qcfield import minimize
from qcfield.minimize import minimizer_distance
from qcfield.model import resolve_potential

from oracles import E0_HARMONIC_64, E_QC_COSINE, E_QC_DECOUPLED, E_SOLITON


def test_ground_eigenpair_diagonal():
    grid = build_particle_grid(1, 1, 4.0, 8)
    mat = sp.diags(np.array([3.0, 1.0, 2.0, 5.0, 6.0, 7.0, 8.0, 9.0],
                            dtype=complex), format="csr")
    op = ParticleOperator(matrix=mat, grid=grid)
    e0, psi = ground_eigenpair(op)
    assert e0 == pytest.approx(1.0)
    dense = np.abs(psi.values) * np.sqrt(grid.measure)
    assert dense[1] == pytest.approx(1.0)
    assert np.sum(dense) == pytest.approx(1.0)


def test_ground_eigenpair_shift_identity(decoupled):
    op = assemble_k0(decoupled)
    e0, psi0 = ground_eigenpair(op)
    shifted = ParticleOperator(
        matrix=(op.matrix + 2.5 * sp.identity(op.dim, format="csr")).tocsr(),
        grid=op.grid)
    e1, psi1 = ground_eigenpair(shifted)
    assert e1 == pytest.approx(e0 + 2.5, abs=1e-10)
    overlap = abs(np.vdot(psi0.values, psi1.values)) * op.grid.measure
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_ground_eigenpair_deterministic(decoupled):
    op = assemble_k0(decoupled)
    _, psi_a = ground_eigenpair(op)
    _, psi_b = ground_eigenpair(op)
    assert np.array_equal(psi_a.values, psi_b.values)


def test_best_particle_energy(decoupled):
    assert best_particle_energy(decoupled, field_z([0.0])) == pytest.approx(
        E0_HARMONIC_64, abs=1e-10)
    assert best_particle_energy(decoupled, field_z([-0.5])) == pytest.approx(
        E0_HARMONIC_64 - 0.25, abs=1e-10)


def test_best_particle_energy_dominates_minimum(decoupled, decoupled_min):
    rng = np.random.default_rng(21)
    for _ in range(10):
        z = field_z(rng.standard_normal(1) + 1j * rng.standard_normal(1))
        assert best_particle_energy(decoupled, z) >= \
            decoupled_min.energy - 1e-10


def test_alternating_zero_coupling_one_iteration():
    grid = build_particle_grid(1, 1, 8.0, 32)
    modes = build_field_modes([[1.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    ff = nelson_form_factor(grid, modes, [0.0])
    spec = make_model("nelson", grid, modes, disp, ff, "harmonic")
    res = alternating_minimize(spec)
    assert res.converged
    assert res.iterations == 1
    assert np.all(res.z_star.values == 0)


def test_alternating_decoupled_two_iterations(decoupled, decoupled_min):
    res = decoupled_min
    assert res.converged
    assert res.iterations == 2
    assert res.energy == pytest.approx(E_QC_DECOUPLED, abs=1e-10)
    assert res.eta_star.values[0] == pytest.approx(-0.5, abs=1e-10)


def test_alternating_cosine_matches_scan_oracle(cosine_min):
    assert cosine_min.converged
    assert cosine_min.energy == pytest.approx(E_QC_COSINE, abs=1e-6)


def test_energy_trace_non_increasing(cosine, nelson_small, polaron_small,
                                     pf_small):
    rng = np.random.default_rng(22)
    for spec in (cosine, nelson_small, polaron_small, pf_small):
        psi0 = random_wavefunction(spec.grid, rng)
        res = alternating_minimize(spec, init_eta=eta_pekar(spec, psi0))
        diffs = np.diff(res.energy_trace)
        assert np.all(diffs <= 1e-12)


def test_converged_residuals_below_tolerance(cosine_min):
    assert cosine_min.el_residuals.psi_residual <= 1e-7
    assert cosine_min.el_residuals.field_residual <= 1e-7


def test_energy_invariant_under_global_phase(cosine):
    rng = np.random.default_rng(23)
    psi0 = random_wavefunction(cosine.grid, rng)
    res_a = alternating_minimize(cosine, init_eta=eta_pekar(cosine, psi0))
    rotated = type(psi0)(psi0.values * np.exp(0.7j), cosine.grid)
    res_b = alternating_minimize(cosine,
                                 init_eta=eta_pekar(cosine, rotated))
    assert res_a.energy == pytest.approx(res_b.energy, abs=1e-12)


def test_field_relaxed_energy_consistent_at_minimizer(cosine_min, cosine):
    assert best_particle_energy(cosine, cosine_min.z_star) == pytest.approx(
        cosine_min.energy, abs=1e-8)


def test_max_iter_exhaustion_returns_best(cosine):
    res = alternating_minimize(cosine, max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    assert np.isfinite(res.energy)


def test_multi_start_single_equals_plain(cosine):
    ms = multi_start(cosine, n_starts=1, seed=0)
    plain = alternating_minimize(cosine)
    assert ms.best.energy == plain.energy
    assert np.array_equal(ms.best.psi_star.values, plain.psi_star.values)


def test_multi_start_decoupled_agreement(decoupled):
    ms = multi_start(decoupled, n_starts=4, seed=2)
    assert ms.max_energy - ms.min_energy <= 1e-8
    assert all(r.converged for r in ms.results)
    assert ms.min_energy >= ms.best.energy - 1e-12
    assert ms.max_pair_distance <= 1e-4


def test_multi_start_deterministic(cosine):
    a = multi_start(cosine, n_starts=3, seed=5)
    b = multi_start(cosine, n_starts=3, seed=5)
    assert a.best.energy == b.best.energy
    assert a.max_pair_distance == b.max_pair_distance


def test_minimizer_distance_mod_phase(decoupled, decoupled_min):
    rotated = type(decoupled_min)(
        psi_star=type(decoupled_min.psi_star)(
            decoupled_min.psi_star.values * np.exp(1.3j), decoupled.grid),
        z_star=decoupled_min.z_star, eta_star=decoupled_min.eta_star,
        energy=decoupled_min.energy, iterations=decoupled_min.iterations,
        energy_trace=decoupled_min.energy_trace,
        iteration_rows=decoupled_min.iteration_rows,
        el_residuals=decoupled_min.el_residuals, converged=True)
    assert minimizer_distance(decoupled_min, rotated, decoupled) <= 1e-12


def test_pekar_minimize_decoupled(decoupled, decoupled_pekar):
    assert decoupled_pekar.energy == pytest.approx(E_QC_DECOUPLED, abs=1e-8)


def test_pekar_minimize_minimal_coupling(pf_small):
    res = pekar_minimize(pf_small)
    assert res.converged
    alt = alternating_minimize(pf_small)
    assert res.energy == pytest.approx(alt.energy, abs=1e-8)


def test_pekar_minimize_stationary_start_takes_no_step(decoupled_pekar,
                                                       pf_small, frozen_pf):
    """K_0's ground state is already the reduced minimizer: the decoupled
    field is position-independent, and under minimal coupling
    (small_minimal_coupling, frozen_minimal_coupling) K_0's real ground
    state carries no current, so b = 0 and the field vanishes."""
    for res in (decoupled_pekar, pekar_minimize(pf_small),
                pekar_minimize(frozen_pf)):
        assert res.converged
        assert res.iterations == 0
        assert len(res.energy_trace) == 1


def test_pekar_minimize_failed_factor_raises_solver_error(monkeypatch):
    # a model of its own above DENSE_EIG_CUTOFF: a small model's
    # preconditioner factors nothing, and a shared model may already hold
    # the factor that an earlier test built, and then splu is never called
    grid = build_particle_grid(1, 1, 8.0, 256)
    modes = build_field_modes([[1.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    cosine = make_model("nelson", grid, modes, disp,
                        nelson_form_factor(grid, modes, [0.5],
                                           dispersion=disp), "harmonic")
    minimize._k0_ground(cosine)  # K_0's ground pair, before splu fails

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(minimize.spla, "splu", singular)
    with pytest.raises(SolverError, match="factorization"):
        pekar_minimize(cosine)


def test_pekar_minimize_count_ignores_round_off():
    """The 1-d G = 2048 one-mode nelson model, its harmonic potential
    perturbed by 1e-12 standard normals: every draw takes the same number
    of steps.  A 1e-13 perturbation is below the round-off of K_0's
    diagonal (about 3.3e4 here) and leaves K_0 unchanged."""
    grid = build_particle_grid(1, 1, 8.0, 2048)
    modes = build_field_modes([[1.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    form = nelson_form_factor(grid, modes, [0.5], dispersion=disp)
    harmonic = resolve_potential("harmonic", grid)
    rng = np.random.default_rng(0)
    counts = set()
    for _ in range(8):
        spec = make_model("nelson", grid, modes, disp, form, harmonic
                          + 1e-12 * rng.standard_normal(harmonic.shape))
        res = pekar_minimize(spec)
        assert res.converged
        counts.add(res.iterations)
    assert len(counts) == 1


def test_pekar_minimize_soliton_continuum_limit(soliton):
    """The reduced route converges to the cubic NLS soliton's energy
    -pi^2 alpha^2 / 3 at second order in the grid spacing, in a step count
    that does not grow with the grid; the alternating route reaches the same
    minimum at every grid size."""
    errors = []
    for points in (64, 128, 256, 512):
        spec = soliton(points)
        res = pekar_minimize(spec)
        assert res.converged
        assert res.iterations <= 30
        alt = alternating_minimize(spec)
        assert alt.converged
        assert abs(alt.energy - res.energy) <= 1e-10
        errors.append(res.energy - E_SOLITON)
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((3.5 <= ratios) & (ratios <= 4.5))
    assert abs(errors[-1]) < 5e-5


def test_equivalence_decoupled(decoupled):
    rep = equivalence_check(decoupled, tol=1e-8, n_starts=2, seed=17)
    assert rep.passes
    assert rep.e_qc == pytest.approx(E_QC_DECOUPLED, abs=1e-8)
    assert rep.gap <= 1e-8


def test_equivalence_zero_coupling():
    grid = build_particle_grid(1, 1, 8.0, 32)
    modes = build_field_modes([[1.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    ff = nelson_form_factor(grid, modes, [0.0])
    spec = make_model("nelson", grid, modes, disp, ff, "harmonic")
    rep = equivalence_check(spec, tol=1e-10, n_starts=2, seed=1)
    assert rep.passes
    assert rep.gap <= 1e-12


def test_equivalence_notes_a_non_trapping_potential(soliton):
    """On a zero potential the report notes that only the Dirichlet walls
    confine the particle, and the two routes still agree."""
    spec = soliton(64)
    assert not np.any(spec.external_potential)
    rep = equivalence_check(spec)
    assert any("not declared trapping" in note for note in rep.notes)
    assert rep.passes
