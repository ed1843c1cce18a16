import dataclasses

import numpy as np
import pytest

from qcfield import (CapacityError, ConsistencyError, FormFactor,
                     ModelAssumptionError, ModelSpec, SolverError,
                     WaveFunction, assemble_k0, build_dispersion,
                     build_field_modes, build_particle_grid,
                     convexity_gap, el_residual, eta_pekar,
                     eta_pekar_from_density, eta_to_z,
                     field_eta, fixed_point_eta, grid_inner, grid_norm,
                     ground_eigenpair, kernel_convolve, make_model, mode_norm,
                     nelson_form_factor, one_particle_density, pekar_energy,
                     pekar_kernel, polaron_splitting, qc_energy_eta,
                     random_wavefunction)
from qcfield import pekar
from qcfield.presets import small_minimal_coupling

from oracles import E0_HARMONIC_64


def test_eta_pekar_zero_coupling():
    grid = build_particle_grid(1, 1, 4.0, 16)
    modes = build_field_modes([[1.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    ff = nelson_form_factor(grid, modes, [0.0])
    spec = make_model("nelson", grid, modes, disp, ff, "harmonic")
    psi = random_wavefunction(grid, np.random.default_rng(0))
    assert np.all(eta_pekar(spec, psi).values == 0)


def test_eta_pekar_constant_mode(decoupled):
    # position-independent coupling: eta = -lambda0 for any normalized psi
    for seed in range(3):
        psi = random_wavefunction(decoupled.grid,
                                  np.random.default_rng(seed))
        eta = eta_pekar(decoupled, psi)
        assert eta.values[0] == pytest.approx(-0.5, abs=1e-12)


def test_pekar_kernel_constant_mode(decoupled):
    kern = pekar_kernel(decoupled)
    assert np.allclose(kern.single_particle, 0.25)
    assert np.allclose(kern.config_matrix, -0.25)


def test_pekar_kernel_zero_coupling():
    grid = build_particle_grid(1, 1, 4.0, 16)
    modes = build_field_modes([[1.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    ff = nelson_form_factor(grid, modes, [0.0])
    spec = make_model("nelson", grid, modes, disp, ff, "zero")
    kern = pekar_kernel(spec)
    assert np.all(kern.config_matrix == 0)


def test_pekar_kernel_translation_structure(nelson_small):
    # plane-wave couplings make U depend on x - y only
    kern = pekar_kernel(nelson_small)
    u = kern.single_particle
    x = nelson_small.grid.axis_coords
    w = nelson_small.modes.weights
    om = nelson_small.dispersion.values
    k_modes = nelson_small.modes.momenta[:, 0]
    i0 = int(np.argmin(np.abs(x)))
    lam0 = nelson_small.form_factor.tables[0][i0, :] * np.exp(1j * k_modes * x[i0])

    def u_of_difference(delta):
        return np.sum(w / om * np.abs(lam0) ** 2 * np.exp(1j * k_modes * delta))

    worst = 0.0
    for i in range(len(x)):
        for j in range(len(x)):
            worst = max(worst, abs(u[i, j] - u_of_difference(x[i] - x[j])))
    assert worst <= 1e-12


def test_kernel_symmetry(nelson_small):
    kern = pekar_kernel(nelson_small)
    u = kern.single_particle
    assert np.max(np.abs(u - u.conj().T)) <= 1e-14
    v = kern.config_matrix
    assert np.max(np.abs(v - v.T)) <= 1e-14


def test_kernel_matrix_matches_convolution(nelson_small):
    rng = np.random.default_rng(4)
    psi = random_wavefunction(nelson_small.grid, rng)
    density = np.abs(psi.values) ** 2 * nelson_small.grid.measure
    via_matrix = pekar_kernel(nelson_small).config_matrix @ density
    via_modes = kernel_convolve(nelson_small, density)
    assert np.max(np.abs(via_matrix - via_modes)) <= 1e-13


def test_two_particle_kernel_paths_agree(nelson_pair):
    rng = np.random.default_rng(8)
    psi = random_wavefunction(nelson_pair.grid, rng)
    density = np.abs(psi.values) ** 2 * nelson_pair.grid.measure
    kern = pekar_kernel(nelson_pair)
    assert kern.config_matrix.shape == (144, 144)
    assert np.max(np.abs(kern.config_matrix - kern.config_matrix.T)) <= 1e-13
    via_matrix = kern.config_matrix @ density
    via_modes = kernel_convolve(nelson_pair, density)
    assert np.max(np.abs(via_matrix - via_modes)) <= 1e-13
    pe = pekar_energy(nelson_pair, psi)
    assert pe.kernel_value == pytest.approx(pe.value, rel=1e-10)


def test_pekar_kernel_over_cap_raises():
    # G^2 = 4.19M entries exceed the default cap of 4M
    grid = build_particle_grid(1, 1, 8.0, 2048)
    modes = build_field_modes([[1.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    ff = nelson_form_factor(grid, modes, [0.5], dispersion=disp)
    spec = make_model("nelson", grid, modes, disp, ff, "harmonic")
    with pytest.raises(CapacityError):
        pekar_kernel(spec)


def test_pekar_energy_zero_coupling():
    grid = build_particle_grid(1, 1, 4.0, 16)
    modes = build_field_modes([[1.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    ff = nelson_form_factor(grid, modes, [0.0])
    spec = make_model("nelson", grid, modes, disp, ff, "harmonic")
    psi = random_wavefunction(grid, np.random.default_rng(1))
    pe = pekar_energy(spec, psi)
    assert pe.value == pytest.approx(assemble_k0(spec).expectation(psi),
                                     rel=1e-13)


def test_pekar_energy_decoupled_closed_form(decoupled):
    _, psi = ground_eigenpair(assemble_k0(decoupled))
    pe = pekar_energy(decoupled, psi)
    assert pe.value == pytest.approx(E0_HARMONIC_64 - 0.25, abs=1e-10)
    assert pe.kernel_value == pytest.approx(pe.value, rel=1e-10)


def test_pekar_energy_is_field_minimum(nelson_small):
    rng = np.random.default_rng(9)
    psi = random_wavefunction(nelson_small.grid, rng)
    pe = pekar_energy(nelson_small, psi)
    k = nelson_small.n_modes
    for _ in range(20):
        eta = field_eta(rng.standard_normal(k) + 1j * rng.standard_normal(k))
        assert qc_energy_eta(nelson_small, psi, eta) >= pe.value - 1e-12
    # equality only at the minimizer
    assert qc_energy_eta(nelson_small, psi, pe.eta) == pytest.approx(
        pe.value, rel=1e-12)


def test_pekar_energy_dual_routes_agree(nelson_small, polaron_small):
    rng = np.random.default_rng(10)
    for spec in (nelson_small, polaron_small):
        for _ in range(10):
            psi = random_wavefunction(spec.grid, rng)
            pe = pekar_energy(spec, psi)  # raises ConsistencyError on mismatch
            assert pe.kernel_value == pytest.approx(pe.value, rel=1e-10)


def test_pekar_energy_consistency_guard_trips(nelson_small, monkeypatch):
    rng = np.random.default_rng(10)
    psi = None
    for _ in range(20):  # find a draw where the two routes differ in rounding
        cand = random_wavefunction(nelson_small.grid, rng)
        pe = pekar_energy(nelson_small, cand)
        if pe.value != pe.kernel_value:
            psi = cand
            break
    assert psi is not None
    monkeypatch.setattr(pekar, "PEKAR_AGREE_TOL", 1e-17)
    with pytest.raises(ConsistencyError):
        pekar_energy(nelson_small, psi)


def test_one_particle_density_single(nelson_small):
    rng = np.random.default_rng(12)
    psi = random_wavefunction(nelson_small.grid, rng)
    rho = one_particle_density(psi, nelson_small.grid)
    assert np.allclose(rho.values, np.abs(psi.values) ** 2)
    assert rho.total() == pytest.approx(1.0, abs=1e-10)


def test_one_particle_density_product_state(nelson_pair):
    grid = nelson_pair.grid
    rng = np.random.default_rng(14)
    phi = rng.standard_normal(grid.single_count) \
        + 1j * rng.standard_normal(grid.single_count)
    phi /= np.linalg.norm(phi) * np.sqrt(grid.spacing)
    psi = WaveFunction(np.kron(phi, phi), grid)
    psi.require_normalized()
    rho = one_particle_density(psi, grid)
    assert np.allclose(rho.values, 2.0 * np.abs(phi) ** 2, atol=1e-12)
    assert rho.total() == pytest.approx(2.0, abs=1e-10)


def test_eta_pekar_from_density_matches_direct(nelson_pair):
    grid = nelson_pair.grid
    rng = np.random.default_rng(15)
    phi = rng.standard_normal(grid.single_count) \
        + 1j * rng.standard_normal(grid.single_count)
    phi /= np.linalg.norm(phi) * np.sqrt(grid.spacing)
    psi = WaveFunction(np.kron(phi, phi), grid)
    direct = eta_pekar(nelson_pair, psi)
    via_rho = eta_pekar_from_density(nelson_pair,
                                     one_particle_density(psi, grid))
    assert np.max(np.abs(direct.values - via_rho.values)) <= 1e-12


def _real_t(spec, psi):
    """T as a real 2K x 2K matrix on (Re eta, Im eta), column by column from
    apply_t on the unit fields e_j and i e_j."""
    units = np.eye(spec.n_modes)
    cols = [spec.coupling.apply_t(spec, psi, u)
            for u in (*units, *(1j * units))]
    return np.array([np.concatenate([c.real, c.imag]) for c in cols]).T


def test_minimal_coupling_eta_unique(pf_small):
    rng = np.random.default_rng(16)
    psi = random_wavefunction(pf_small.grid, rng)
    eta = eta_pekar(pf_small, psi)
    assert np.linalg.cond(np.eye(4) + _real_t(pf_small, psi)) < 1e3
    k = pf_small.n_modes
    for _ in range(2):
        start = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        eta_fp, n_it = fixed_point_eta(pf_small, psi, start=start)
        assert mode_norm(pf_small.modes, eta.values - eta_fp.values) <= 1e-10
    # the solved field zeroes the stationarity equation
    res = el_residual(pf_small, psi, eta_to_z(eta, pf_small.dispersion))
    assert res.field_residual <= 1e-10


@pytest.mark.parametrize("model", ["pf_pair", "nelson_pair"])
def test_minimizing_field_matches_fixed_point_pair(request, model):
    # two particles (minimal coupling: different masses and charges; linear
    # coupling: T = 0): the (1 + T) solve and the fixed-point iteration meet
    # at the one minimizing field
    spec = request.getfixturevalue(model)
    rng = np.random.default_rng(20)
    psi = random_wavefunction(spec.grid, rng)
    eta = eta_pekar(spec, psi)
    k = spec.n_modes
    for _ in range(2):
        start = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        eta_fp, _ = fixed_point_eta(spec, psi, start=start)
        assert mode_norm(spec.modes, eta.values - eta_fp.values) <= 1e-10
    res = el_residual(spec, psi, eta_to_z(eta, spec.dispersion))
    assert res.field_residual <= 1e-10


@pytest.mark.parametrize("model", ["nelson_small", "polaron_small",
                                   "nelson_pair"])
def test_linear_field_path_does_no_dense_linear_algebra(request, model,
                                                        monkeypatch):
    # T = 0: the minimizing field is -b, with no solve and no condition number
    spec = request.getfixturevalue(model)
    rng = np.random.default_rng(22)
    psi = random_wavefunction(spec.grid, rng)

    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra on the linear field path")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "cond", refuse)
    eta = eta_pekar(spec, psi)
    eta_fp, _ = fixed_point_eta(spec, psi)
    assert np.array_equal(eta.values, eta_fp.values)
    res = el_residual(spec, psi, eta_to_z(eta, spec.dispersion))
    assert res.field_residual <= 1e-10
    k = spec.n_modes
    e1 = field_eta(rng.standard_normal(k) + 1j * rng.standard_normal(k))
    g = convexity_gap(spec, psi, e1, eta, 0.3)
    assert abs(g.gap - g.prediction) <= 1e-10 * abs(g.prediction)


@pytest.mark.parametrize("case", ["cond", "nan"])
def test_eta_pekar_refuses_singular_field_system(case):
    # charge 1e7 puts 1 + T's condition near 3e13.  A NaN coupling entry
    # makes 1 + T non-finite, where numpy's condition number itself would
    # fail; the model refuses a NaN charge, but not a NaN table entry
    if case == "cond":
        spec = small_minimal_coupling(charge=1e7)
    else:
        spec = small_minimal_coupling()
        table = spec.form_factor.tables[0].copy()
        table[0, 0] = np.nan
        spec = dataclasses.replace(spec, form_factor=FormFactor((table,)))
    psi = random_wavefunction(spec.grid, np.random.default_rng(23))
    with pytest.raises(SolverError, match="singular field-minimizer system"):
        eta_pekar(spec, psi)


@pytest.mark.parametrize("model", ["pf_small", "pf_pair", "nelson_small",
                                   "nelson_pair", "polaron_small"])
def test_reduced_gradient_matches_central_differences(request, model):
    # along psi(t) = cos(t) psi + sin(t) v, v a unit tangent at psi, the
    # reduced energy's slope at t = 0 is 2 Re<v|g>; for minimal coupling g is
    # H_z psi at the solved field, by the envelope identity
    spec = request.getfixturevalue(model)
    grid = spec.grid
    rng = np.random.default_rng(24)
    psi = random_wavefunction(grid, rng)
    v = random_wavefunction(grid, rng).values
    v = v - grid_inner(grid, psi.values, v) * psi.values
    v /= grid_norm(grid, v)
    _, grad = spec.coupling.reduced(spec, psi)
    slope = 2.0 * grid_inner(grid, v, grad).real

    def energy(t):
        moved = WaveFunction(np.cos(t) * psi.values + np.sin(t) * v, grid)
        return spec.coupling.reduced(spec, moved)[0]

    h = 1e-5
    central = (energy(h) - energy(-h)) / (2.0 * h)
    assert abs(central - slope) <= 1e-6 * abs(slope)


def test_eta_pekar_from_density_refuses_minimal_coupling(pf_small, pf_pair):
    # the minimally coupled field depends on the particle current as well
    rng = np.random.default_rng(21)
    for spec in (pf_small, pf_pair):
        psi = random_wavefunction(spec.grid, rng)
        rho = one_particle_density(psi, spec.grid)
        with pytest.raises(ModelAssumptionError, match="more than the density"):
            eta_pekar_from_density(spec, rho)


def test_pekar_kernel_refuses_minimal_coupling(pf_small, pf_pair):
    for spec in (pf_small, pf_pair):
        with pytest.raises(ModelAssumptionError, match="no self-interaction"):
            pekar_kernel(spec)


def test_pekar_kernel_distinct_particle_tables(nelson_pair):
    # a linear model whose two particles couple with different strengths:
    # the configuration kernel still matches the mode-sum route, and there
    # is no one single-particle kernel to report
    table = nelson_pair.form_factor.tables[0]
    spec = ModelSpec(family="nelson", grid=nelson_pair.grid,
                     modes=nelson_pair.modes,
                     dispersion=nelson_pair.dispersion,
                     form_factor=FormFactor((table, 0.5 * table)),
                     external_potential=nelson_pair.external_potential)
    psi = random_wavefunction(spec.grid, np.random.default_rng(21))
    density = np.abs(psi.values) ** 2 * spec.grid.measure
    kern = pekar_kernel(spec)
    assert np.max(np.abs(kern.config_matrix @ density
                         - kernel_convolve(spec, density))) <= 1e-13
    assert np.array_equal(kern.pair_kernels[0][1],
                          0.5 * kern.pair_kernels[0][0])
    with pytest.raises(ModelAssumptionError):
        kern.single_particle


def test_convexity_gap_trivial_cases(nelson_small):
    rng = np.random.default_rng(17)
    psi = random_wavefunction(nelson_small.grid, rng)
    e = field_eta([0.2 + 0.1j, -0.3])
    g = convexity_gap(nelson_small, psi, e, e, 0.5)
    assert g.gap == pytest.approx(0.0, abs=1e-13)
    e1 = field_eta([1.0, 0.0])
    e2 = field_eta([-1.0, 0.0])
    g = convexity_gap(nelson_small, psi, e1, e2, 0.5)
    assert g.gap == pytest.approx(1.0, rel=1e-12)
    assert g.prediction == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("family", ["nelson_small", "polaron_small",
                                    "pf_small"])
def test_convexity_gap_matches_prediction(family, request):
    spec = request.getfixturevalue(family)
    rng = np.random.default_rng(18)
    for _ in range(20):
        psi = random_wavefunction(spec.grid, rng)
        k = spec.n_modes
        e1 = field_eta(rng.standard_normal(k) + 1j * rng.standard_normal(k))
        e2 = field_eta(rng.standard_normal(k) + 1j * rng.standard_normal(k))
        beta = float(rng.uniform(0.05, 0.95))
        g = convexity_gap(spec, psi, e1, e2, beta)
        assert g.gap > 0
        assert abs(g.gap - g.prediction) <= 1e-10 * abs(g.prediction)


def test_polaron_splitting_norms(polaron_small):
    rep = polaron_splitting(polaron_small, cutoff=1.0)
    mags = polaron_small.modes.magnitudes
    w = polaron_small.modes.weights
    low = np.sum(w[mags <= 1.0])          # d=1: |k|^0 = 1
    high = np.sum(w[mags > 1.0] * mags[mags > 1.0] ** (-2.0))
    assert rep.low_norm == pytest.approx(np.sqrt(low), rel=1e-14)
    assert rep.high_norm == pytest.approx(np.sqrt(high), rel=1e-14)
    assert rep.lower_bound == pytest.approx(
        -2.0 * polaron_small.alpha * low, rel=1e-14)
    # raising the cutoff moves weight from the high piece to the low piece
    rep_hi = polaron_splitting(polaron_small, cutoff=3.0)
    assert rep_hi.low_norm >= rep.low_norm
    assert rep_hi.high_norm <= rep.high_norm


def test_minimal_coupling_has_no_kernel_route(pf_small):
    psi = random_wavefunction(pf_small.grid, np.random.default_rng(19))
    reduced = pekar_energy(pf_small, psi)
    assert reduced.kernel_value is None
    assert reduced.value == qc_energy_eta(pf_small, psi,
                                          eta_pekar(pf_small, psi))
