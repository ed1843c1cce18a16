import numpy as np
import pytest

from qcfield import (GaugeError, NormalizationError, WaveFunction,
                     assemble_hz, assemble_k0, box_ground_energy,
                     build_dispersion, build_field_modes, build_particle_grid,
                     el_residual, field_eta, field_gradient, field_z,
                     ground_eigenpair, make_model, mode_norm,
                     nelson_form_factor, qc_energy, qc_energy_eta,
                     random_wavefunction, z_to_eta)
from qcfield.qc_energy import effective_potential

from oracles import E0_HARMONIC_64, dense_harmonic_ground, discrete_box_ground


def test_k0_harmonic_matches_dense_oracle(decoupled):
    e0, _ = ground_eigenpair(assemble_k0(decoupled))
    assert e0 == pytest.approx(E0_HARMONIC_64, abs=1e-10)
    assert e0 == pytest.approx(dense_harmonic_ground(64, 8.0), abs=1e-10)


def test_k0_box_ground_closed_form():
    grid = build_particle_grid(1, 1, 8.0, 64)
    modes = build_field_modes([[0.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    ff = nelson_form_factor(grid, modes, [0.0])
    spec = make_model("nelson", grid, modes, disp, ff, "zero")
    e0, _ = ground_eigenpair(assemble_k0(spec))
    assert e0 == pytest.approx(discrete_box_ground(64, 8.0), abs=1e-12)
    assert e0 == pytest.approx(box_ground_energy(grid), abs=1e-12)
    # within O(h) of the continuum box value
    assert abs(e0 - (np.pi / 16) ** 2) < 0.05 * (np.pi / 16) ** 2


def test_k0_eigen_identity(decoupled):
    op = assemble_k0(decoupled)
    e0, psi = ground_eigenpair(op)
    assert op.expectation(psi) == pytest.approx(e0, abs=1e-10)


def test_k0_built_once_per_spec(decoupled, pf_small):
    for spec in (decoupled, pf_small):
        assert assemble_k0(spec) is assemble_k0(spec)


def test_effective_potential_zero_field(decoupled):
    v = effective_potential(decoupled, field_z([0.0]))
    assert np.all(v == 0)


def test_effective_potential_constant_mode(decoupled):
    v = effective_potential(decoupled, field_z([1.0]))
    assert np.allclose(v, 1.0)


def test_effective_potential_imag_field(cosine):
    v = effective_potential(cosine, field_z([1.0j]))
    x = cosine.grid.axis_coords
    assert np.allclose(v, -np.sin(x), atol=1e-14)


def test_effective_potential_gauge_mismatch(decoupled):
    with pytest.raises(GaugeError):
        effective_potential(decoupled, field_eta([1.0]))


def test_hz_zero_field_equals_k0(decoupled):
    hz = assemble_hz(decoupled, field_z([0.0]))
    k0 = assemble_k0(decoupled)
    assert (hz.matrix - k0.matrix).nnz == 0 or \
        np.max(np.abs((hz.matrix - k0.matrix).data)) == 0
    assert hz.constant_offset == 0.0


def test_hz_decoupled_shift(decoupled):
    hz = assemble_hz(decoupled, field_z([-0.5]))
    assert hz.constant_offset == pytest.approx(0.25)
    e0, _ = ground_eigenpair(hz)
    assert e0 + hz.constant_offset == pytest.approx(E0_HARMONIC_64 - 0.25,
                                                    abs=1e-10)


@pytest.mark.parametrize("family", ["nelson_small", "polaron_small",
                                    "pf_small"])
def test_hz_hermitian(family, request):
    spec = request.getfixturevalue(family)
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = field_z(rng.standard_normal(spec.n_modes)
                    + 1j * rng.standard_normal(spec.n_modes))
        assert assemble_hz(spec, z).hermiticity_defect() <= 1e-12


def test_qc_energy_decoupled_values(decoupled):
    _, psi = ground_eigenpair(assemble_k0(decoupled))
    assert qc_energy(decoupled, psi, field_z([0.0])) == pytest.approx(
        E0_HARMONIC_64, abs=1e-10)
    assert qc_energy(decoupled, psi, field_z([-0.5])) == pytest.approx(
        E0_HARMONIC_64 - 0.25, abs=1e-10)


def test_qc_energy_gauge_invariance(decoupled):
    rng = np.random.default_rng(7)
    psi = random_wavefunction(decoupled.grid, rng)
    z = field_z([0.3 - 0.2j])
    base = qc_energy(decoupled, psi, z)
    for theta in rng.uniform(0, 2 * np.pi, size=8):
        rotated = WaveFunction(psi.values * np.exp(1j * theta), decoupled.grid)
        assert qc_energy(decoupled, rotated, z) == pytest.approx(base,
                                                                 rel=1e-14)


def test_qc_energy_rejects_unnormalized(decoupled):
    bad = WaveFunction(np.ones(decoupled.grid.total_points, dtype=complex),
                       decoupled.grid)
    with pytest.raises(NormalizationError):
        qc_energy(decoupled, bad, field_z([0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_wavefunction_refused(cosine, bad):
    """A NaN norm fails the tolerance check, and a non-finite vector is
    not normalized to NaN values."""
    values = np.full(cosine.grid.total_points, bad, dtype=complex)
    with pytest.raises(NormalizationError):
        WaveFunction(values, cosine.grid).require_normalized()
    with pytest.raises(NormalizationError):
        qc_energy(cosine, WaveFunction(values, cosine.grid), field_z([0.1]))
    with pytest.raises(NormalizationError):
        WaveFunction.normalized(values, cosine.grid)
    values[0] = 1.0  # one finite entry does not help
    with pytest.raises(NormalizationError):
        WaveFunction.normalized(values, cosine.grid)


@pytest.mark.parametrize("family", ["nelson_small", "polaron_small",
                                    "pf_small"])
def test_eta_gauge_change_of_variables(family, request):
    spec = request.getfixturevalue(family)
    rng = np.random.default_rng(11)
    for _ in range(10):
        psi = random_wavefunction(spec.grid, rng)
        z = field_z(rng.standard_normal(spec.n_modes)
                    + 1j * rng.standard_normal(spec.n_modes))
        lhs = qc_energy_eta(spec, psi, z_to_eta(z, spec.dispersion))
        rhs = qc_energy(spec, psi, z)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_eta_zero_gives_k0_expectation(nelson_small):
    rng = np.random.default_rng(2)
    psi = random_wavefunction(nelson_small.grid, rng)
    e = qc_energy_eta(nelson_small, psi, field_eta([0.0, 0.0]))
    assert e == pytest.approx(assemble_k0(nelson_small).expectation(psi),
                              rel=1e-13)


def test_complete_the_square_identity(nelson_small):
    # f(eta) = <K0> + 2 Re<eta, m> + ||eta||^2 attains <K0> - ||m||^2 at -m
    from qcfield.qc_energy import coupling_expectation
    rng = np.random.default_rng(3)
    psi = random_wavefunction(nelson_small.grid, rng)
    m = coupling_expectation(nelson_small, psi) \
        / np.sqrt(nelson_small.dispersion.values)
    e_min = qc_energy_eta(nelson_small, psi, field_eta(-m))
    k0 = assemble_k0(nelson_small).expectation(psi)
    assert e_min == pytest.approx(
        k0 - mode_norm(nelson_small.modes, m) ** 2, rel=1e-12)


def test_field_quadratic_exactness(nelson_small):
    # linear-family energy is exactly quadratic in eta
    rng = np.random.default_rng(5)
    psi = random_wavefunction(nelson_small.grid, rng)
    k = nelson_small.n_modes
    e1 = field_eta(rng.standard_normal(k) + 1j * rng.standard_normal(k))
    e2 = field_eta(rng.standard_normal(k) + 1j * rng.standard_normal(k))
    beta = 0.37
    mix = field_eta(beta * e1.values + (1 - beta) * e2.values)
    lhs = qc_energy_eta(nelson_small, psi, mix)
    rhs = beta * qc_energy_eta(nelson_small, psi, e1) \
        + (1 - beta) * qc_energy_eta(nelson_small, psi, e2) \
        - beta * (1 - beta) * mode_norm(nelson_small.modes,
                                        e1.values - e2.values) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _fd_gradient(spec, psi, z, step=1e-5):
    base = z.values
    out = np.zeros(len(base), dtype=complex)
    for j in range(len(base)):
        for direction, mul in ((1.0, 1.0), (1j, 1j)):
            zp = base.copy()
            zp[j] += step * direction
            zm = base.copy()
            zm[j] -= step * direction
            diff = (qc_energy(spec, psi, field_z(zp))
                    - qc_energy(spec, psi, field_z(zm))) / (2 * step)
            out[j] += mul * diff
    return out


@pytest.mark.parametrize("family", ["nelson_small", "polaron_small",
                                    "pf_small", "pf_pair"])
def test_field_gradient_matches_finite_differences(family, request):
    spec = request.getfixturevalue(family)
    rng = np.random.default_rng(13)
    for _ in range(12):
        psi = random_wavefunction(spec.grid, rng)
        z = field_z(rng.standard_normal(spec.n_modes)
                    + 1j * rng.standard_normal(spec.n_modes))
        analytic = field_gradient(spec, psi, z)
        fd = _fd_gradient(spec, psi, z)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(analytic - fd)) <= 1e-6 * scale


def test_el_residual_eigenpair(decoupled):
    z = field_z([0.2 + 0.1j])
    op = assemble_hz(decoupled, z)
    _, psi = ground_eigenpair(op)
    res = el_residual(decoupled, psi, z)
    assert res.psi_residual <= 1e-8


def test_el_residual_at_decoupled_minimizer(decoupled):
    _, psi = ground_eigenpair(assemble_k0(decoupled))
    res = el_residual(decoupled, psi, field_z([-0.5]))
    assert res.psi_residual <= 1e-8
    assert res.field_residual <= 1e-8


@pytest.mark.parametrize("family", ["nelson_small", "polaron_small",
                                    "pf_small", "pf_pair"])
def test_field_residual_is_weighted_gradient_norm(family, request):
    # the stationarity vector is the coordinate gradient over 2 w_j
    spec = request.getfixturevalue(family)
    rng = np.random.default_rng(19)
    psi = random_wavefunction(spec.grid, rng)
    z = field_z(rng.standard_normal(spec.n_modes)
                + 1j * rng.standard_normal(spec.n_modes))
    res = el_residual(spec, psi, z)
    r = field_gradient(spec, psi, z) / (2.0 * spec.modes.weights)
    norm = np.sqrt(np.sum(spec.modes.weights * spec.dispersion.values
                          * np.abs(r) ** 2))
    assert res.field_residual == pytest.approx(norm, rel=1e-12)
