"""The configuration-grid order, checked against explicit loops: N particle
blocks of G^d points, row-major, particle 0 slowest."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from qcfield import (FormFactor, build_dispersion, build_field_modes,
                     build_particle_grid, make_model, nelson_form_factor,
                     pekar_kernel)


def _configurations(grid):
    """Single-particle index of every particle, one row per configuration
    point, enumerated with particle 0 slowest."""
    return np.array(list(itertools.product(range(grid.single_count),
                                           repeat=grid.n_particles)))


@pytest.mark.parametrize("dim, n_particles", [(1, 3), (2, 2)])
def test_lift_single_table_matches_loops(dim, n_particles):
    grid = build_particle_grid(dim, n_particles, 4.0, 8)
    rng = np.random.default_rng(7)
    table = rng.standard_normal((grid.single_count, 3)) \
        + 1j * rng.standard_normal((grid.single_count, 3))
    configs = _configurations(grid)
    for p in range(n_particles):
        lifted = grid.lift_single(table, p)
        assert lifted.shape == (grid.total_points, 3)
        for x, idx in enumerate(configs):
            assert np.array_equal(lifted[x], table[idx[p]])
        for j in range(3):
            assert np.array_equal(grid.lift_single(table[:, j], p),
                                  lifted[:, j])


@pytest.mark.parametrize("dim, n_particles", [(1, 3), (2, 2)])
def test_lift_axis_acts_on_the_lifted_coordinate(dim, n_particles):
    """The diagonal of a lifted coordinate operator is the lifted coordinate
    column: lift_axis and lift_single agree on the order."""
    grid = build_particle_grid(dim, n_particles, 4.0, 8)
    position = sp.diags(grid.axis_coords)
    for p in range(n_particles):
        for a in range(dim):
            lifted = grid.lift_axis(position, p, a)
            assert lifted.shape == (grid.total_points,) * 2
            assert np.array_equal(
                lifted.diagonal(),
                grid.lift_single(grid.single_coords[:, a], p))


def test_marginal_three_particles_matches_loops():
    grid = build_particle_grid(1, 3, 4.0, 8)
    assert grid.total_points == 512
    flat = np.random.default_rng(11).standard_normal(grid.total_points)
    for p in range(3):
        expected = np.zeros(grid.single_count)
        for x, idx in enumerate(_configurations(grid)):
            expected[idx[p]] += flat[x]
        np.testing.assert_allclose(grid.marginal(flat, p), expected,
                                   rtol=0, atol=1e-13)


def test_pekar_kernel_three_particles_matches_pair_sum():
    """config_matrix[X, Y] = -Re sum_{p,q} U_pq(x_p, y_q), with
    U_pq(x, y) = sum_j (w_j / omega_j) conj(lambda_p(x; k_j)) lambda_q(y; k_j)
    and a different coupling amplitude for each particle."""
    grid = build_particle_grid(1, 3, 4.0, 8)
    modes = build_field_modes([[-1.0], [0.5], [1.5]], weights=[0.7, 1.0, 1.3])
    disp = build_dispersion([1.0, 1.5, 2.0])
    plane = nelson_form_factor(grid, modes, [1.0, 1.0, 1.0]).tables[0]
    amps = ([0.3, 0.2j, -0.1], [0.1, 0.4, 0.2j], [-0.2j, 0.1, 0.3])
    tables = tuple(plane * np.array(a) for a in amps)
    spec = make_model("nelson", grid, modes, disp, FormFactor(tables),
                      "harmonic")
    kernel = pekar_kernel(spec)

    coef = modes.weights / disp.values
    u = [[np.conj(tp) @ np.diag(coef) @ tq.T for tq in tables] for tp in tables]
    configs = _configurations(grid)
    expected = np.zeros((grid.total_points, grid.total_points))
    for x, idx in enumerate(configs):
        for p in range(3):
            for q in range(3):
                expected[x] -= np.real(u[p][q][idx[p], configs[:, q]])
    np.testing.assert_allclose(kernel.config_matrix, expected,
                               rtol=0, atol=1e-14)
