import numpy as np
import pytest
import scipy.sparse as sp
from math import comb

from qcfield import (CapacityError, TruncationError, alternating_minimize,
                     assemble_h_eps, assemble_hz, assemble_k0,
                     build_fock_basis,
                     coherent_product_state, coherent_tail, dgamma,
                     epsilon_sweep, field_z, ground_eigenpair,
                     ground_energy_eps, ground_state_eps, ladder_operators,
                     required_n_max, random_wavefunction, shell_rule_n_max,
                     stability_lower_bound, trial_energy)
from qcfield import fock, minimize, presets
from qcfield.fock import coherent_fock_coefficients
from qcfield.minimize import k0_preconditioner
from qcfield.presets import small_polaron, two_particle_nelson
from qcfield.qc_energy import momentum_matrix

from oracles import (dense_displaced_oscillator,
                     displaced_oscillator_ground, fock_states, kron_h_eps,
                     ladder_matrices)

EPS_LIST = [0.5, 0.25, 0.125, 0.0625]


def test_basis_enumeration_counts():
    for k, n in [(1, 6), (2, 4), (3, 3)]:
        basis = build_fock_basis(k, n)
        assert basis.dim == comb(k + n, n)
        # graded: totals never decrease along the enumeration
        assert np.all(np.diff(basis.totals) >= 0)
        # total order: all states distinct
        assert np.array_equal(basis.rank(basis.states), np.arange(basis.dim))


@pytest.mark.parametrize("n_modes, n_max",
                         [(1, 0), (1, 24), (2, 7), (3, 5), (6, 6), (40, 2)])
def test_rank_basis_and_ladders_match_enumeration(n_modes, n_max):
    basis = build_fock_basis(n_modes, n_max)
    assert np.array_equal(basis.rank(basis.states), np.arange(basis.dim))
    expected = fock_states(n_modes, n_max)
    assert basis.states.dtype == expected.dtype
    assert np.array_equal(basis.states, expected)
    for got, ref in zip(ladder_operators(basis, 0.3),
                        ladder_matrices(expected, 0.3)):
        for a, b in zip(got, ref):  # bit-identical CSR arrays
            for name in ("data", "indices", "indptr"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("n_modes, small, large", [(1, 3, 9), (2, 4, 7),
                                                   (3, 0, 4), (4, 5, 7),
                                                   (6, 2, 3)])
def test_smaller_basis_is_leading_block(n_modes, small, large):
    """The sweep's warm start pads the previous vector with zeros: that is
    exact because a smaller cutoff's basis is the larger one's first rows."""
    lo = build_fock_basis(n_modes, small)
    hi = build_fock_basis(n_modes, large)
    assert np.array_equal(lo.states, hi.states[:lo.dim])


def _kron_oracle(spec, n_max, eps):
    """tests/oracles.kron_h_eps on spec's K_0, lifted tables and, under
    minimal coupling, momenta, masses and charge."""
    grid = spec.grid
    particles = range(grid.n_particles)
    extra = {}
    if spec.family == "pauli_fierz":
        extra = dict(momenta=[momentum_matrix(grid, p) for p in particles],
                     masses=[spec.mass_of(p) for p in particles],
                     charge=spec.charge)
    return kron_h_eps(
        assemble_k0(spec).matrix,
        [grid.lift_single(spec.form_factor.tables[p], p) for p in particles],
        spec.modes.weights, spec.dispersion.values,
        fock_states(spec.n_modes, n_max), eps, **extra)


@pytest.mark.parametrize("fixture, n_max", [("polaron_small", 4),
                                            ("nelson_pair", 4),
                                            ("pf_small", 4)])
@pytest.mark.parametrize("eps", [0.5, 0.3])
def test_h_eps_matches_kron_oracle(fixture, n_max, eps, request):
    """assemble_h_eps builds each particle's field in one pass; its CSR
    arrays are bit-identical to the term-by-term Kronecker construction,
    on a basis enumerated at n_max and on the leading block of a deeper
    one, as a sweep takes it."""
    spec = request.getfixturevalue(fixture)
    expected = _kron_oracle(spec, n_max, eps)
    for basis in (build_fock_basis(spec.n_modes, n_max),
                  build_fock_basis(spec.n_modes, n_max + 2).leading_block(
                      n_max)):
        got = assemble_h_eps(spec, basis, eps)
        for name in ("data", "indices", "indptr"):
            x, y = getattr(got, name), getattr(expected, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)


def test_ladder_vacuum_expectation():
    basis = build_fock_basis(1, 6)
    for eps in (1.0, 0.25):
        low, high = ladder_operators(basis, eps)
        vac = np.zeros(basis.dim)
        vac[0] = 1.0
        val = vac @ (low[0] @ (high[0] @ vac))
        assert val == pytest.approx(eps)


def test_ladder_truncated_ccr():
    basis = build_fock_basis(2, 5)
    eps = 0.3
    low, high = ladder_operators(basis, eps)
    interior = np.flatnonzero(basis.totals < basis.n_max)
    for j in range(2):
        comm = (low[j] @ high[j] - high[j] @ low[j]).toarray()
        target = eps * np.eye(basis.dim)
        sub = np.ix_(interior, interior)
        assert np.max(np.abs(comm[sub] - target[sub])) <= 1e-14


def test_number_operator_spectrum():
    basis = build_fock_basis(1, 7)
    eps = 0.4
    low, high = ladder_operators(basis, eps)
    number = (high[0] @ low[0]) / eps
    vals = np.sort(np.linalg.eigvalsh(number.toarray()))
    assert np.allclose(vals, np.arange(8), atol=1e-12)


def test_dgamma_values(frozen_mode):
    basis = build_fock_basis(1, 5)
    d = dgamma(basis, frozen_mode.dispersion, 0.5)  # omega = 2
    diag = d.diagonal().real
    assert diag[0] == 0.0
    idx3 = basis.rank(np.array([[3]]))[0]
    assert diag[idx3] == pytest.approx(3.0)


def test_dgamma_monotone_under_regularized_dispersion(nelson_small):
    # a dispersion dominated by omega gives entrywise-dominated field energy
    basis = build_fock_basis(nelson_small.n_modes, 4)
    full = dgamma(basis, nelson_small.dispersion, 0.25).diagonal().real
    reduced = type(nelson_small.dispersion)(
        values=0.7 * nelson_small.dispersion.values)
    assert np.all(dgamma(basis, reduced, 0.25).diagonal().real <= full + 1e-15)


def test_h_eps_zero_coupling_block_diagonal():
    from qcfield import (build_dispersion, build_field_modes,
                         build_particle_grid, make_model, nelson_form_factor)
    grid = build_particle_grid(1, 1, 8.0, 16)
    modes = build_field_modes([[1.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    ff = nelson_form_factor(grid, modes, [0.0])
    spec = make_model("nelson", grid, modes, disp, ff, "harmonic")
    basis = build_fock_basis(1, 6)
    e_ref, _ = ground_eigenpair(assemble_k0(spec))
    for eps in (0.5, 0.125):
        h = assemble_h_eps(spec, basis, eps)
        e, _ = ground_energy_eps(h)
        assert e == pytest.approx(e_ref, abs=1e-9)


@pytest.mark.parametrize("family", ["nelson_small", "polaron_small",
                                    "pf_small"])
def test_h_eps_hermitian(family, request):
    spec = request.getfixturevalue(family)
    basis = build_fock_basis(spec.n_modes, 3)
    h = assemble_h_eps(spec, basis, 0.3)
    defect = np.max(np.abs((h - h.conj().T).toarray()))
    assert defect <= 1e-12


def test_displaced_oscillator_identity(frozen_mode):
    basis = build_fock_basis(1, 12)
    exact = displaced_oscillator_ground(0.3, 2.0)
    for eps in EPS_LIST:
        h = assemble_h_eps(frozen_mode, basis, eps)
        e, _ = ground_energy_eps(h)
        assert abs(e - exact) <= 1e-8
        # independent dense oracle of the same truncation
        assert e == pytest.approx(dense_displaced_oscillator(eps, 0.3, 2.0, 12),
                                  abs=1e-11)
    # truncation error certified by deepening the cutoff
    basis16 = build_fock_basis(1, 16)
    h = assemble_h_eps(frozen_mode, basis16, EPS_LIST[-1])
    e16, _ = ground_energy_eps(h)
    assert abs(e16 - exact) <= 1e-10


def test_stability_lower_bound_nelson_instances(decoupled, cosine,
                                                nelson_small, frozen_mode):
    basis12 = build_fock_basis(1, 12)
    for spec in (decoupled, cosine, frozen_mode):
        bound = stability_lower_bound(spec)
        h = assemble_h_eps(spec, basis12, 0.25)
        e, _ = ground_energy_eps(h)
        assert e >= bound
    basis2 = build_fock_basis(nelson_small.n_modes, 6)
    h = assemble_h_eps(nelson_small, basis2, 0.25)
    e, _ = ground_energy_eps(h)
    assert e >= stability_lower_bound(nelson_small)


def test_coherent_state_zero_displacement(decoupled):
    basis = build_fock_basis(1, 8)
    _, psi = ground_eigenpair(assemble_k0(decoupled))
    state = coherent_product_state(decoupled, basis, 0.5, psi, field_z([0.0]))
    assert state.tail_mass == 0.0
    assert state.fock_coeffs[0] == pytest.approx(1.0)
    assert np.allclose(state.fock_coeffs[1:], 0.0)


def test_coherent_state_occupation(decoupled):
    basis = build_fock_basis(1, 24)
    _, psi = ground_eigenpair(assemble_k0(decoupled))
    eps = 0.5
    z = field_z([0.5])
    state = coherent_product_state(decoupled, basis, eps, psi, z)
    n_vals = basis.totals
    occ = float(np.sum(np.abs(state.fock_coeffs) ** 2 * n_vals))
    assert occ == pytest.approx(abs(0.5) ** 2 / eps, abs=1e-10)
    # expected excitation number eps*<n> equals ||z||^2, independent of eps
    for eps in (0.5, 0.25):
        state = coherent_product_state(decoupled, basis, eps, psi, z)
        occ = float(np.sum(np.abs(state.fock_coeffs) ** 2 * n_vals))
        assert eps * occ == pytest.approx(0.25, abs=1e-9)


def test_coherent_tail_is_poisson(decoupled):
    basis = build_fock_basis(1, 6)
    z = field_z([1.2 - 0.4j])
    eps = 0.25
    coeffs, tail = coherent_fock_coefficients(decoupled, basis, eps, z)
    nu = abs(z.values[0]) ** 2 / eps
    assert tail == pytest.approx(coherent_tail(nu, 6), abs=1e-12)


def test_coherent_truncation_error_names_required_cutoff(decoupled):
    basis = build_fock_basis(1, 4)
    _, psi = ground_eigenpair(assemble_k0(decoupled))
    with pytest.raises(TruncationError) as err:
        coherent_product_state(decoupled, basis, 0.05, psi, field_z([1.0]))
    needed = err.value.required_n_max
    assert needed > 4
    assert coherent_tail(1.0 / 0.05, needed) <= 1e-8


def test_trial_energy_zero_field_zero_coupling():
    from qcfield import (build_dispersion, build_field_modes,
                         build_particle_grid, make_model, nelson_form_factor)
    grid = build_particle_grid(1, 1, 8.0, 16)
    modes = build_field_modes([[1.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    ff = nelson_form_factor(grid, modes, [0.0])
    spec = make_model("nelson", grid, modes, disp, ff, "harmonic")
    basis = build_fock_basis(1, 6)
    _, psi = ground_eigenpair(assemble_k0(spec))
    t = trial_energy(spec, basis, 0.5, psi, field_z([0.0]))
    assert t.gap <= 1e-12
    assert t.energy == pytest.approx(assemble_k0(spec).expectation(psi),
                                     rel=1e-12)


def test_trial_energy_variational_upper_bound(cosine, cosine_min):
    eps = 0.25
    nm = shell_rule_n_max(cosine, cosine_min.z_star, eps, 1e-8)
    basis = build_fock_basis(1, nm)
    t = trial_energy(cosine, basis, eps, cosine_min.psi_star,
                     cosine_min.z_star)
    h = assemble_h_eps(cosine, basis, eps)
    e, _ = ground_energy_eps(h)
    assert e <= t.energy + 1e-12


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_trial_gap_minimal_coupling_pair(pf_pair, eps):
    # the coherent state leaves exactly the normal-ordering term of A_p^2:
    # gap = eps sum_p (e^2/2m_p) sum_j w_j |lambda_pj|^2 for plane waves
    psi = random_wavefunction(pf_pair.grid, np.random.default_rng(4))
    z = field_z([0.3 - 0.2j, -0.1 + 0.25j])
    basis = build_fock_basis(pf_pair.n_modes,
                             shell_rule_n_max(pf_pair, z, eps, 1e-14))
    t = trial_energy(pf_pair, basis, eps, psi, z)
    w = pf_pair.modes.weights
    expected = eps * sum(
        pf_pair.charge ** 2 / (2.0 * pf_pair.mass_of(p))
        * np.sum(w * np.abs(pf_pair.form_factor.tables[p][0]) ** 2)
        for p in range(pf_pair.grid.n_particles))
    assert t.gap == pytest.approx(expected, abs=1e-12)


def test_required_n_max_monotone():
    assert required_n_max(0.5, 1e-8) <= required_n_max(4.0, 1e-8)
    assert required_n_max(2.0, 1e-6) <= required_n_max(2.0, 1e-10)


def test_epsilon_sweep_decoupled(decoupled, decoupled_min):
    rep = epsilon_sweep(decoupled, EPS_LIST, decoupled_min.energy,
                        decoupled_min.z_star)
    assert rep.monotone_ok
    assert rep.all_reliable
    errs = [r.abs_err for r in rep.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-3 * abs(decoupled_min.energy)


def test_epsilon_sweep_frozen_flat(frozen_mode):
    e_ref = displaced_oscillator_ground(0.3, 2.0)
    z_ref = field_z([-0.15])
    rep = epsilon_sweep(frozen_mode, EPS_LIST, e_ref, z_ref, n_max=12)
    for row in rep.rows:
        assert row.abs_err <= 1e-8
        assert row.reliable


def test_epsilon_sweep_flags_small_cutoff(decoupled, decoupled_min):
    rep = epsilon_sweep(decoupled, [0.5, 0.25], decoupled_min.energy,
                        decoupled_min.z_star, n_max=2)
    assert not all(r.reliable for r in rep.rows)


def test_epsilon_sweep_rejects_bad_list(decoupled, decoupled_min):
    with pytest.raises(ValueError):
        epsilon_sweep(decoupled, [0.25, 0.5], decoupled_min.energy,
                      decoupled_min.z_star)
    with pytest.raises(ValueError):
        epsilon_sweep(decoupled, [1.5, 0.5], decoupled_min.energy,
                      decoupled_min.z_star)
    with pytest.raises(ValueError):
        epsilon_sweep(decoupled, [], decoupled_min.energy,
                      decoupled_min.z_star)


def test_epsilon_sweep_checks_capacity_before_enumerating(polaron_small,
                                                          monkeypatch):
    """At eps = 1/64 the shell rule asks for n_max = 179: 45 M Fock states,
    a tensor dimension of 723 M against the 3 M cap."""
    ref = alternating_minimize(polaron_small)

    def enumerate_basis(*args, **kwargs):
        raise AssertionError("build_fock_basis called above the cap")

    monkeypatch.setattr(fock, "build_fock_basis", enumerate_basis)
    with pytest.raises(CapacityError, match="723406320"):
        epsilon_sweep(polaron_small, [1.0 / 64], ref.energy, ref.z_star)


def test_epsilon_sweep_checks_capacity_before_any_solve(polaron_small,
                                                       monkeypatch):
    """eps = 0.5 is within the cap and 1/64 is not: the sweep is refused
    before the first point is solved."""
    ref = alternating_minimize(polaron_small)

    def solve(*args, **kwargs):
        raise AssertionError("ground_state_eps called before the cap check")

    monkeypatch.setattr(fock, "ground_state_eps", solve)
    with pytest.raises(CapacityError):
        epsilon_sweep(polaron_small, [0.5, 1.0 / 64], ref.energy, ref.z_star)


@pytest.fixture(scope="module")
def weak_polaron():
    """small_polaron at alpha = 0.05: from eps = 1.0 to 0.8 the shell rule's
    cutoff grows 5 -> 6 and F = 126 -> 210 >= G = 16, so its sweep takes
    the zero-padded start and the preconditioned LOBPCG path."""
    return small_polaron(alpha=0.05)


# (case id, fixture, eps list)
SWEEP_CASES = [("polaron_small", "weak_polaron", (1.0, 0.8)),
               ("pf_small", "pf_small", (0.5, 0.25)),
               ("nelson_pair", "nelson_pair", (0.5, 0.25))]


def _inverts_uncoupled_operator(spec, basis, eps, precond):
    """Whether precond is (K_0 (x) 1 + 1 (x) dGamma - sigma)^-1, sigma =
    lambda_0(K_0) - PRECONDITIONER_MARGIN, on a random vector."""
    k0 = assemble_k0(spec).matrix
    uncoupled = (sp.kron(k0, sp.identity(basis.dim))
                 + sp.kron(sp.identity(spec.grid.total_points),
                           dgamma(basis, spec.dispersion, eps)))
    sigma = (np.linalg.eigvalsh(k0.toarray())[0]
             - minimize.PRECONDITIONER_MARGIN)
    x = np.random.default_rng(3).standard_normal(uncoupled.shape[0])
    y = precond(x)
    return np.allclose(uncoupled @ y - sigma * y, x, atol=1e-10)


def _frame_h_eps(spec, basis, eps):
    """H_eps in the model's real mode frame, as the sweep solves it."""
    return fock._assemble_h_eps(spec, basis, eps, *fock._frame_tables(spec))


def _frame_alpha(spec, eps, z):
    """The coherent amplitudes alpha_j = sqrt(w_j) z_j / sqrt(eps) of the
    model's modes, carried to the real mode frame's as V^T alpha."""
    alpha = np.sqrt(spec.modes.weights) * z.values / np.sqrt(eps)
    v = fock._real_mode_frame(spec)
    return alpha if v is None else v.T @ alpha


def _spy_solves(monkeypatch):
    """(preconditioner, start) of every sweep solve, in order."""
    solves = []
    lowest_eigenpair = fock.lowest_eigenpair

    def spy(h, preconditioner, start):
        solves.append((preconditioner, start))
        return lowest_eigenpair(h, preconditioner, start)

    monkeypatch.setattr(fock, "lowest_eigenpair", spy)
    return solves


@pytest.mark.parametrize("fixture, eps_list", [c[1:] for c in SWEEP_CASES],
                         ids=[c[0] for c in SWEEP_CASES])
def test_preconditioned_sweep_matches_unpreconditioned_solve(
        fixture, eps_list, request, monkeypatch):
    spec = request.getfixturevalue(fixture)
    ref = alternating_minimize(spec)
    solves = _spy_solves(monkeypatch)
    rep = epsilon_sweep(spec, eps_list, ref.energy, ref.z_star)
    monkeypatch.undo()
    grid_pts = spec.grid.total_points
    for row, (precond, start) in zip(rep.rows, solves, strict=True):
        assert row.n_max == shell_rule_n_max(
            spec, ref.z_star, row.epsilon,
            fock.COHERENT_TAIL_TOL * (row.epsilon / eps_list[0]) ** 2)
        basis = build_fock_basis(spec.n_modes, row.n_max)
        assert precond is not None
        assert _inverts_uncoupled_operator(spec, basis, row.epsilon,
                                           precond) == (
            grid_pts <= max(basis.dim, minimize.DENSE_EIG_CUTOFF))
        h = assemble_h_eps(spec, basis, row.epsilon)
        if row is rep.rows[0]:
            # psi_ref (x) the coherent state of z_ref in the real mode
            # frame, psi_ref the ground state of H_(z_ref)
            _, psi = ground_eigenpair(assemble_hz(spec, ref.z_star))
            coeffs, _ = fock._coherent_coefficients(
                basis, _frame_alpha(spec, row.epsilon, ref.z_star))
            expected = np.kron(psi.values, coeffs)
            assert abs(np.vdot(expected, start)) >= (1 - 1e-12) \
                * np.linalg.norm(expected) * np.linalg.norm(start)
        else:
            # the previous ground vector padded with zeros, scaled by
            # (eps_prev / eps)^(N_f / 2) up to a constant
            start = start.reshape(grid_pts, basis.dim)
            assert not np.any(start[:, prev_dim:])
            lead = start[:, :prev_dim] * (row.epsilon / prev_eps) ** (
                0.5 * basis.totals[:prev_dim])
            lead = lead.ravel() / np.linalg.norm(lead)
            assert np.linalg.norm(prev_h @ lead - prev_e * lead) <= 1e-8
        energy, _ = ground_energy_eps(h)
        prev_h = _frame_h_eps(spec, basis, row.epsilon)
        prev_e, prev_dim = energy, basis.dim
        prev_eps = row.epsilon
        assert row.energy == pytest.approx(energy, abs=1e-10)


def _modes_model():
    """A frozen site with six nelson modes (k = 0 .. 1, omega = 1 + k,
    lambda_0 = 0.3): a real H_eps of dimension up to 74 613 at
    eps = 0.125."""
    from qcfield import (build_dispersion, build_field_modes, make_model,
                         nelson_form_factor)
    from qcfield.model import frozen_particle_grid
    grid = frozen_particle_grid()
    k = np.linspace(0.0, 1.0, 6)
    modes = build_field_modes([[x] for x in k], weights=[1.0] * 6)
    disp = build_dispersion(list(1.0 + k))
    form = nelson_form_factor(grid, modes, [0.3] * 6, dispersion=disp)
    return make_model("nelson", grid, modes, disp, form, "zero")


@pytest.fixture(scope="module")
def modes_sweep(spy_lobpcg):
    """The six-mode sweep at eps = (0.5, 0.25, 0.125) with its LOBPCG
    runs."""
    spec = _modes_model()
    ref = alternating_minimize(spec)
    with spy_lobpcg() as runs:
        epsilon_sweep(spec, [0.5, 0.25, 0.125], ref.energy, ref.z_star)
    return runs


@pytest.fixture(scope="module")
def polaron_sweep(polaron_small, spy_lobpcg):
    """The polaron sweep at eps = (0.65, 0.5) with its LOBPCG runs."""
    ref = alternating_minimize(polaron_small)
    with spy_lobpcg() as runs:
        rep = epsilon_sweep(polaron_small, [0.65, 0.5], ref.energy,
                            ref.z_star)
    return rep, runs


def test_sweep_starts_real_on_real_h_eps(modes_sweep):
    """The classical start psi_ref (x) |alpha> carries round-off imaginary
    parts even for a real field; on a real H_eps it is made real, so every
    point is solved in real arithmetic."""
    assert len(modes_sweep) == 3
    for work_dtype, start_dtype, _ in modes_sweep:
        assert work_dtype == np.float64 and start_dtype == np.float64


def test_classical_starts_cut_lobpcg_steps(modes_sweep, polaron_sweep):
    """Starting each sweep from the coherent state of the classical field,
    rescaled from point to point, bounds the LOBPCG steps: the six-mode
    sweep took 92 steps and the polaron sweep at eps = (0.65, 0.5) 101
    from the all-ones vector and the padded previous vector."""
    assert sum(steps for _, _, steps in modes_sweep) <= 65
    _, runs = polaron_sweep
    assert len(runs) == 2
    assert sum(steps for _, _, steps in runs) <= 90


def test_polaron_sweep_runs_real_in_its_frame(polaron_small, polaron_sweep):
    """The polaron's +-k mode pairs give it a real mode frame: both sweep
    points run LOBPCG in float64 (on at most 90 steps in all, checked
    above), and each energy is the ground energy of the complex H_eps of
    the model's own modes."""
    rep, runs = polaron_sweep
    assert [run[:2] for run in runs] == [(np.float64, np.float64)] * 2
    for row in rep.rows:
        basis = build_fock_basis(polaron_small.n_modes, row.n_max)
        h = assemble_h_eps(polaron_small, basis, row.epsilon)
        assert np.any(h.data.imag)
        energy, _ = ground_energy_eps(h, preconditioner=k0_preconditioner(
            polaron_small,
            dgamma(basis, polaron_small.dispersion, row.epsilon).diagonal()))
        assert row.energy == pytest.approx(energy, abs=1e-10)


@pytest.mark.parametrize("make", [
    small_polaron, lambda: small_polaron(alpha=0.2),
    lambda: presets.soliton_polaron(64)],
    ids=["small_polaron", "small_polaron_alpha_0.2", "soliton_polaron_64"])
def test_real_mode_frame(make):
    """V is unitary, mixes only modes of equal omega, and makes every
    weighted table Lambda = sqrt(w) lambda real to 64 eps_mach max|Lambda|
    (soliton_polaron(64): one group of K = 49 modes)."""
    spec = make()
    v = fock._real_mode_frame(spec)
    k, omega = spec.n_modes, spec.dispersion.values
    assert np.max(np.abs(v.conj().T @ v - np.eye(k))) <= 1e-14
    assert not np.any(v[omega[:, None] != omega[None, :]])
    lam = np.vstack(spec.form_factor.tables) * np.sqrt(spec.modes.weights)
    assert np.max(np.abs((lam @ v).imag)) \
        <= 64 * np.finfo(float).eps * np.max(np.abs(lam))


@pytest.mark.parametrize("name", ["small_nelson", "two_particle_nelson",
                                  "cosine_coupled_reference",
                                  "decoupled_reference"])
def test_real_mode_frame_is_none_without_conjugate_pairs(name):
    """One complex plane wave per omega admits no real frame, and a real
    table needs none."""
    assert fock._real_mode_frame(getattr(presets, name)()) is None


def test_frame_rotates_h_eps_and_start_together(polaron_small):
    """The frame's H_eps is real with the spectrum of the model's own, and
    the coherent start psi (x) |V^T alpha> has in it the energy that
    psi (x) |alpha> has in the model's modes."""
    eps, basis = 0.5, build_fock_basis(polaron_small.n_modes, 4)
    h = assemble_h_eps(polaron_small, basis, eps)
    h_frame = _frame_h_eps(polaron_small, basis, eps)
    assert h_frame.dtype == np.float64
    assert np.allclose(np.linalg.eigvalsh(h_frame.toarray()),
                       np.linalg.eigvalsh(h.toarray()), rtol=0, atol=1e-12)
    ref = alternating_minimize(polaron_small)
    psi = ref.psi_star.values
    coeffs, _ = coherent_fock_coefficients(polaron_small, basis, eps,
                                           ref.z_star)
    frame_coeffs, _ = fock._coherent_coefficients(
        basis, _frame_alpha(polaron_small, eps, ref.z_star))
    x, y = np.kron(psi, coeffs), np.kron(psi, frame_coeffs)
    assert np.vdot(y, y).real == pytest.approx(np.vdot(x, x).real,
                                               rel=1e-12)
    assert (np.vdot(y, h_frame @ y) / np.vdot(y, y)).real == pytest.approx(
        (np.vdot(x, h @ x) / np.vdot(x, x)).real, abs=1e-12)


def test_h_eps_krons_store_no_zeros(frozen_mode, monkeypatch):
    """A frozen site with zero potential stores one zero in K_0; H_eps
    drops it before the Kronecker product, which would repeat it F
    times."""
    assert not np.all(assemble_k0(frozen_mode).matrix.data)
    made = []
    kron = sp.kron

    def spy(*args, **kwargs):
        made.append(kron(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(sp, "kron", spy)
    assemble_h_eps(frozen_mode, build_fock_basis(1, 6), 0.5)
    assert made and all(np.all(m.data) for m in made)


def test_sweep_falls_back_to_all_ones_start(decoupled, decoupled_min,
                                            monkeypatch):
    """A pinned n_max = 4 far below ||z||^2 / eps (about 2500 at
    eps = 1e-4): every coherent coefficient underflows, the first point
    starts from the all-ones vector, and the sweep's energies match
    all-ones solves of each point."""
    eps_list = [1e-4, 5e-5]
    basis = build_fock_basis(decoupled.n_modes, 4)
    coeffs, _ = coherent_fock_coefficients(decoupled, basis, eps_list[0],
                                           decoupled_min.z_star)
    assert not np.any(coeffs)
    solves = _spy_solves(monkeypatch)
    rep = epsilon_sweep(decoupled, eps_list, decoupled_min.energy,
                        decoupled_min.z_star, n_max=4)
    monkeypatch.undo()
    assert solves[0][1] is None and solves[1][1] is not None
    for row in rep.rows:
        energy, _ = ground_state_eps(decoupled, basis, row.epsilon)
        assert row.energy == pytest.approx(energy, abs=1e-10)


def test_banded_sweep_never_builds_preconditioner(decoupled, decoupled_min,
                                                  monkeypatch):
    """A banded H_eps on a small grid (G = 64 <= DENSE_EIG_CUTOFF) is solved
    by LOBPCG with the uncoupled inverse, built from K_0's dense eigh: no
    sparse LU of H_eps or K_0 is ever factorized."""
    def splu(*args, **kwargs):
        raise AssertionError("sparse LU factorized on a small-grid sweep")

    monkeypatch.setattr(minimize.spla, "splu", splu)
    rep = epsilon_sweep(decoupled, EPS_LIST, decoupled_min.energy,
                        decoupled_min.z_star)
    assert rep.monotone_ok and rep.all_reliable


def _spy_paths(monkeypatch):
    """Names of the sparse solvers run, and of K_0's eigendecomposition."""
    ran = []
    lobpcg, k0_eigh = minimize._lobpcg, minimize._k0_eigh

    def spy_eigsh(*args, **kwargs):
        pytest.fail("spla.eigsh called: LOBPCG is the one iterative path")

    def spy_lobpcg(*args, **kwargs):
        ran.append("lobpcg")
        return lobpcg(*args, **kwargs)

    def spy_k0_eigh(spec):
        ran.append("k0_eigh")
        return k0_eigh(spec)

    monkeypatch.setattr(minimize.spla, "eigsh", spy_eigsh)
    monkeypatch.setattr(minimize, "_lobpcg", spy_lobpcg)
    monkeypatch.setattr(minimize, "_k0_eigh", spy_k0_eigh)
    return ran


@pytest.mark.parametrize("n_max, solver", [(3, "lobpcg"),
                                           (255, "lobpcg")])
def test_sweep_preconditions_when_grid_within_fock_dimension(
        n_max, solver, monkeypatch):
    """G = 256, above DENSE_EIG_CUTOFF, on either side of G <= F: F = 4
    takes LOBPCG with the model's K_0 factor, built after K_0's own ground
    solve and without K_0's eigendecomposition, F = 256 takes LOBPCG with
    the uncoupled inverse.  Either sweep first solves K_0's ground state,
    the particle part of its zero-field start."""
    spec = two_particle_nelson(points=16)
    basis = build_fock_basis(spec.n_modes, n_max)
    ran = _spy_paths(monkeypatch)
    rep = epsilon_sweep(spec, [0.5], 0.0, field_z([0.0]), n_max=n_max)
    assert ran == (["lobpcg", solver] if n_max == 3
                   else ["lobpcg", "k0_eigh", solver])
    monkeypatch.undo()
    energy, _ = ground_energy_eps(assemble_h_eps(spec, basis, 0.5))
    assert rep.rows[0].energy == pytest.approx(energy, abs=1e-10)


@pytest.mark.parametrize("case, n_max, solver",
                         [("polaron_small", 4, "lobpcg"),
                          ("nelson_pair", 2, "lobpcg")])
def test_ground_state_eps_preconditions_when_grid_within_fock_dimension(
        case, n_max, solver, request, monkeypatch):
    """The one-point helper hands the solver the uncoupled inverse when
    G <= max(F, DENSE_EIG_CUTOFF): the polaron (G = 16, F = 70) and the
    two-particle nelson model (G = 144, F = 3) take LOBPCG with it; both
    energies equal the solve of the same H_eps without a preconditioner."""
    spec = request.getfixturevalue(case)
    basis = build_fock_basis(spec.n_modes, n_max)
    ran = _spy_paths(monkeypatch)
    energy, vec = ground_state_eps(spec, basis, 0.5)
    assert ran == ["k0_eigh", solver]
    monkeypatch.undo()
    h = assemble_h_eps(spec, basis, 0.5)
    expected, _ = ground_energy_eps(h)
    assert energy == pytest.approx(expected, abs=1e-10)
    # the vector is in the occupation basis of the real mode frame
    h = _frame_h_eps(spec, basis, 0.5)
    assert np.linalg.norm(h @ vec - energy * vec) <= 1e-9
