"""The ground solver on each of its paths, against independent answers.

Small operators take the dense path; every operator above the cutoff takes
the in-house LOBPCG.  A call without a preconditioner builds its own, the
sparse LU of H - sigma with sigma just below the Gershgorin interval, and
no other iterative solver (ARPACK's eigsh) is ever called.  Each path test
calls a public wrapper (ground_eigenpair or ground_energy_eps) on a bare
operator and records which path ran.  The solves of a model
(alternating_minimize, pekar_minimize, the sweep points) are preconditioned
by minimize.k0_preconditioner: exact in K_0's memoised eigenbasis when the
grid has G <= max(F, DENSE_EIG_CUTOFF) points, else the model's one
memoised K_0 factor.  The last tests count K_0's decompositions (one eigh
on a small grid, at most two factors on a large one) and check the
warm-started particle steps against bare solves.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from qcfield import (SolverError, alternating_minimize, assemble_h_eps,
                     assemble_hz, assemble_k0, box_ground_energy,
                     build_dispersion, build_field_modes, build_fock_basis,
                     build_particle_grid, dgamma, epsilon_sweep, field_z,
                     frozen_particle_grid, ground_eigenpair, ground_energy_eps,
                     make_model, multi_start, nelson_form_factor,
                     pekar_minimize)
from qcfield import minimize
from qcfield.minimize import k0_preconditioner
from qcfield.presets import (cosine_coupled_reference, decoupled_reference,
                             small_minimal_coupling, small_polaron,
                             two_particle_nelson)


@pytest.fixture
def paths(monkeypatch):
    """Names of the solver paths run during the test, with their dtypes."""
    ran = []
    spla, linalg = minimize.spla, minimize.scipy.linalg
    eigh, splu = linalg.eigh, spla.splu
    lobpcg = minimize._lobpcg

    def spy_eigh(a, b=None, *args, **kwargs):
        # the dense path solves a standard problem; LOBPCG's Rayleigh-Ritz
        # steps are generalized 3 x 3 problems inside the lobpcg path
        if b is None:
            ran.append(("dense", a.dtype))
        return eigh(a, b, *args, **kwargs)

    def spy_splu(a, *args, **kwargs):
        ran.append(("shift-invert", a.dtype))
        return splu(a, *args, **kwargs)

    def spy_eigsh(*args, **kwargs):
        pytest.fail("spla.eigsh called: LOBPCG is the one iterative path")

    def spy_lobpcg(a, *args, **kwargs):
        ran.append(("lobpcg", a.dtype))
        return lobpcg(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "eigh", spy_eigh)
    monkeypatch.setattr(minimize, "_lobpcg", spy_lobpcg)
    monkeypatch.setattr(spla, "splu", spy_splu)
    monkeypatch.setattr(spla, "eigsh", spy_eigsh)
    return ran


@pytest.fixture(scope="module")
def dense_k0():
    """Harmonic K_0 on 64 points: under the dense cutoff."""
    return assemble_k0(decoupled_reference())


def _box_model():
    """Uncoupled nelson model with zero potential on a 1-d grid of 2048
    points."""
    grid = build_particle_grid(1, 1, 8.0, 2048)
    modes = build_field_modes([[0.0]], weights=[1.0])
    ff = nelson_form_factor(grid, modes, [0.0])
    return make_model("nelson", grid, modes, build_dispersion([1.0]), ff,
                      "zero")


@pytest.fixture(scope="module")
def box_2048():
    """Zero-potential K_0 on a 1-d grid of 2048 points: real, b = 1."""
    return assemble_k0(_box_model())


def _one_mode_nelson(points, dim=1, momentum=(1.0,)):
    """One-mode nelson model in a harmonic trap, G points per axis."""
    grid = build_particle_grid(dim, 1, 8.0, points)
    modes = build_field_modes([list(momentum)], weights=[1.0])
    disp = build_dispersion([1.0])
    return make_model("nelson", grid, modes, disp,
                      nelson_form_factor(grid, modes, [0.5], dispersion=disp),
                      "harmonic")


def _one_mode_nelson_hz(points):
    return assemble_hz(_one_mode_nelson(points), field_z([0.3]))


@pytest.fixture(scope="module")
def nelson_32768():
    """One-mode nelson H_z on a 1-d grid of 32768 points: ||H|| ~ 1.7e7, so
    round-off alone puts the residual above the unscaled 1e-9."""
    return _one_mode_nelson_hz(32768)


@pytest.fixture(scope="module")
def minimal_1200():
    """Minimal-coupling H_z at a complex field: complex Hermitian, b = 1."""
    spec = small_minimal_coupling(points=1200)
    return assemble_hz(spec, field_z([0.3 + 0.1j, -0.2j]))


@pytest.fixture(scope="module")
def polaron_h_eps():
    """Quantized polaron H_eps, n = 1120 with b = 70: complex, wide band."""
    spec = small_polaron()
    return assemble_h_eps(spec, build_fock_basis(spec.n_modes, 4), 0.5)


def _uncoupled_inverse(spec, basis, eps):
    """k0_preconditioner's exact inverse of the uncoupled operator, built
    (K_0's eigendecomposition included) before any path spy sees it."""
    return k0_preconditioner(
        spec, dgamma(basis, spec.dispersion, eps).diagonal().real)


@pytest.fixture(scope="module")
def polaron_h_eps_preconditioned():
    """The same H_eps with the inverse of its uncoupled operator."""
    spec = small_polaron()
    basis = build_fock_basis(spec.n_modes, 4)
    return (assemble_h_eps(spec, basis, 0.5),
            _uncoupled_inverse(spec, basis, 0.5))


@pytest.fixture(scope="module")
def modes_h_eps_preconditioned():
    """Quantized nelson H_eps at a frozen site with six modes (K = 6,
    n_max = 6, n = 924): real, wide band, preconditioned as polaron_h_eps
    is."""
    grid = frozen_particle_grid()
    k = np.linspace(0.0, 1.0, 6)
    modes = build_field_modes([[x] for x in k], weights=[1.0] * 6)
    disp = build_dispersion(list(1.0 + k))
    spec = make_model("nelson", grid, modes, disp,
                      nelson_form_factor(grid, modes, [0.3] * 6,
                                         dispersion=disp), "zero")
    basis = build_fock_basis(spec.n_modes, 6)
    return (assemble_h_eps(spec, basis, 0.5),
            _uncoupled_inverse(spec, basis, 0.5))


def test_shift_invert_real_box_ground(box_2048, paths):
    e0, psi = ground_eigenpair(box_2048)
    assert paths == [("shift-invert", np.float64), ("lobpcg", np.float64)]
    assert e0 == pytest.approx(box_ground_energy(box_2048.grid), abs=1e-9)
    # the lowest discrete box mode is a sampled cosine
    grid = box_2048.grid
    x = grid.axis_coords
    mode = np.cos(np.pi * x / (2.0 * grid.extent + grid.spacing))
    mode /= np.linalg.norm(mode) * np.sqrt(grid.measure)
    overlap = abs(np.vdot(mode, psi.values)) * grid.measure
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_complex_start_on_real_operator(box_2048):
    """A bare solve of a real operator from a complex start: the real
    factor solves the residual's real and imaginary parts."""
    e0, _ = ground_eigenpair(box_2048)
    start = np.ones(box_2048.dim) + 1j * np.linspace(0.0, 1.0, box_2048.dim)
    e1, _ = ground_eigenpair(box_2048, start=start)
    assert e1 == pytest.approx(e0, abs=1e-9)


def test_shift_invert_complex_minimal_coupling(minimal_1200, paths):
    mat = minimal_1200.matrix
    assert np.any(mat.data.imag)
    e0, psi = ground_eigenpair(minimal_1200)
    assert paths == [("shift-invert", np.complex128),
                     ("lobpcg", np.complex128)]
    vals, vecs = np.linalg.eigh(mat.toarray())
    assert e0 == pytest.approx(vals[0], abs=1e-9)
    ref = vecs[:, 0] / (np.linalg.norm(vecs[:, 0])
                        * np.sqrt(minimal_1200.grid.measure))
    overlap = abs(np.vdot(ref, psi.values)) * minimal_1200.grid.measure
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_lanczos_wide_band_h_eps(polaron_h_eps, paths):
    assert np.any(polaron_h_eps.data.imag)
    e0, vec = ground_energy_eps(polaron_h_eps)
    assert paths == [("shift-invert", np.complex128),
                     ("lobpcg", np.complex128)]
    vals = np.linalg.eigvalsh(polaron_h_eps.toarray())
    assert e0 == pytest.approx(vals[0], abs=1e-9)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_lobpcg_preconditioned_h_eps(polaron_h_eps_preconditioned, paths):
    h, precond = polaron_h_eps_preconditioned
    e0, vec = ground_energy_eps(h, preconditioner=precond)
    assert paths == [("lobpcg", np.complex128)]
    vals = np.linalg.eigvalsh(h.toarray())
    assert e0 == pytest.approx(vals[0], abs=1e-9)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_lobpcg_real_arithmetic_h_eps(modes_h_eps_preconditioned, paths):
    h, precond = modes_h_eps_preconditioned
    assert not np.any(h.data.imag)
    e0, vec = ground_energy_eps(h, preconditioner=precond)
    assert paths == [("lobpcg", np.float64)]
    vals = np.linalg.eigvalsh(h.toarray())
    assert e0 == pytest.approx(vals[0], abs=1e-9)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_lobpcg_exact_start_returns_it(polaron_h_eps_preconditioned, paths):
    """A start that is already the ground vector has a residual below the
    tolerance: LOBPCG returns it without a step, so without a breakdown."""
    h, precond = polaron_h_eps_preconditioned
    vals, vecs = np.linalg.eigh(h.toarray())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e0, vec = ground_energy_eps(h, preconditioner=precond,
                                    start=vecs[:, 0])
    assert paths == [("lobpcg", np.complex128)]
    assert np.all(np.isfinite(vec))
    assert e0 == pytest.approx(vals[0], abs=1e-9)
    assert abs(np.vdot(vecs[:, 0], vec)) == pytest.approx(1.0, abs=1e-9)


def test_preconditioner_inverts_uncoupled_operator(polaron_small):
    basis = build_fock_basis(polaron_small.n_modes, 3)
    eps = 0.5
    uncoupled = (sp.kron(assemble_k0(polaron_small).matrix,
                         sp.identity(basis.dim))
                 + sp.kron(sp.identity(polaron_small.grid.total_points),
                           dgamma(basis, polaron_small.dispersion, eps)))
    sigma = (np.linalg.eigvalsh(assemble_k0(polaron_small).matrix.toarray())[0]
             - minimize.PRECONDITIONER_MARGIN)
    block = np.random.default_rng(7).standard_normal((uncoupled.shape[0], 2))
    applied = _uncoupled_inverse(polaron_small, basis, eps)(block)
    back = uncoupled @ applied - sigma * applied
    assert np.allclose(back, block, atol=1e-12)


@pytest.mark.parametrize("poor", ["start", "maxiter", "breakdown"])
def test_unconverged_lobpcg_raises_without_warning(
        polaron_h_eps_preconditioned, monkeypatch, poor):
    h, precond = polaron_h_eps_preconditioned
    match = "LOBPCG broke down" if poor == "breakdown" else "residual"
    if poor == "start":  # a solver that hands back its start unchanged
        def lobpcg(a, x, *args, **kwargs):
            return float(np.vdot(x, a @ x).real), x
        monkeypatch.setattr(minimize, "_lobpcg", lobpcg)
    elif poor == "breakdown":  # no search direction outside span{x}
        def precond(r):
            return np.zeros_like(r)
    else:  # LOBPCG stopped after two iterations
        monkeypatch.setattr(minimize, "LOBPCG_MAXITER", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=match):
            ground_energy_eps(h, preconditioner=precond)


def test_fine_grid_converges_under_scaled_residual(nelson_32768, paths):
    e0, psi = ground_eigenpair(nelson_32768)
    assert paths == [("shift-invert", np.float64), ("lobpcg", np.float64)]
    coarse, _ = ground_eigenpair(_one_mode_nelson_hz(2048))
    assert e0 == pytest.approx(coarse, abs=1e-5)  # O(h^2) apart
    residual = np.linalg.norm(nelson_32768.matrix @ psi.values
                              - e0 * psi.values) * np.sqrt(psi.grid.measure)
    norm = 4.0 / psi.grid.spacing ** 2  # the Laplacian's, ~1.7e7
    assert residual <= 1e-9 * norm / minimize.RESIDUAL_NORM_SCALE


def test_dense_path_real_arithmetic(dense_k0, paths):
    ground_eigenpair(dense_k0)
    assert paths == [("dense", np.float64)]


CASES = ["dense_k0", "box_2048", "minimal_1200", "polaron_h_eps",
         "polaron_h_eps_preconditioned", "modes_h_eps_preconditioned",
         "nelson_32768"]


def _solve(case, request):
    """(energy, vector) from the public wrapper that owns the case."""
    operand = request.getfixturevalue(case)
    if case == "polaron_h_eps":
        return ground_energy_eps(operand)
    if case.endswith("_preconditioned"):
        h, precond = operand
        return ground_energy_eps(h, preconditioner=precond)
    e0, psi = ground_eigenpair(operand)
    return e0, psi.values


@pytest.mark.parametrize("case", CASES)
def test_repeat_calls_bit_identical(case, request):
    e_a, v_a = _solve(case, request)
    e_b, v_b = _solve(case, request)
    assert e_a == e_b
    assert np.array_equal(v_a, v_b)


@pytest.mark.parametrize("case", CASES)
def test_zero_residual_tolerance_raises(case, request, monkeypatch):
    request.getfixturevalue(case)  # built under the shipped tolerance
    monkeypatch.setattr(minimize, "EIG_RESIDUAL_TOL", 0.0)
    with pytest.raises(SolverError, match="residual"):
        _solve(case, request)


def test_failed_factorization_raises_solver_error(box_2048, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(minimize.spla, "splu", singular)
    with pytest.raises(SolverError, match="factorization"):
        ground_eigenpair(box_2048)


def _singular(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def test_one_factor_per_model(monkeypatch):
    """multi_start and pekar_minimize on the 1-d G = 2048 one-mode nelson
    model factor at most twice: the transient shift-invert factor of K_0's
    ground solve and the kept factor of K_0 - sigma.  Once those are built,
    pekar_minimize factors nothing and runs no eigensolve, and a two-point
    epsilon_sweep with G > max(F, DENSE_EIG_CUTOFF) factors nothing and
    builds no K_0 eigendecomposition: its points apply the kept factor."""
    spec = _one_mode_nelson(2048)
    factors, solves = [], []
    splu, lowest = minimize.spla.splu, minimize.lowest_eigenpair

    def spy_splu(a, *args, **kwargs):
        factors.append(a.shape)
        return splu(a, *args, **kwargs)

    def spy_lowest(*args, **kwargs):
        solves.append(args[0].shape)
        return lowest(*args, **kwargs)

    def k0_eigh(spec):
        raise AssertionError("K_0 eigendecomposition on a large grid")

    monkeypatch.setattr(minimize.spla, "splu", spy_splu)
    monkeypatch.setattr(minimize, "lowest_eigenpair", spy_lowest)
    monkeypatch.setattr(minimize, "_k0_eigh", k0_eigh)
    ms = multi_start(spec, n_starts=3)
    assert all(r.converged for r in ms.results)
    assert len(factors) <= 2
    built = (len(factors), len(solves))
    assert pekar_minimize(spec).converged
    assert (len(factors), len(solves)) == built
    rep = epsilon_sweep(spec, [0.5, 0.25], ms.best.energy, ms.best.z_star,
                        n_max=3)
    assert [r.n_max for r in rep.rows] == [3, 3]  # F = 4, G = 2048
    assert len(factors) == built[0]


def test_small_model_decomposes_k0_once(monkeypatch):
    """On a grid with G <= DENSE_EIG_CUTOFF, alternating_minimize,
    pekar_minimize and a two-point epsilon_sweep through LOBPCG decompose
    K_0 once, by the one _k0_eigh build that K_0's ground pair and every
    preconditioner read, and factor nothing."""
    spec = cosine_coupled_reference()  # G = 64, a fresh model
    k0 = assemble_k0(spec).matrix.toarray().real
    decompositions = []
    eigh = minimize.scipy.linalg.eigh

    def spy_eigh(a, b=None, *args, **kwargs):
        if b is None and np.array_equal(a, k0):
            decompositions.append("eigh")
        return eigh(a, b, *args, **kwargs)

    def spy_splu(a, *args, **kwargs):
        raise AssertionError("sparse LU factorized on a small grid")

    monkeypatch.setattr(minimize.scipy.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(minimize.spla, "splu", spy_splu)
    qc = alternating_minimize(spec, seed=3)
    reduced = pekar_minimize(spec)
    assert qc.converged and reduced.converged and reduced.iterations > 0
    rep = epsilon_sweep(spec, [0.5, 0.25], qc.energy, qc.z_star, n_max=3)
    assert spec.grid.total_points * build_fock_basis(1, 3).dim \
        > minimize.DENSE_EIG_CUTOFF  # the sweep points take LOBPCG
    assert len(rep.rows) == 2
    assert decompositions == ["eigh"]


def test_failed_kept_factor_is_not_memoised(monkeypatch):
    """A kept factor that fails raises SolverError on every call that needs
    it, and the model solves once splu works again."""
    spec = _one_mode_nelson(2048)
    minimize._k0_ground(spec)  # K_0's ground pair, before splu fails
    monkeypatch.setattr(minimize.spla, "splu", _singular)
    for solve in (alternating_minimize, alternating_minimize, pekar_minimize):
        with pytest.raises(SolverError, match="factorization"):
            solve(spec)
    monkeypatch.undo()
    assert alternating_minimize(spec).converged
    assert pekar_minimize(spec).converged


WARM_MODELS = {
    "box_2048": _box_model,
    "grid2d_G64": lambda: _one_mode_nelson(64, dim=2, momentum=(1.0, 0.0)),
    "two_particles_G64": lambda: two_particle_nelson(points=64),
    "minimal_1200": lambda: small_minimal_coupling(points=1200),
}


@pytest.mark.parametrize("model", sorted(WARM_MODELS))
def test_warm_started_steps_land_on_ground_state(model, monkeypatch):
    """Every psi-step of alternating_minimize is a preconditioned solve
    from the previous psi; its energy agrees within 1e-10 with a bare
    ground_eigenpair of the same H_z.  Reruns, on the same model and on a
    fresh one, are bit-identical."""
    spec = WARM_MODELS[model]()
    steps = []
    ground = minimize.ground_eigenpair

    def spy(op, preconditioner=None, start=None):
        e0, psi = ground(op, preconditioner, start)
        if preconditioner is not None:
            steps.append((op, e0, ground(op)[0]))
        return e0, psi

    monkeypatch.setattr(minimize, "ground_eigenpair", spy)
    first = alternating_minimize(spec, seed=3)
    monkeypatch.undo()
    assert first.converged
    assert len(steps) == first.iterations
    for _, warm, bare in steps:
        assert abs(warm - bare) <= 1e-10
    if model == "minimal_1200":
        assert any(np.any(op.matrix.data.imag) for op, _, _ in steps)
    for again in (alternating_minimize(spec, seed=3),
                  alternating_minimize(WARM_MODELS[model](), seed=3)):
        assert again.energy == first.energy
        assert np.array_equal(again.energy_trace, first.energy_trace)
        assert np.array_equal(again.psi_star.values, first.psi_star.values)
        assert np.array_equal(again.eta_star.values, first.eta_star.values)
