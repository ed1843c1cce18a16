"""Ground-state search for the coupled energy and the reduced functional.

The coupled problem is minimized by alternating two exact partial steps:
an eigensolve in psi at fixed field, and the closed-form (or linear-solve)
field update at fixed psi.  Each step is an exact partial minimization, so
the energy trace is non-increasing by construction.  The reduced functional
is minimized independently by preconditioned descent on the unit sphere,
and the two routes are compared by the equivalence check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .model import (ModelSpec, grid_inner, grid_norm, is_trapping, mode_norm,
                    per_model)
from .pekar import eta_pekar, pekar_energy
from .qc_energy import (ELResiduals, FieldAmplitudes, ParticleOperator,
                        WaveFunction, assemble_hz, assemble_k0,
                        complex_normal, eta_to_z, field_eta,
                        random_wavefunction, _el_residuals)

DENSE_EIG_CUTOFF = 200
LOBPCG_MAXITER = 400
LOBPCG_REFRESH_EVERY = 50  # _lobpcg's period of recomputing A x from x
EIG_RESIDUAL_TOL = 1e-9
RESIDUAL_NORM_SCALE = 1e5  # ||H|| above which the residual bound grows
TOL_ENERGY = 1e-10  # alternating_minimize's energy decrement tolerance
TOL_RESIDUAL = 1e-7  # and its stationarity residual tolerance
PEKAR_TOL_GRAD = 1e-8  # projected-gradient norm that ends pekar_minimize
PRECONDITIONER_MARGIN = 1.0  # sigma sits this far below K_0's spectrum


# ---------------------------------------------------------------------------
# deterministic ground eigenpair
# ---------------------------------------------------------------------------

def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Make the first significant component real and positive."""
    idx = np.flatnonzero(np.abs(vec) > 1e-8 * np.max(np.abs(vec)))[0]
    phase = vec[idx] / abs(vec[idx])
    return vec / phase


def _gershgorin_interval(mat: sp.csr_matrix) -> tuple[float, float]:
    """Gershgorin bounds (lower, upper) on the spectrum of a Hermitian matrix."""
    diag = mat.diagonal().real
    radius = np.asarray(abs(mat).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min(diag - radius)), float(np.max(diag + radius))


def _shift_below_spectrum(lower: float, upper: float) -> float:
    """The Gershgorin lower bound of the interval (lower, upper), pushed
    strictly below it.

    The push keeps the shifted matrix nonsingular where the bound is attained
    (a diagonal matrix), yet is small against the spectral spread, so the
    lowest eigenvalue stays well separated from the rest after inversion.
    """
    return lower - 1e-6 * max(upper - lower, abs(lower), 1.0)


def _residual_bound(lower: float, upper: float) -> float:
    """EIG_RESIDUAL_TOL * max(1, ||H||_G / RESIDUAL_NORM_SCALE), ||H||_G the
    larger end (in magnitude) of the Gershgorin interval (lower, upper)."""
    norm = max(abs(lower), abs(upper))
    return EIG_RESIDUAL_TOL * max(1.0, norm / RESIDUAL_NORM_SCALE)


def _shift_invert(mat: sp.csr_matrix, sigma: float):
    """Sparse LU factor of mat - sigma I, whose solve applies
    (mat - sigma)^-1; a failed factorization raises SolverError."""
    shifted = (mat - sigma * sp.identity(mat.shape[0], format="csr")).tocsc()
    try:
        return spla.splu(shifted, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolverError(f"shift-invert factorization failed: {exc}") from exc


def _ritz(h: np.ndarray, g: np.ndarray):
    """Coefficients of the lowest Ritz vector of the Hermitian pair (h, g),
    or None when g is not positive definite or an entry is not finite.

    The basis is scaled to unit diagonal of g first, so a short search
    direction does not make the Cholesky factor of g ill conditioned; a
    zero direction makes the scaled pair non-finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = 1.0 / np.sqrt(g.diagonal().real)
        h = h * np.outer(scale, scale)
        g = g * np.outer(scale, scale)
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(g))):
        return None
    try:
        _, vecs = scipy.linalg.eigh(h, g, subset_by_index=[0, 0],
                                    check_finite=False)
    except np.linalg.LinAlgError:
        return None
    return scale * vecs[:, 0]


def _norm(vec: np.ndarray) -> float:
    """2-norm; one BLAS dot, where numpy.linalg.norm splits a complex vector
    into strided real and imaginary parts."""
    return float(np.sqrt(np.vdot(vec, vec).real))


def _axpy(a, x: np.ndarray, y: np.ndarray) -> None:
    """y += a x in place, in one pass and without a temporary."""
    out = scipy.linalg.blas.get_blas_funcs("axpy", (x, y))(x, y, a=a)
    if out is not y:  # BLAS worked on a converted copy of y
        y[...] = out


def _lobpcg(work: sp.csr_matrix, start: np.ndarray, preconditioner,
            tol: float):
    """Lowest pair (value, unit vector) by LOBPCG with block size 1
    (Knyazev 2001) from start, iterated until ||A x - lambda x|| <= tol
    ||x|| or LOBPCG_MAXITER steps.

    Each step applies the preconditioner to the residual, orthogonalizes the
    result w against x and normalizes it, applies A once, and takes the
    lowest Ritz vector of span{x, w, p}, p the previous step's update, from
    the 3 x 3 pair of inner products.  x, A x, p and A p are updated in
    place, and every LOBPCG_REFRESH_EVERY steps A x is recomputed from x:
    the round-off that the updates accumulate in A x would otherwise hold
    the residual above tol on operators with a large norm.  lambda and ||x||
    are recomputed from x and A x at each step: reusing the Ritz value
    would carry the round-off of an ill-conditioned 3 x 3 pair forward and
    stall the residual.  When the Gram matrix of
    {x, w, p} is not positive definite, p is dropped and the step redone on
    span{x, w} (Hetmaniuk and Lehoucq 2006).  A preconditioned residual with
    no component outside span{x}, or a step on span{x, w} that is not finite
    or not definite, is a breakdown and raises SolverError.
    """
    x = start.astype(np.result_type(work.dtype, start.dtype))
    p = ap = None
    for it in range(LOBPCG_MAXITER + 1):
        if it % LOBPCG_REFRESH_EVERY == 0:
            ax = work @ x
        xx = np.vdot(x, x).real
        lam = float(np.vdot(x, ax).real / xx)
        r = np.multiply(x, -lam)
        r += ax
        if _norm(r) <= tol * np.sqrt(xx) or it == LOBPCG_MAXITER:
            break
        w = preconditioner(r)
        along_x = np.vdot(x, w) / xx
        _axpy(-along_x, x, w)
        norm_w = _norm(w)
        if not norm_w > np.finfo(float).eps * abs(along_x) * np.sqrt(xx):
            raise SolverError("LOBPCG broke down: the preconditioned "
                              "residual lies in span{x}")
        w /= norm_w
        aw = work @ w
        xw, xaw, waw = np.vdot(x, w), np.vdot(x, aw), np.vdot(w, aw).real
        c = None
        if p is not None:
            xp, wp, pp = np.vdot(x, p), np.vdot(w, p), np.vdot(p, p).real
            xap, wap, pap = np.vdot(x, ap), np.vdot(w, ap), np.vdot(p, ap).real
            c = _ritz(np.array([[lam * xx, xaw, xap],
                                [np.conj(xaw), waw, wap],
                                [np.conj(xap), np.conj(wap), pap]]),
                      np.array([[xx, xw, xp],
                                [np.conj(xw), 1.0, wp],
                                [np.conj(xp), np.conj(wp), pp]]))
        if c is None:  # the first step, or p dropped
            p = ap = None
            c = _ritz(np.array([[lam * xx, xaw], [np.conj(xaw), waw]]),
                      np.array([[xx, xw], [np.conj(xw), 1.0]]))
            if c is None:
                raise SolverError("LOBPCG broke down: the Rayleigh-Ritz "
                                  "step on span{x, w} is not definite")
        # p <- c_w w + c_p p, then x <- c_x x + p; the same for A x and A p
        if p is None:
            p, ap = w, aw
            p *= c[1]
            ap *= c[1]
        else:
            p *= c[2]
            _axpy(c[1], w, p)
            ap *= c[2]
            _axpy(c[1], aw, ap)
        x *= c[0]
        x += p
        ax *= c[0]
        ax += ap
    return lam, x / np.sqrt(xx)


def lowest_eigenpair(matrix: sp.spmatrix, preconditioner=None,
                     start: np.ndarray | None = None):
    """Smallest eigenvalue and phase-fixed unit eigenvector of a sparse
    Hermitian matrix; the one ground solver behind ground_eigenpair and
    fock.ground_energy_eps.

    Real arithmetic when the matrix is real: a float64 matrix is used as
    is, a complex one whose stored entries are all real is replaced by its
    real part.  Dense eigh of the
    lowest pair up to DENSE_EIG_CUTOFF.  Above it, the in-house LOBPCG with
    block size 1 (_lobpcg) from start, by default the normalized all-ones
    vector, so the result is deterministic.  A complex start on a real H
    is rotated by the phase of its largest entry and its real part kept,
    so every iterate is real too.  The preconditioner is a callable that
    applies a positive definite approximation of (H - sigma)^-1, sigma
    below the spectrum, to an (n,) vector and returns a new array; it is
    applied on the LOBPCG path alone.  Without one the solve builds its
    own: the sparse LU of H - sigma_G, sigma_G just below the Gershgorin
    interval, which costs a factor of the whole operator (small when H is
    banded, large when its band is wide).  The residual
    ||H v - e v|| is checked on the matrix as given, against
    EIG_RESIDUAL_TOL * max(1, ||H||_G / RESIDUAL_NORM_SCALE) with ||H||_G
    the larger end of the Gershgorin interval: round-off in H v grows with
    ||H||.  The interval
    is computed at most once per solve.  LOBPCG stops at half that bound or
    after LOBPCG_MAXITER steps, and emits no warnings; the residual check
    alone decides whether a solve converged.  Solver breakdowns (a failed
    LU, a LOBPCG breakdown) raise SolverError.
    """
    mat = matrix.tocsr()
    n = mat.shape[0]
    work = mat
    if np.iscomplexobj(mat.data) and not np.any(mat.data.imag):
        work = mat.real
    real = not np.iscomplexobj(work.data)
    interval = None  # computed at most once: it copies abs(mat)
    if n <= DENSE_EIG_CUTOFF:
        vals, vecs = scipy.linalg.eigh(work.toarray(), subset_by_index=[0, 0])
        e0, v0 = float(vals[0]), vecs[:, 0]
    else:
        interval = _gershgorin_interval(work)
        if preconditioner is None:
            preconditioner = _shift_invert(
                work, _shift_below_spectrum(*interval)).solve
        x0 = np.ones(n) if start is None else start
        if real and np.iscomplexobj(x0):
            top = x0[np.argmax(np.abs(x0))]
            x0 = (x0 * (abs(top) / top)).real
        x0 = x0 / np.linalg.norm(x0)
        e0, v0 = _lobpcg(work, x0, preconditioner,
                         0.5 * _residual_bound(*interval))
    residual = float(np.linalg.norm(mat @ v0 - e0 * v0))
    # the scaled bound is never below EIG_RESIDUAL_TOL: computed only above it
    if residual > EIG_RESIDUAL_TOL and residual > _residual_bound(
            *(interval or _gershgorin_interval(mat))):
        raise SolverError("ground eigenpair residual too large", residual)
    return e0, _fix_phase(v0)


def ground_eigenpair(op: ParticleOperator, preconditioner=None,
                     start: np.ndarray | None = None):
    """Smallest eigenvalue and normalized eigenvector of a Hermitian operator.

    The constant offset is not added to the returned eigenvalue.  The solve
    is lowest_eigenpair's, with its preconditioner and start; deterministic
    on every path.  Called with op alone, LOBPCG factors op's own matrix;
    the solves of a model's H_z go through _particle_ground, which passes
    the model's one K_0 factor.
    """
    e0, v0 = lowest_eigenpair(op.matrix, preconditioner, start)
    return e0, WaveFunction.normalized(v0, op.grid)


@per_model
def _k0_eigh(spec: ModelSpec):
    """Dense eigh of the real K_0 (LAPACK's divide-and-conquer driver, about
    twice as fast as the default on a full decomposition), built once per
    model (model.per_model).  Both arrays are read-only."""
    eig = scipy.linalg.eigh(assemble_k0(spec).matrix.real.toarray(),
                            driver="evd")
    for arr in eig:
        arr.flags.writeable = False
    return eig


@per_model
def _k0_ground(spec: ModelSpec):
    """K_0's ground pair (lambda_0, psi_0), built once per model
    (model.per_model); psi_0's values are read-only.

    Up to DENSE_EIG_CUTOFF grid points it is column 0 of _k0_eigh, phase
    fixed and normalized on the grid, so a small model's K_0 is decomposed
    once and never factored; above it, a bare ground_eigenpair of K_0.
    """
    if spec.grid.total_points <= DENSE_EIG_CUTOFF:
        vals, vecs = _k0_eigh(spec)
        lam0, psi0 = float(vals[0]), WaveFunction.normalized(
            _fix_phase(vecs[:, 0]), spec.grid)
    else:
        lam0, psi0 = ground_eigenpair(assemble_k0(spec))
    psi0.values.flags.writeable = False
    return lam0, psi0


@per_model
def _k0_factor(spec: ModelSpec):
    """Sparse LU of the real K_0 - sigma, sigma = lambda_0 -
    PRECONDITIONER_MARGIN, built once per model (model.per_model); only its
    solve is called, which leaves it unchanged.  A failed factorization
    raises SolverError and keeps nothing."""
    sigma = _k0_ground(spec)[0] - PRECONDITIONER_MARGIN
    return _shift_invert(assemble_k0(spec).matrix.real, sigma)


def k0_preconditioner(spec: ModelSpec, shifts: np.ndarray | None = None):
    """(K_0 (x) 1 + 1 (x) diag(shifts) - sigma)^-1, sigma = lambda_0(K_0) -
    PRECONDITIONER_MARGIN, applied to a grid-major (G, m) block given in
    any shape with G m entries; without shifts, (K_0 - sigma)^-1 on each
    column.  ground_state_eps passes dGamma's diagonal (>= 0, so every
    divisor is at least the margin); the particle solves and
    pekar_minimize pass none.

    When G <= max(len(shifts), DENSE_EIG_CUTOFF) it is exact in K_0's
    memoised eigenbasis U (_k0_eigh): U^T x, a multiply by the precomputed
    1 / (lambda_g + shift_f - sigma), and U times the result.  With G <= F
    the eigh (G^3 flops) costs at most one application (2 G^2 F).
    Otherwise it is the model's memoised LU of the real K_0 - sigma
    (_k0_factor, SolverError if that fails) on each column, and the shifts
    are dropped.  K_0 is real, so either is applied to a complex block
    viewed as real (re, im) column pairs, in real arithmetic.
    """
    g = spec.grid.total_points
    if g > max(0 if shifts is None else len(shifts), DENSE_EIG_CUTOFF):
        solve = _k0_factor(spec).solve
    else:
        vals, vecs = _k0_eigh(spec)
        denom = vals - (vals[0] - PRECONDITIONER_MARGIN)
        if shifts is not None:
            denom = denom[:, None] + shifts  # (G, F)
        recip = 1.0 / denom.reshape(g, -1, 1)
        # recip twice along the last axis: multiplies a trailing pair (such
        # as a complex entry's (re, im)) without a slow broadcast
        recip_pair = np.repeat(recip, 2, axis=2)

        def solve(block):
            y = (vecs.T @ block).reshape(g, recip.shape[1], -1)
            y *= recip_pair if y.shape[2] == 2 else recip
            return vecs @ y.reshape(g, -1)

    def apply(x):
        block = np.ascontiguousarray(x).reshape(g, -1)
        pairs = np.iscomplexobj(block)
        if pairs:
            block = block.view(np.float64)
        y = solve(block)
        if pairs:
            y = np.ascontiguousarray(y).view(np.complex128)
        return y.reshape(x.shape)

    return apply


def _particle_ground(spec: ModelSpec, op: ParticleOperator,
                     start: WaveFunction | None = None):
    """ground_eigenpair of an operator on spec's grid (H_z or K_0).

    Above DENSE_EIG_CUTOFF it is LOBPCG preconditioned by
    k0_preconditioner(spec), the model's one K_0 factor, from start, by
    default K_0's ground state psi_0.  (K_0 - sigma)^-1 takes the
    Laplacian's 1/h^2 spread out of the residual, so the step count does
    not grow as the grid is refined, and a warm start near the ground
    state needs few.
    """
    if op.dim <= DENSE_EIG_CUTOFF:
        return ground_eigenpair(op)
    start = _k0_ground(spec)[1] if start is None else start
    return ground_eigenpair(op, k0_preconditioner(spec), start.values)


def field_ground(spec: ModelSpec, z: FieldAmplitudes):
    """Ground pair of H_z without its constant offset: _particle_ground's
    solve from K_0's ground state.  At the zero field it is K_0's memoised
    ground pair (_k0_ground) itself, as H_0 = K_0, so a small model's K_0
    is decomposed once, not solved again."""
    if not np.any(z.values):
        return _k0_ground(spec)
    return _particle_ground(spec, assemble_hz(spec, z))


def best_particle_energy(spec: ModelSpec, z: FieldAmplitudes) -> float:
    """Lowest coupled energy at a fixed field: min over psi of <psi|H_z|psi>,
    by _particle_ground from K_0's ground state."""
    op = assemble_hz(spec, z)
    e0, _ = _particle_ground(spec, op)
    return e0 + op.constant_offset


# ---------------------------------------------------------------------------
# alternating minimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MinimizeResult:
    psi_star: WaveFunction
    z_star: FieldAmplitudes
    eta_star: FieldAmplitudes
    energy: float
    iterations: int
    energy_trace: np.ndarray
    iteration_rows: tuple[tuple[int, float, float, float], ...]
    el_residuals: ELResiduals
    converged: bool


def random_field_start(spec: ModelSpec, rng: np.random.Generator) -> FieldAmplitudes:
    """Gaussian field draw scaled to the coupling strength."""
    sup = float(np.sqrt(spec.form_factor.weighted_sup(
        spec.modes.weights / spec.dispersion.values)))
    scale = sup if sup > 0 else 1.0
    return field_eta(scale * complex_normal(rng, spec.n_modes))


def alternating_minimize(spec: ModelSpec,
                         init_eta: FieldAmplitudes | None = None,
                         max_iter: int = 200,
                         seed: int | None = None) -> MinimizeResult:
    """Alternate exact psi- and field-steps until stationary.

    Convergence requires both the energy decrement below TOL_ENERGY and the
    stationarity residuals at most TOL_RESIDUAL; the energy stalls before the
    residuals do in flat valleys, so both are checked.  The start is the field
    init_eta, else eta_pekar of a random psi drawn from seed, else zero; a
    given psi's start is init_eta=eta_pekar(spec, psi).  Each psi-step is
    _particle_ground's solve from the previous step's psi, the first from
    K_0's ground state: above DENSE_EIG_CUTOFF every step applies the
    model's one memoised K_0 factor and factors nothing.  From the default
    zero field the first psi-step is field_ground's: K_0's memoised ground
    pair, with no solve.
    """
    spec.dispersion.require_gap("alternating minimization")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if init_eta is not None:
        init_eta.require_gauge("eta")
        eta = init_eta
    elif seed is not None:
        eta = eta_pekar(spec, random_wavefunction(
            spec.grid, np.random.default_rng(seed)))
    else:
        eta = field_eta(np.zeros(spec.n_modes))

    trace: list[float] = []
    rows: list[tuple[int, float, float, float]] = []
    energy = np.inf
    converged = False
    z = eta_to_z(eta, spec.dispersion)
    op = assemble_hz(spec, z)  # H_z at the current field, built once per field
    psi = None  # the first psi-step starts from K_0's ground state
    for it in range(1, max_iter + 1):
        if psi is None and init_eta is None and seed is None:
            e0, psi = field_ground(spec, z)  # H_0 = K_0: no solve
        else:
            e0, psi = _particle_ground(spec, op, psi)
        e_psi_step = e0 + op.constant_offset
        trace.append(e_psi_step)

        eta = eta_pekar(spec, psi)
        z = eta_to_z(eta, spec.dispersion)
        op = assemble_hz(spec, z)
        e_eta_step, res = _el_residuals(spec, op, psi, z)
        trace.append(e_eta_step)
        rows.append((it, e_eta_step, res.psi_residual, res.field_residual))
        reference = energy if np.isfinite(energy) else e_psi_step
        decrement = reference - e_eta_step
        energy = e_eta_step
        if decrement < TOL_ENERGY and res.psi_residual <= TOL_RESIDUAL \
                and res.field_residual <= TOL_RESIDUAL:
            converged = True
            break

    return MinimizeResult(psi_star=psi, z_star=z, eta_star=eta,
                          energy=energy, iterations=it,
                          energy_trace=np.asarray(trace),
                          iteration_rows=tuple(rows),
                          el_residuals=res, converged=converged)


# ---------------------------------------------------------------------------
# multi-start
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MultiStartResult:
    best: MinimizeResult
    results: tuple[MinimizeResult, ...]
    min_energy: float
    max_energy: float
    max_pair_distance: float


def minimizer_distance(a: MinimizeResult, b: MinimizeResult,
                       spec: ModelSpec) -> float:
    """Distance between minimizers modulo a global phase on psi."""
    overlap = abs(grid_inner(spec.grid, a.psi_star.values, b.psi_star.values))
    d_psi = float(np.sqrt(max(0.0, 2.0 - 2.0 * overlap)))
    d_z = mode_norm(spec.modes, a.z_star.values - b.z_star.values)
    return d_psi + d_z


def multi_start(spec: ModelSpec, n_starts: int, seed: int = 0,
                **kwargs) -> MultiStartResult:
    """Deterministic multi-start sweep; start 0 is the zero-field start,
    the rest draw random (psi, eta) pairs from the seeded generator and
    start from eta.

    Starts run sequentially in index order, so the merged report does not
    depend on scheduling.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    results = []
    for s in range(n_starts):
        if s == 0:
            results.append(alternating_minimize(spec, **kwargs))
        else:
            random_wavefunction(spec.grid, rng)  # the pair's psi, unused
            eta0 = random_field_start(spec, rng)
            results.append(alternating_minimize(spec, init_eta=eta0,
                                                **kwargs))
    converged = [r for r in results if r.converged] or results
    best = min(converged, key=lambda r: r.energy)
    energies = [r.energy for r in converged]
    max_dist = 0.0
    for i in range(len(converged)):
        for j in range(i + 1, len(converged)):
            max_dist = max(max_dist,
                           minimizer_distance(converged[i], converged[j], spec))
    return MultiStartResult(best=best, results=tuple(results),
                            min_energy=float(min(energies)),
                            max_energy=float(max(energies)),
                            max_pair_distance=max_dist)


# ---------------------------------------------------------------------------
# direct minimization of the reduced functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PekarMinimizeResult:
    psi_star: WaveFunction
    energy: float
    iterations: int
    grad_norm: float
    energy_trace: np.ndarray
    converged: bool


def pekar_minimize(spec: ModelSpec,
                   max_iter: int = 2000) -> PekarMinimizeResult:
    """Minimize the reduced energy over normalized psi, from K_0's ground
    state until the projected gradient norm is at most PEKAR_TOL_GRAD.

    Preconditioned descent on the unit sphere (Antoine, Levitt, Tang,
    J. Comput. Phys. 343 (2017) 92): with M = (K_0 - sigma)^-1, sigma =
    lambda_0(K_0) - PRECONDITIONER_MARGIN, and g the coupling's gradient,
    the step psi <- normalize(psi - tau d) follows the tangent direction
    d = Mg - (Re<psi|Mg> / Re<psi|M psi>) M psi.  tau is the Barzilai-Borwein
    ratio <s|s> / Re<s|d_new - d> clamped to [1e-6, 1e3], halved while the
    energy rises.  M takes the Laplacian's 1/h^2 spread out of g, so the
    step count does not grow as the grid is refined.  The start psi_0 is
    the model's memoised _k0_ground, and M is k0_preconditioner(spec):
    exact in K_0's memoised eigenbasis up to DENSE_EIG_CUTOFF grid points,
    above it the model's one memoised LU of the real K_0 - sigma, which
    _particle_ground shares.  Once they are built a call runs no
    eigensolve and decomposes nothing.  M (SolverError if its factor
    fails) is built only when the start is not stationary.  Under
    linear coupling the loop solves no field and no eigenproblem.  Under
    minimal coupling the start is always stationary and the call takes no
    step: K_0's real ground state carries no current, so b = 0, the solved
    field vanishes and the gradient is K_0's, parallel to psi_0.
    iterations counts the steps taken.
    """
    grid = spec.grid
    reduced = spec.coupling.reduced
    _, psi = _k0_ground(spec)
    energy, grad = reduced(spec, psi)
    trace = [energy]
    grad_norm = _tangent_norm(grid, psi, grad)
    iterations = 0
    if grad_norm > PEKAR_TOL_GRAD:
        precondition = k0_preconditioner(spec)
        direction = _preconditioned_direction(precondition, psi, grad)
        step = 1.0
        while iterations < max_iter and grad_norm > PEKAR_TOL_GRAD:
            iterations += 1
            for _ in range(31):  # backtrack on uphill moves
                psi_new = WaveFunction.normalized(
                    psi.values - step * direction, grid)
                energy_new, grad_new = reduced(spec, psi_new)
                if energy_new <= energy + 1e-13:
                    break
                step *= 0.5
            direction_new = _preconditioned_direction(precondition, psi_new,
                                                      grad_new)
            s = psi_new.values - psi.values
            sy = grid_inner(grid, s, direction_new - direction).real
            if sy > 0:
                step = min(max(grid_inner(grid, s, s).real / sy, 1e-6), 1e3)
            psi, grad, energy, direction = (psi_new, grad_new, energy_new,
                                            direction_new)
            grad_norm = _tangent_norm(grid, psi, grad)
            trace.append(energy)

    return PekarMinimizeResult(psi_star=psi, energy=energy,
                               iterations=iterations, grad_norm=grad_norm,
                               energy_trace=np.asarray(trace),
                               converged=grad_norm <= PEKAR_TOL_GRAD)


def _tangent_norm(grid, psi: WaveFunction, grad: np.ndarray) -> float:
    """Norm of the gradient projected on the sphere's tangent space at psi."""
    return grid_norm(grid, grad - grid_inner(grid, psi.values, grad).real
                     * psi.values)


def _preconditioned_direction(precondition, psi: WaveFunction,
                              grad: np.ndarray):
    """Mg - (Re<psi|Mg> / Re<psi|M psi>) M psi, with M applied to g and psi
    as one (G, 2) block by k0_preconditioner's precondition."""
    m_grad, m_psi = precondition(np.column_stack([grad, psi.values])).T
    return m_grad - (np.vdot(psi.values, m_grad).real
                     / np.vdot(psi.values, m_psi).real) * m_psi


# ---------------------------------------------------------------------------
# equivalence of the two variational routes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    e_qc: float
    e_pekar: float
    gap: float
    pekar_at_qc_minimizer: float
    qc_at_pekar_minimizer: float
    passes: bool
    qc_result: MinimizeResult
    pekar_result: PekarMinimizeResult
    notes: tuple[str, ...]


def equivalence_check(spec: ModelSpec, tol: float = 1e-6,
                      n_starts: int = 3, seed: int = 17,
                      max_iter: int = 200) -> EquivalenceReport:
    """Verify that the coupled and reduced minimizations reach the same energy.

    Computes the coupled minimum by multi-start alternating minimization and
    the reduced minimum by sphere-projected descent, each capped at
    max_iter iterations (qc_result.converged and pekar_result.converged
    tell whether they converged), then evaluates the coupled minimizer in
    the reduced functional.  qc_at_pekar_minimizer is
    e_pekar itself, the coupled energy at the reduced minimizer and its
    field, kept in the report.
    """
    notes = []
    if not is_trapping(spec):
        notes.append("external potential not declared trapping; Dirichlet "
                     "walls still confine the box")
    ms = multi_start(spec, n_starts=n_starts, seed=seed, max_iter=max_iter)
    qc = ms.best
    pk = pekar_minimize(spec, max_iter=max_iter)
    e_pekar = pekar_energy(spec, pk.psi_star).value
    pekar_at_qc = pekar_energy(spec, qc.psi_star).value
    gap = abs(qc.energy - e_pekar)
    passes = gap <= tol and abs(pekar_at_qc - e_pekar) <= tol
    return EquivalenceReport(e_qc=qc.energy, e_pekar=e_pekar, gap=gap,
                             pekar_at_qc_minimizer=pekar_at_qc,
                             qc_at_pekar_minimizer=e_pekar,
                             passes=passes, qc_result=qc, pekar_result=pk,
                             notes=tuple(notes))
