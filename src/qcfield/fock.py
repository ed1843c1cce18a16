"""Truncated Fock space and the scaled quantization of each model.

The field is quantized with scaled ladder operators obeying
[a_eps, a_eps^dag] = eps; concretely a_eps = sqrt(eps) a on a standard
bosonic basis with a total-excitation cutoff n_max.  Smearing against a mode
function u pairs with the quadrature weights,

    a_eps(u) = sum_j sqrt(w_j) conj(u_j) a_eps_j,

so commutators reproduce the weighted mode inner product.  As eps shrinks,
the ground energy of the quantized Hamiltonian approaches the coupled
classical-field minimum, which is what the sweep measures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations
from math import comb, ceil

import numpy as np
import scipy.sparse as sp
from scipy.special import gammainc, gammaln

from .errors import CapacityError, TruncationError
from .minimize import field_ground, k0_preconditioner, lowest_eigenpair
from .model import ModelSpec, mode_norm, per_model
from .qc_energy import (FieldAmplitudes, WaveFunction, assemble_k0,
                        momentum_matrix, qc_energy)

DEFAULT_DIMENSION_CAP = 3_000_000
COHERENT_TAIL_TOL = 1e-8  # trial-state tail; sweep budget at eps_0
SWEEP_MIN_SHELLS = 4  # sweep cutoff margin above the coherent occupation
UNRELIABLE_TAIL = 1e-3
MONOTONE_SLACK = 1e-8


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation vectors (n_1 .. n_K) with sum n_j <= n_max in graded
    lexicographic order: by total excitation number first, then
    lexicographically within each shell; rank() computes this order."""

    n_modes: int
    n_max: int
    states: np.ndarray  # (dim, K) int, row i has rank i

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @cached_property
    def totals(self) -> np.ndarray:
        return self.states.sum(axis=1)

    def top_shell(self) -> np.ndarray:
        return np.flatnonzero(self.totals == self.n_max)

    @cached_property
    def _binom(self) -> np.ndarray:  # C(x + m, m) at [x, m], each <= dim
        return np.array([[comb(x + m, m) for m in range(self.n_modes + 1)]
                         for x in range(self.n_max + 1)], dtype=np.int64)

    def rank(self, states: np.ndarray) -> np.ndarray:
        """Position of each row of states in the graded-lexicographic order.

        A state of total T follows the C(T-1+K, K) states of lower shells.
        Inside its shell, with suffix sums s_i = n_i + .. + n_K, the states
        that agree with it before mode i and have n'_i < n_i number
        C(s_i + K-i, K-i) - C(s_(i+1) + K-i, K-i) (hockey-stick sums).
        """
        c, k = self._binom, self.n_modes
        s = np.cumsum(states[:, ::-1], axis=1)[:, ::-1]
        m = np.arange(k - 1, 0, -1)  # K - i for modes i = 1 .. K-1
        return (c[s[:, 0], k] - c[s[:, 0], k - 1]
                + (c[s[:, :-1], m] - c[s[:, 1:], m]).sum(axis=1))

    @cached_property
    def _lowering(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray],
                                 ...]:
        """Per mode j, (cols, targets, n) as int32: the ranks of the states
        with n_j > 0 in ascending order, the ranks of those states with
        n_j lowered by one, and their n_j."""
        index = []
        for j in range(self.n_modes):
            cols = np.flatnonzero(self.states[:, j])
            target = self.states[cols]
            target[:, j] -= 1
            index.append((cols.astype(np.int32),
                          self.rank(target).astype(np.int32),
                          self.states[cols, j].astype(np.int32)))
        return tuple(index)

    def leading_block(self, n_max: int) -> "FockBasis":
        """The basis with cutoff n_max <= self.n_max: this basis's first
        C(K + n_max, K) states, with its lowering index cut to them (a
        lowered state precedes its source, so the cut is a prefix)."""
        if not 0 <= n_max <= self.n_max:
            raise ValueError(f"n_max must lie in [0, {self.n_max}]")
        if n_max == self.n_max:
            return self
        dim = comb(self.n_modes + n_max, n_max)
        block = FockBasis(n_modes=self.n_modes, n_max=n_max,
                          states=self.states[:dim])
        block.__dict__["_lowering"] = tuple(
            tuple(a[:np.searchsorted(cols, dim)] for a in (cols, t, n))
            for cols, t, n in self._lowering)
        return block


def build_fock_basis(n_modes: int, n_max: int) -> FockBasis:
    if n_modes < 1 or n_max < 0:
        raise ValueError("need n_modes >= 1 and n_max >= 0")
    # stars and bars: K bars among n_max + K slots, n_j = gap before bar j
    dim = comb(n_modes + n_max, n_max)
    bars = np.fromiter(chain.from_iterable(combinations(
        range(n_max + n_modes), n_modes)), dtype=np.int64, count=dim * n_modes)
    states = np.diff(bars.reshape(dim, n_modes), axis=1, prepend=-1) - 1
    basis = FockBasis(n_modes=n_modes, n_max=n_max, states=states)
    ranks = basis.rank(states)
    order = np.argsort(ranks)
    if not np.array_equal(ranks[order], np.arange(dim)):
        raise AssertionError("basis ranks are not a permutation of 0..dim-1")
    return replace(basis, states=states[order])


# ---------------------------------------------------------------------------
# operators on the truncated basis
# ---------------------------------------------------------------------------

def ladder_operators(basis: FockBasis, epsilon: float):
    """Per-mode scaled lowering and raising matrices.

    a_j removes one excitation from mode j with amplitude sqrt(eps n_j); the
    raising matrices are the adjoints.  The scaled commutation relation
    [a_j, a_j^dag] = eps holds exactly below the top shell.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    lowering = [sp.csr_matrix((np.sqrt(epsilon * n), (targets, cols)),
                              shape=(basis.dim, basis.dim), dtype=complex)
                for cols, targets, n in basis._lowering]
    raising = [a.conj().T.tocsr() for a in lowering]
    return lowering, raising


def dgamma(basis: FockBasis, dispersion, epsilon: float) -> sp.csr_matrix:
    """Second-quantized field energy: the real diagonal eps * sum_j
    omega_j n_j."""
    diag = epsilon * (basis.states @ np.asarray(dispersion.values))
    return sp.diags(diag, format="csr")


def _check_capacity(dim: int) -> None:
    if dim > DEFAULT_DIMENSION_CAP:
        raise CapacityError(f"tensor dimension {dim} exceeds the cap "
                            f"{DEFAULT_DIMENSION_CAP}")


def _hopping(basis: FockBasis):
    """The pattern of sum_j (a_j + a_j^dag) on basis as canonical CSR
    arrays (indptr, indices), with per entry its mode j, whether it is
    a_j's (rather than a_j^dag's), and the occupation n of its amplitude
    sqrt(eps n).

    Row r holds a_j^dag's entries at rank(r - e_j) for ascending j, then
    a_j's at rank(r + e_j) for descending j.  In graded lexicographic
    order r - e_j precedes r - e_k and r + e_j follows r + e_k when
    j < k, and shell T - 1 precedes shell T + 1, so each row's columns
    ascend without a sort.
    """
    k = basis.n_modes
    cols = np.zeros((basis.dim, 2 * k), dtype=np.int32)
    occ = np.zeros((basis.dim, 2 * k), dtype=np.int32)
    for j, (c, t, n) in enumerate(basis._lowering):
        cols[c, j], occ[c, j] = t, n  # a_j^dag: row c = t + e_j
        cols[t, 2 * k - 1 - j], occ[t, 2 * k - 1 - j] = c, n  # a_j: row t
    stored = occ.ravel() > 0
    indptr = np.zeros(basis.dim + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(occ, axis=1), out=indptr[1:])
    slot = np.tile(np.arange(2 * k, dtype=np.int16), basis.dim)[stored]
    lowers = slot >= k
    mode = np.where(lowers, 2 * k - 1 - slot, slot)
    return indptr, cols.ravel()[stored], mode, lowers, occ.ravel()[stored]


def _field_operator(hopping, lifted: np.ndarray, sqw: np.ndarray,
                    epsilon: float) -> sp.csr_matrix:
    """sum_j sqrt(w_j) (diag lambda_j (x) a_j^dag + diag conj(lambda_j)
    (x) a_j) for a lifted (G, K) table, as one block-diagonal CSR matrix:
    block x is the _hopping pattern with entry values sqrt(w_j)
    (lambda_j(x) sqrt(eps n)), lambda_j conjugated for a_j.  Zero entries
    are dropped, so the arrays equal those of the sum of the 2K Kronecker
    products."""
    indptr, indices, mode, lowers, n = hopping
    g, f, nnz = lifted.shape[0], len(indptr) - 1, len(indices)
    data = lifted[:, mode]
    np.conjugate(data, out=data, where=lowers)
    data *= np.sqrt(epsilon * n)
    data *= sqw[mode]
    blocks = np.arange(g, dtype=np.int32)[:, None]
    op = sp.csr_matrix(
        (data.ravel(), (blocks * f + indices).ravel(),
         np.append((blocks * nnz + indptr[:-1]).ravel(), g * nnz)),
        shape=(g * f, g * f))
    op.eliminate_zeros()
    return op


def assemble_h_eps(spec: ModelSpec, basis: FockBasis,
                   epsilon: float) -> sp.csr_matrix:
    """Quantized Hamiltonian on the (particle grid) x (Fock basis) space:
    H_z's coupling interaction with the field quantized, A_p (x) a_j^dag,
    each particle's field built in one pass by _field_operator, in the
    model's own modes.  Real (float64) when K_0 and every coupling table
    are real, as under linear coupling on real tables."""
    _check_capacity(spec.grid.total_points * basis.dim)
    return _assemble_h_eps(spec, basis, epsilon, spec.form_factor.tables,
                           np.sqrt(spec.modes.weights))


def _assemble_h_eps(spec: ModelSpec, basis: FockBasis, epsilon: float,
                    tables, sqw: np.ndarray) -> sp.csr_matrix:
    """assemble_h_eps with mode j's field sqw_j (tables[p][:, j] a_j^dag +
    h.c.) for particle p: the model's tables and sqrt(w), or the real mode
    frame's (_frame_tables).  Built in float64 when K_0 and every table
    are real, else in complex128; K_0's stored zeros are dropped before
    its Kronecker product, which would repeat each F times."""
    grid = spec.grid
    k0 = assemble_k0(spec).matrix
    real = not (np.any(k0.data.imag) or any(np.any(t.imag) for t in tables))
    dtype = float if real else complex
    if real:
        k0, tables = k0.real, [t.real for t in tables]
    k0 = sp.csr_matrix(k0, copy=True)  # the memoised K_0 is read-only
    k0.eliminate_zeros()
    eye_f = sp.identity(basis.dim, format="csr", dtype=dtype)
    eye_g = sp.identity(grid.total_points, format="csr", dtype=dtype)
    h = sp.kron(k0, eye_f, format="csr") \
        + sp.kron(eye_g, dgamma(basis, spec.dispersion, epsilon), format="csr")
    hopping = _hopping(basis)

    def field(p):
        lifted = grid.lift_single(tables[p], p)
        return _field_operator(hopping, lifted.astype(dtype), sqw, epsilon)

    def momentum(p):
        return sp.kron(momentum_matrix(grid, p), eye_f, format="csr")

    return (h + spec.coupling.interaction(spec, field, momentum)).tocsr()


@per_model
def _real_mode_frame(spec: ModelSpec) -> np.ndarray | None:
    """A K x K unitary V such that the rotated modes b = V^T a couple
    through real tables, or None when no mode group needs and admits one;
    built once per model (model.per_model).

    V mixes only modes of equal omega_j, so it keeps dGamma and the total
    occupation of every basis state: the truncated H_eps, its spectrum,
    every cutoff and every shell's mass are the same in both frames.
    Per group g of equal omega, Lambda_g stacks every particle's table
    scaled by sqrt(w_j), and S solves Lambda_g S = conj(Lambda_g) (least
    squares); it exists when the table is closed under conjugation, as
    the plane waves of a +-k lattice are.  A symmetric unitary S has
    commuting real and imaginary parts, so one real orthogonal Q
    diagonalises both, S = Q diag(e^(i theta)) Q^T, and V_g = Q diag(e^(i
    theta / 2)) has V_g V_g^T = S: Lambda_g V_g is real.  Q is the
    eigenbasis of Re S + Im S / pi, whose eigenvalues cos theta + sin
    theta / pi keep S's apart unless two angles sum to 2 atan(1 / pi).
    A group is rotated only when S is symmetric and unitary to 64 eps_mach
    per mode and max |Im(Lambda_g V_g)| <= 64 eps_mach max |Lambda_g|;
    a real group, or one that fails, stays unrotated.
    """
    lam = np.vstack(spec.form_factor.tables) * np.sqrt(spec.modes.weights)
    omega = spec.dispersion.values
    tiny = 64 * np.finfo(float).eps
    v = np.eye(spec.n_modes, dtype=complex)
    rotated = False
    for value in np.unique(omega):
        g = np.flatnonzero(omega == value)
        lam_g = lam[:, g]
        if not np.any(lam_g.imag):
            continue
        s = np.linalg.lstsq(lam_g, lam_g.conj(), rcond=None)[0]
        if (np.max(np.abs(s - s.T)) > tiny * g.size or np.max(np.abs(
                s @ s.conj().T - np.eye(g.size))) > tiny * g.size):
            continue
        q = np.linalg.eigh(s.real + s.imag / np.pi)[1]
        v_g = q * np.exp(0.5j * np.angle(np.einsum("ji,jk,ki->i", q, s, q)))
        if np.max(np.abs((lam_g @ v_g).imag)) <= tiny * np.max(np.abs(lam_g)):
            v[np.ix_(g, g)] = v_g
            rotated = True
    return v if rotated else None


def _frame_tables(spec: ModelSpec):
    """Each particle's table and the weight roots that scale it, in the
    real mode frame: (sqrt(w_j) lambda_p) V with unit weights, its rotated
    columns made exactly real; the model's tables and sqrt(w) when it has
    no frame."""
    sqw = np.sqrt(spec.modes.weights)
    v = _real_mode_frame(spec)
    if v is None:
        return spec.form_factor.tables, sqw
    rotated = np.any(v != np.eye(spec.n_modes), axis=0)
    tables = []
    for table in spec.form_factor.tables:
        mu = (table * sqw) @ v
        mu.imag[:, rotated] = 0.0
        tables.append(mu)
    return tables, np.ones_like(sqw)


def ground_energy_eps(h: sp.spmatrix, preconditioner=None,
                      start: np.ndarray | None = None):
    """Lowest eigenvalue of the quantized Hamiltonian, with its eigenvector
    (minimize.lowest_eigenpair's solve, deterministic on every path).

    Above the dense cutoff the solve is the in-house LOBPCG with block size
    1, preconditioned by preconditioner, from start when given, else from
    the all-ones vector.  Called with h alone, LOBPCG is preconditioned by
    a sparse LU of the whole of h - sigma: h carries no model or basis to
    build a cheaper preconditioner from, so a caller that has them solves
    through ground_state_eps instead.  Every path ends in the same residual
    check, which alone decides convergence.
    """
    return lowest_eigenpair(h, preconditioner, start)


def ground_state_eps(spec: ModelSpec, basis: FockBasis, epsilon: float,
                     start: np.ndarray | None = None):
    """Ground (energy, vector) of the quantized model at one eps: assembles
    H_eps on the grid x basis space in the model's real mode frame
    (_real_mode_frame, built after the capacity check) and solves it with
    ground_energy_eps from start (all-ones by default), preconditioned by
    k0_preconditioner(spec, shifts) with shifts dGamma's diagonal: the
    exact inverse of the uncoupled operator K_0 (x) 1 + 1 (x) dGamma -
    sigma when the grid has G <= max(F, DENSE_EIG_CUTOFF) points for F
    basis states, else the model's memoised K_0 factor applied to each of
    the F columns of the grid-major (G, F) vector, which factors nothing
    once the model's particle solves have built it.

    The energy is the same in every frame.  The vector, and start, are in
    the frame's occupation basis of the rotated modes b = V^T a; without
    a frame that is the model's own.  In a real frame with a real K_0,
    H_eps is float64 and so is every LOBPCG vector.
    """
    _check_capacity(spec.grid.total_points * basis.dim)
    h = _assemble_h_eps(spec, basis, epsilon, *_frame_tables(spec))
    precond = k0_preconditioner(
        spec, dgamma(basis, spec.dispersion, epsilon).diagonal())
    return ground_energy_eps(h, preconditioner=precond, start=start)


# ---------------------------------------------------------------------------
# coherent product trial states
# ---------------------------------------------------------------------------

def coherent_tail(nu: float, n_max: int) -> float:
    """Mass of a coherent state beyond the cutoff.

    The total occupation of a multimode coherent state is Poisson with mean
    nu = ||z||^2 / eps, so the discarded mass is P(N > n_max) exactly.
    """
    if nu == 0.0:
        return 0.0
    return float(gammainc(n_max + 1, nu))


def required_n_max(nu: float, tail_tol: float, min_shells: int = 0) -> int:
    n = max(0, ceil(nu)) + min_shells
    while coherent_tail(nu, n) > tail_tol:
        n += 1
    return n


@dataclass(frozen=True, eq=False)
class ProductState:
    """Particle state tensored with a truncated, renormalized coherent state."""

    values: np.ndarray  # (grid_points * fock_dim,), grid-major
    psi: WaveFunction
    fock_coeffs: np.ndarray
    tail_mass: float
    epsilon: float


def coherent_fock_coefficients(spec: ModelSpec, basis: FockBasis,
                               epsilon: float, z: FieldAmplitudes):
    """Truncated expansion of the displaced vacuum with per-mode displacement
    sqrt(w_j) z_j / sqrt(eps); returns (coefficients, discarded tail mass)."""
    z.require_gauge("z")
    return _coherent_coefficients(
        basis, np.sqrt(spec.modes.weights) * z.values / np.sqrt(epsilon))


def _coherent_coefficients(basis: FockBasis, alpha: np.ndarray):
    """Truncated expansion of the coherent state with per-mode amplitude
    alpha, a_j |alpha> = alpha_j |alpha>; returns (coefficients, discarded
    tail mass)."""
    n = basis.states  # (dim, K)
    mag = np.abs(alpha)
    safe_log = np.where(mag > 0, np.log(np.where(mag > 0, mag, 1.0)), 0.0)
    log_abs = n @ safe_log - 0.5 * gammaln(n + 1).sum(axis=1) \
        - 0.5 * np.sum(mag ** 2)
    dead = np.any((n > 0) & (mag[None, :] == 0), axis=1)
    log_abs[dead] = -np.inf
    phase = np.exp(1j * (n @ np.angle(alpha)))
    coeffs = np.exp(log_abs) * phase
    tail = max(0.0, 1.0 - float(np.sum(np.abs(coeffs) ** 2)))
    return coeffs, tail


def coherent_product_state(spec: ModelSpec, basis: FockBasis, epsilon: float,
                           psi: WaveFunction,
                           z: FieldAmplitudes) -> ProductState:
    """psi (x) the coherent state of z, truncated and renormalized; refused
    when the truncation discards more than COHERENT_TAIL_TOL of its mass."""
    psi.require_normalized()
    coeffs, tail = coherent_fock_coefficients(spec, basis, epsilon, z)
    if tail > COHERENT_TAIL_TOL:
        need = required_n_max(mode_norm(spec.modes, z.values) ** 2 / epsilon,
                              COHERENT_TAIL_TOL)
        raise TruncationError(
            f"coherent tail mass {tail:.3e} above {COHERENT_TAIL_TOL:g}; "
            f"need n_max >= {need}", required_n_max=need)
    coeffs = coeffs / np.linalg.norm(coeffs)
    values = np.kron(psi.values, coeffs)
    return ProductState(values=values, psi=psi, fock_coeffs=coeffs,
                        tail_mass=tail, epsilon=epsilon)


@dataclass(frozen=True)
class TrialEnergy:
    energy: float
    gap: float
    tail_mass: float


def trial_energy(spec: ModelSpec, basis: FockBasis, epsilon: float,
                 psi: WaveFunction, z: FieldAmplitudes) -> TrialEnergy:
    """Expectation of the quantized Hamiltonian in the coherent product state
    and its distance from the classical-field energy at (psi, z)."""
    state = coherent_product_state(spec, basis, epsilon, psi, z)
    h = assemble_h_eps(spec, basis, epsilon)
    vec = state.values
    energy = float((np.vdot(vec, h @ vec) * spec.grid.measure).real)
    gap = abs(energy - qc_energy(spec, psi, z))
    return TrialEnergy(energy=energy, gap=gap, tail_mass=state.tail_mass)


# ---------------------------------------------------------------------------
# epsilon sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    energy: float
    abs_err: float
    n_max: int
    tail_indicator: float
    reliable: bool


@dataclass(frozen=True, eq=False)
class SweepReport:
    rows: tuple[SweepRow, ...]
    e_qc_ref: float
    monotone_ok: bool
    all_reliable: bool


def shell_rule_n_max(spec: ModelSpec, z_ref: FieldAmplitudes, epsilon: float,
                     tail_budget: float) -> int:
    """Cutoff for one sweep point: at least SWEEP_MIN_SHELLS above the
    coherent occupation of the reference field, and deep enough that the
    discarded coherent mass stays under the budget."""
    nu = mode_norm(spec.modes, z_ref.values) ** 2 / epsilon
    return required_n_max(nu, tail_budget, min_shells=SWEEP_MIN_SHELLS)


def check_eps_list(eps_list) -> list[float]:
    """eps_list as floats; ValueError unless it is non-empty and strictly
    decreasing within (0, 1]."""
    eps = [float(e) for e in eps_list]
    if not eps or any(not 0.0 < e <= 1.0 for e in eps) \
            or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps_list must be non-empty and strictly "
                         "decreasing within (0, 1]")
    return eps


def epsilon_sweep(spec: ModelSpec, eps_list, e_qc_ref: float,
                  z_ref: FieldAmplitudes,
                  n_max: int | None = None) -> SweepReport:
    """Ground energies of the quantized model along a decreasing eps list.

    Unless n_max is pinned, each point uses the shell rule with a tail budget
    COHERENT_TAIL_TOL (eps/eps_0)^2: it shrinks quadratically so truncation
    stays subdominant to the linear-in-eps convergence being measured.  Rows
    whose ground vector leaves more than 1e-3 of its mass on the top shell
    are flagged unreliable; across reliable rows (top-shell mass <= 1e-6) the
    error sequence must be non-increasing within a 1e-8 slack.

    Every point's tensor dimension G * C(K + n_max, K) is checked against
    DEFAULT_DIMENSION_CAP before the one basis of the sweep, at its
    largest cutoff, is enumerated; cutoffs never fall along the sweep,
    and each point's basis is a leading block of that one.  Each point is
    solved by ground_state_eps; above the dense cutoff that is LOBPCG
    preconditioned by k0_preconditioner, which reads the model's memoised
    K_0 eigendecomposition or K_0 factor, built at most once per model.
    ground_state_eps solves in the model's real mode frame
    (_real_mode_frame), so every ground vector and start below is in the
    occupation basis of the rotated modes b = V^T a; the frame keeps each
    state's total occupation, so the energies, cutoffs and top-shell
    masses of the report do not depend on it.
    The starts follow the classical limit, psi_ref (x) the coherent state
    of z_ref at eps, psi_ref the ground state of H_(z_ref)
    (minimize.field_ground).  The first point starts from that product,
    with the frame's amplitudes V^T alpha (_coherent_start), truncated to
    its basis, or from the all-ones vector when every
    coherent coefficient underflows.  Each later point starts from the
    previous ground vector padded with zeros and scaled by
    (eps_prev / eps)^(N_f / 2) on each basis state f of total occupation
    N_f, which carries psi (x) |alpha> to psi (x) |alpha sqrt(eps_prev /
    eps)>; the scale is divided by its value on the previous top shell,
    so that it never overflows.  eps_list must pass check_eps_list.
    """
    eps = check_eps_list(eps_list)
    z_ref.require_gauge("z")
    grid_pts = spec.grid.total_points
    cutoffs = [n_max if n_max is not None else shell_rule_n_max(
        spec, z_ref, e, COHERENT_TAIL_TOL * (e / eps[0]) ** 2) for e in eps]
    for cutoff in cutoffs:
        _check_capacity(grid_pts * comb(spec.n_modes + cutoff, cutoff))
    full = build_fock_basis(spec.n_modes, max(cutoffs))
    rows = []
    for e, cutoff in zip(eps, cutoffs):
        basis = full.leading_block(cutoff)
        if not rows:
            start = _coherent_start(spec, basis, e, z_ref)
        else:
            # psi (x) |alpha> -> psi (x) |alpha sqrt(eps_last / eps)>,
            # scaled to 1 on the last point's top shell
            last = rows[-1]
            lead = vec * (last.epsilon / e) ** (
                0.5 * (basis.totals[:vec.shape[1]] - last.n_max))
            start = np.pad(lead, ((0, 0), (0, basis.dim - lead.shape[1])))
            start = start.ravel()
        energy, vec = ground_state_eps(spec, basis, e, start)
        vec = vec.reshape(grid_pts, basis.dim)
        resh = np.abs(vec) ** 2
        tail_ind = float(resh[:, basis.top_shell()].sum() / resh.sum())
        rows.append(SweepRow(epsilon=e, energy=energy,
                             abs_err=abs(energy - e_qc_ref), n_max=cutoff,
                             tail_indicator=tail_ind,
                             reliable=tail_ind <= UNRELIABLE_TAIL))
    checked = [r for r in rows if r.tail_indicator <= 1e-6]
    monotone = all(b.abs_err <= a.abs_err + MONOTONE_SLACK
                   for a, b in zip(checked, checked[1:]))
    return SweepReport(rows=tuple(rows), e_qc_ref=e_qc_ref,
                       monotone_ok=monotone,
                       all_reliable=all(r.reliable for r in rows))


def _coherent_start(spec: ModelSpec, basis: FockBasis, epsilon: float,
                    z: FieldAmplitudes) -> np.ndarray | None:
    """psi_z (x) the truncated coherent coefficients of z at epsilon in the
    model's real mode frame, psi_z the ground state of H_z, scaled by the
    largest coefficient; None (the all-ones start) when every coefficient
    underflows to zero.  The frame's modes b = V^T a carry the amplitudes
    alpha' = V^T alpha, alpha_j = sqrt(w_j) z_j / sqrt(eps)."""
    z.require_gauge("z")
    alpha = np.sqrt(spec.modes.weights) * z.values / np.sqrt(epsilon)
    v = _real_mode_frame(spec)
    coeffs, _ = _coherent_coefficients(
        basis, alpha if v is None else v.T @ alpha)
    top = np.max(np.abs(coeffs))
    if top == 0.0:
        return None
    _, psi = field_ground(spec, z)
    return np.outer(psi.values, coeffs / top).ravel()


def stability_lower_bound(spec: ModelSpec) -> float:
    """A-priori bound E_eps >= -N^2 sup||omega^(-1/2) lambda||^2 - sup||lambda||.

    Both sup-norms are over particles and grid points of the weighted mode
    norm (FormFactor.weighted_sup); valid for the linearly coupled families
    with a nonnegative external potential.
    """
    w = spec.modes.weights
    form = spec.form_factor
    sup_lam = float(np.sqrt(form.weighted_sup(w)))
    sup_weighted = float(np.sqrt(form.weighted_sup(w / spec.dispersion.values)))
    n = spec.grid.n_particles
    return -(n ** 2) * sup_weighted ** 2 - sup_lam
