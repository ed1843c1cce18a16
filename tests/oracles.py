"""Independent oracles: bare-numpy reference computations for expected values.

Everything here rebuilds the discretizations from scratch (no qcfield
imports) so the values can be frozen into tests without circularity.
"""

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize as _nm_minimize

# Frozen oracle outputs (computed by the functions below, double precision).
E0_HARMONIC_64 = 0.9960783092426536     # dense_harmonic_ground(64, 8.0)
E_QC_DECOUPLED = 0.7460783092426536     # E0_HARMONIC_64 - 0.5**2 / 1.0
E_QC_COSINE = 0.841012934811712         # cosine_scan_oracle()[0], refined
Z_COSINE = -0.3971942                   # cosine minimizer, real axis

# Continuum limit of the 1-d polaron's reduced minimum (the preset
# soliton_polaron): the cubic NLS soliton energy -(2 pi alpha)^2 / 12.
SOLITON_ALPHA = 0.3
E_SOLITON = -np.pi ** 2 * SOLITON_ALPHA ** 2 / 3


def axis_points(points: int, extent: float) -> np.ndarray:
    h = 2.0 * extent / points
    return -extent + (np.arange(points) + 0.5) * h


def dense_k0(points: int, extent: float, potential) -> np.ndarray:
    """Central-difference -d^2/dx^2 + W(x) with Dirichlet walls, dense."""
    h = 2.0 * extent / points
    x = axis_points(points, extent)
    mat = (np.diag(np.full(points, 2.0 / h ** 2))
           - np.diag(np.full(points - 1, 1.0 / h ** 2), 1)
           - np.diag(np.full(points - 1, 1.0 / h ** 2), -1))
    return mat + np.diag(potential(x))


def dense_harmonic_ground(points: int = 64, extent: float = 8.0) -> float:
    return float(np.linalg.eigvalsh(dense_k0(points, extent,
                                             lambda x: x ** 2))[0])


def discrete_box_ground(points: int, extent: float) -> float:
    """Closed-form lowest Dirichlet eigenvalue of the cell-centered stencil."""
    h = 2.0 * extent / points
    return 2.0 * (1.0 - np.cos(np.pi * h / (2.0 * extent + h))) / h ** 2


def cosine_scan_oracle(points: int = 64, extent: float = 8.0,
                       lam0: complex = 0.5, k_mode: float = 1.0,
                       grid_n: int = 161, box: float = 2.0):
    """Brute-force field scan for the one-mode cosine-coupled trap.

    Scans (Re z, Im z) over a grid_n x grid_n lattice in [-box, box]^2 with a
    dense eigensolve at each point, then refines the best point by
    Nelder-Mead on the same objective.
    """
    k0 = dense_k0(points, extent, lambda x: x ** 2)
    x = axis_points(points, extent)
    lam = lam0 * np.exp(-1j * k_mode * x)

    def energy(re: float, im: float) -> float:
        z = re + 1j * im
        v = 2.0 * np.real(np.conj(z) * lam)
        return float(np.linalg.eigvalsh(k0 + np.diag(v))[0]) + abs(z) ** 2

    vals = np.linspace(-box, box, grid_n)
    best = (np.inf, 0.0, 0.0)
    for re in vals:
        zrow = re + 1j * vals
        vrow = 2.0 * np.real(np.conj(zrow)[:, None] * lam[None, :])
        stack = k0[None, :, :] + vrow[:, :, None] * np.eye(points)[None, :, :]
        eigs = np.linalg.eigvalsh(stack)[:, 0] + np.abs(zrow) ** 2
        i = int(np.argmin(eigs))
        if eigs[i] < best[0]:
            best = (float(eigs[i]), float(re), float(vals[i]))

    res = _nm_minimize(lambda p: energy(p[0], p[1]), [best[1], best[2]],
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-13,
                                "maxiter": 2000})
    return float(res.fun), complex(res.x[0], res.x[1])


def displaced_oscillator_ground(g: float, omega: float) -> float:
    """Exact ground energy of eps*omega*n + sqrt(eps)*g*(a+a^dag): -g^2/omega,
    independent of eps."""
    return -g * g / omega


def dense_displaced_oscillator(eps: float, g: float, omega: float,
                               n_max: int) -> float:
    n = np.arange(n_max + 1)
    h = np.diag(eps * omega * n).astype(float)
    off = np.sqrt(eps) * g * np.sqrt(np.arange(1, n_max + 1))
    h += np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(h)[0])


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def fock_states(n_modes: int, n_max: int) -> np.ndarray:
    """Occupation vectors with total <= n_max, by total, then lexicographic."""
    states = []
    for total in range(n_max + 1):
        states.extend(_compositions(total, n_modes))
    return np.asarray(states, dtype=np.int64)


def ladder_matrices(states: np.ndarray, epsilon: float):
    """Lowering matrices sqrt(eps n_j) |n - e_j><n| built state by state
    through a dict of occupation tuples, and their adjoints."""
    index = {tuple(row): i for i, row in enumerate(states)}
    dim = len(states)
    lowering = []
    for j in range(states.shape[1]):
        rows, cols, vals = [], [], []
        for col, state in enumerate(states):
            nj = state[j]
            if nj == 0:
                continue
            tgt = list(state)
            tgt[j] -= 1
            rows.append(index[tuple(tgt)])
            cols.append(col)
            vals.append(np.sqrt(epsilon * nj))
        lowering.append(sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim),
                                      dtype=complex))
    return lowering, [a.conj().T.tocsr() for a in lowering]


def kron_h_eps(k0, lifted, weights, omega, states, epsilon, momenta=None,
               masses=None, charge=None):
    """H_eps built by Kronecker products, term by term: K_0 (x) 1 +
    1 (x) dGamma plus, per particle p with lifted (G, K) table lifted[p],
    A_p = sum_j sqrt(w_j) (diag lambda_j (x) a_j^dag + diag conj(lambda_j)
    (x) a_j).  Linear coupling adds sum_p A_p; given momenta (the (G, G)
    P_p), masses and charge, minimal coupling adds
    sum_p (e/2m_p)(P_p A_p + A_p P_p) + (e^2/2m_p) A_p A_p, P_p lifted as
    P_p (x) 1.  Terms are summed in that order."""
    dim = len(states)
    eye_f = sp.identity(dim, format="csr", dtype=complex)
    eye_g = sp.identity(k0.shape[0], format="csr", dtype=complex)
    dgamma = sp.diags((epsilon * (states @ np.asarray(omega))).astype(complex),
                      format="csr")
    h = sp.kron(k0, eye_f, format="csr") + sp.kron(eye_g, dgamma,
                                                    format="csr")
    lowering, raising = ladder_matrices(states, epsilon)
    sqw = np.sqrt(weights)

    def field(table):
        op = 0
        for j in range(states.shape[1]):
            d = sp.diags(table[:, j].astype(complex), format="csr")
            op = op + sqw[j] * (sp.kron(d, raising[j], format="csr")
                                + sp.kron(d.conj(), lowering[j],
                                          format="csr"))
        return op

    if momenta is None:
        return (h + sum(field(table) for table in lifted)).tocsr()
    total = 0
    for table, mom, m in zip(lifted, momenta, masses):
        a, mom = field(table), sp.kron(mom, eye_f, format="csr")
        total = total + (charge / (2.0 * m)) * (mom @ a + a @ mom) \
            + (charge ** 2 / (2.0 * m)) * (a @ a)
    return (h + total).tocsr()
