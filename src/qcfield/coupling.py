"""Particle-field couplings: the one place that tells linear from minimal.

Given the field operator A_p that particle p sees and its momentum P_p,
linear coupling (nelson, polaron) adds sum_p A_p and minimal coupling
(pauli_fierz) adds

    sum_p (e/2m_p){P_p, A_p} + (e^2/2m_p) A_p^2.

interaction is the one definition of that operator; the quantized H_eps
evaluates it at A_p = sum_j sqrt(w_j) (lambda_j(x_p) a_j^dag + h.c.).  H_z
takes the classical field A_p = diag a_z(x_p) through field_data, which
maps the lifted fields a_p straight to data on H_z's memoised sparsity
pattern (qc_energy.hz_pattern), summing in interaction's order so that
both give the same matrix.  At fixed psi the energy is quadratic in
eta = omega^(1/2) z (inner products weighted by w):

    E(psi, eta) = <K_0>_psi + ||eta||^2 + 2 Re<eta|b_psi> + Re<eta|T_psi eta>.

Each coupling supplies b_vector, apply_t (T eta) and solve_field (the
minimizing field, solving (1 + T) eta = -b: eta = -b under linear coupling,
where T = 0, with no solve), plus one reduced method that returns the
reduced energy and its gradient together.  ModelSpec.coupling picks one
from BY_FAMILY once per model.
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np

from .errors import SolverError
from .model import grid_inner
from .pekar import eta_pekar, kernel_convolve
from .qc_energy import (assemble_hz, assemble_k0, coupling_expectation,
                        eta_to_z, hz_pattern)


class LinearCoupling:
    """sum_p A_p: the field enters H_z linearly, so T = 0 and eliminating
    the field leaves a density-density kernel."""

    def interaction(self, spec, field, momentum):
        """sum_p field(p); momentum is not used.  The sum starts from
        field(0), not from 0, which would copy it."""
        return reduce(add, map(field, range(spec.grid.n_particles)))

    def field_data(self, spec, pattern, fields):
        """sum_p a_p on the pattern's diagonal."""
        data = np.zeros_like(pattern.k0_data)
        data[pattern.diagonal] = sum(fields)
        return data

    def b_vector(self, spec, psi):
        """b_j = <psi| sum_p lambda_p(x_p;k_j) |psi> / sqrt(omega_j)."""
        return coupling_expectation(spec, psi) / np.sqrt(spec.dispersion.values)

    def apply_t(self, spec, psi, eta):
        """T eta = 0."""
        return np.zeros(spec.n_modes, dtype=complex)

    def solve_field(self, spec, psi):
        """eta = -b; 0.0 - b keeps a zero component +0.0, never -0.0."""
        return 0.0 - self.b_vector(spec, psi)

    def reduced(self, spec, psi):
        """Reduced energy through the kernel, <K_0> + <rho|V_kernel * rho>,
        and its unconstrained gradient (K_0 + 2 V_kernel * |psi|^2) psi."""
        density = np.abs(psi.values) ** 2 * spec.grid.measure
        conv = kernel_convolve(spec, density)
        k0_psi = assemble_k0(spec).matrix @ psi.values
        return (float(grid_inner(spec.grid, psi.values, k0_psi).real)
                + float(density @ conv), k0_psi + 2.0 * conv * psi.values)

    def kernel_value(self, spec, psi):
        """The reduced energy by the kernel route; pekar_energy checks it
        against H_z's route."""
        return self.reduced(spec, psi)[0]


class MinimalCoupling:
    """P_p -> P_p + e A_p: through A_p^2 the field's quadratic form depends
    on psi (T != 0), and eliminating the field leaves no kernel."""

    def interaction(self, spec, field, momentum):
        """sum_p (e/2m_p)(P_p A_p + A_p P_p) + (e^2/2m_p) A_p A_p."""
        e = spec.charge
        total = 0
        for p in range(spec.grid.n_particles):
            a, mom, m = field(p), momentum(p), spec.mass_of(p)
            total = total + (e / (2.0 * m)) * (mom @ a + a @ mom) \
                + (e ** 2 / (2.0 * m)) * (a @ a)
        return total

    def field_data(self, spec, pattern, fields):
        """interaction's sum on the pattern, P_p's entries times
        a_p[col] + a_p[row] and a_p^2 on the diagonal."""
        e = spec.charge
        data = np.zeros_like(pattern.k0_data)
        for p, a in enumerate(fields):
            mom, m = pattern.momentum[p], spec.mass_of(p)
            data += (e / (2.0 * m)) * (mom * a[pattern.indices]
                                       + a[pattern.rows] * mom)
            data[pattern.diagonal] += (e ** 2 / (2.0 * m)) * (a * a)
        return data

    def b_vector(self, spec, psi):
        """b_j = sum_p (e/2m_p) <psi|{P_p, xi_j(x_p)}|psi>, xi = omega^(-1/2) lambda."""
        grid = spec.grid
        e = spec.charge
        pattern = hz_pattern(spec)
        b = np.zeros(spec.n_modes, dtype=complex)
        for p in range(grid.n_particles):
            mom_psi = pattern.csr(pattern.momentum[p]) @ psi.values
            current = 2.0 * np.real(np.conj(psi.values) * mom_psi) * grid.measure
            marg = grid.marginal(current, p)
            b += (e / (2.0 * spec.mass_of(p))) * (_xi_table(spec, p).T @ marg)
        return b

    def apply_t(self, spec, psi, eta):
        """T eta, through T's real matrix on (Re eta, Im eta)."""
        t = self._real_t(spec, psi) @ np.concatenate([eta.real, eta.imag])
        return t[:spec.n_modes] + 1j * t[spec.n_modes:]

    def solve_field(self, spec, psi):
        """The dense solve of (1 + T) eta = -b on (Re eta, Im eta), refused
        with SolverError when 1 + T is not finite or its condition > 1e12."""
        k, b = spec.n_modes, self.b_vector(spec, psi)
        mat = np.eye(2 * k) + self._real_t(spec, psi)
        cond = np.linalg.cond(mat) if np.isfinite(mat).all() else np.inf
        if not np.isfinite(cond) or cond > 1e12:
            raise SolverError(
                f"singular field-minimizer system (cond={cond:.3g})")
        sol = np.linalg.solve(mat, -np.concatenate([b.real, b.imag]))
        return sol[:k] + 1j * sol[k:]

    def _real_t(self, spec, psi):
        """T as a real 2K x 2K matrix on (Re eta, Im eta):
        sum_p (2e^2/m_p) X_p^T diag(rho_p) X_p W, with X_p = [Re xi_p, Im xi_p]
        on particle p's grid, rho_p its marginal density and W = diag(w, w).
        (T eta)_j = sum_p (e^2/m_p) <psi| 2 Re<eta|xi(x_p)> xi_j(x_p) |psi>."""
        grid = spec.grid
        density = np.abs(psi.values) ** 2 * grid.measure
        mat = np.zeros((2 * spec.n_modes, 2 * spec.n_modes))
        for p in range(grid.n_particles):
            xi = _xi_table(spec, p)
            x = np.hstack([xi.real, xi.imag])
            rho = grid.marginal(density, p)
            mat += (2.0 * spec.charge ** 2 / spec.mass_of(p)) \
                * ((x.T * rho) @ x)
        return mat * np.tile(spec.modes.weights, 2)[None, :]

    def reduced(self, spec, psi):
        """Coupled energy at the solved field and its gradient H_{z(psi)} psi:
        at the solved field the field equation holds, so by the envelope
        identity the field's psi-dependence drops out."""
        op = assemble_hz(spec, eta_to_z(eta_pekar(spec, psi), spec.dispersion))
        h_psi = op.matrix @ psi.values
        return (float(grid_inner(spec.grid, psi.values, h_psi).real)
                + op.constant_offset, h_psi + op.constant_offset * psi.values)

    def kernel_value(self, spec, psi):
        """None: eliminating a minimally coupled field leaves no kernel."""
        return None


def _xi_table(spec, p):
    """xi(x; k_j) = omega_j^(-1/2) lambda_p(x; k_j) on the single-particle grid."""
    return spec.form_factor.tables[p] / np.sqrt(spec.dispersion.values)[None, :]


LINEAR = LinearCoupling()
MINIMAL = MinimalCoupling()
BY_FAMILY = {"nelson": LINEAR, "polaron": LINEAR, "pauli_fierz": MINIMAL}
