"""Acceptance suite: one test per shipped criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import time
from contextlib import contextmanager

import numpy as np

from qcfield import (alternating_minimize, atomic_measure_energy,
                     build_fock_basis, concentration_tally, convexity_gap,
                     dirac_measure, epsilon_sweep, equivalence_check,
                     eta_pekar, eta_pekar_from_density, field_eta,
                     field_gradient, field_z, fixed_point_eta,
                     ground_energy_eps, assemble_h_eps, mode_norm,
                     near_minimizing_measure, one_particle_density, qc_energy,
                     random_atomic_measure, random_wavefunction,
                     shared_state_measure_energy, shell_rule_n_max,
                     stability_lower_bound, trial_energy, WaveFunction)
from qcfield.cli import EXIT_OK, main
from qcfield.presets import cosine_coupled_reference

from oracles import (E_QC_COSINE, cosine_scan_oracle,
                     displaced_oscillator_ground)

EPS_LIST = (0.5, 0.25, 0.125, 0.0625)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({name}): FAIL")
        raise
    print(f"criterion {number:2d} ({name}): PASS")


def test_criterion_01_equivalence_of_variational_problems(decoupled, cosine):
    with criterion(1, "equivalence of coupled and reduced minimization"):
        t0 = time.monotonic()
        rep_a = equivalence_check(decoupled, tol=1e-6, n_starts=3, seed=17)
        elapsed_a = time.monotonic() - t0
        assert rep_a.passes
        assert rep_a.gap <= 1e-6
        assert elapsed_a <= 60.0

        t0 = time.monotonic()
        rep_b = equivalence_check(cosine, tol=1e-6, n_starts=3, seed=17)
        oracle_e, _ = cosine_scan_oracle()
        elapsed_b = time.monotonic() - t0
        assert rep_b.passes
        assert rep_b.gap <= 1e-6
        assert abs(rep_b.e_qc - oracle_e) <= 1e-6
        assert abs(oracle_e - E_QC_COSINE) <= 1e-9  # frozen oracle value
        assert elapsed_b <= 60.0


def test_criterion_02_ground_state_energy_convergence(decoupled,
                                                      decoupled_min):
    with criterion(2, "quantized ground energy converges to the coupled "
                      "minimum"):
        t0 = time.monotonic()
        rep = epsilon_sweep(decoupled, EPS_LIST, decoupled_min.energy,
                            decoupled_min.z_star)
        errs = [r.abs_err for r in rep.rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))  # strictly decreasing
        assert errs[-1] <= 1e-3 * abs(decoupled_min.energy)
        assert rep.all_reliable
        assert time.monotonic() - t0 <= 300.0


def test_criterion_03_displaced_oscillator_exactness(frozen_mode):
    with criterion(3, "frozen-site displaced oscillator is scale-independent"):
        t0 = time.monotonic()
        exact = displaced_oscillator_ground(0.3, 2.0)
        basis = build_fock_basis(1, 12)
        for eps in EPS_LIST:
            h = assemble_h_eps(frozen_mode, basis, eps)
            energy, _ = ground_energy_eps(h)
            assert abs(energy - exact) <= 1e-8
        assert time.monotonic() - t0 <= 10.0


def test_criterion_04_coherent_trial_state_expansion(decoupled, decoupled_min,
                                                     frozen_pf):
    with criterion(4, "coherent trial energies approach the coupled energy"):
        gaps = []
        for i, eps in enumerate(EPS_LIST):
            budget = 1e-8 * (eps / EPS_LIST[0]) ** 2
            n_max = shell_rule_n_max(decoupled, decoupled_min.z_star, eps,
                                     budget)
            basis = build_fock_basis(1, n_max)
            t = trial_energy(decoupled, basis, eps, decoupled_min.psi_star,
                             decoupled_min.z_star)
            gaps.append(t.gap)
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))  # non-increasing

        # frozen minimal coupling: gap linear in eps with the analytic
        # normal-ordering coefficient e^2 ||lambda||^2 / (2m)
        psi = WaveFunction.normalized(np.ones(1), frozen_pf.grid)
        z = field_z([0.1 + 0.05j])
        basis = build_fock_basis(1, 14)
        eps_fit = [0.5, 0.25, 0.125]
        pf_gaps = [trial_energy(frozen_pf, basis, eps, psi, z).gap
                   for eps in eps_fit]
        slope = np.polyfit(eps_fit, pf_gaps, 1)[0]
        w = frozen_pf.modes.weights
        table = frozen_pf.form_factor.tables[0]
        analytic = (frozen_pf.charge ** 2
                    * float((np.abs(table[0]) ** 2 @ w).real)
                    / (2.0 * frozen_pf.mass_of(0)))
        assert abs(slope - analytic) <= 0.05 * analytic


def test_criterion_05_strict_convexity(nelson_small, polaron_small, pf_small):
    with criterion(5, "field energy strictly convex with exact quadratic gap"):
        rng = np.random.default_rng(55)
        for spec in (nelson_small, polaron_small, pf_small):
            for _ in range(100):
                psi = random_wavefunction(spec.grid, rng)
                k = spec.n_modes
                eta1 = field_eta(rng.standard_normal(k)
                                 + 1j * rng.standard_normal(k))
                eta2 = field_eta(rng.standard_normal(k)
                                 + 1j * rng.standard_normal(k))
                beta = float(rng.uniform(0.05, 0.95))
                g = convexity_gap(spec, psi, eta1, eta2, beta)
                assert g.gap > 0
                assert abs(g.gap - g.prediction) <= 1e-10 * abs(g.prediction)


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


def test_criterion_06_stationarity(decoupled, cosine, nelson_small,
                                   polaron_small, pf_small):
    with criterion(6, "stationarity residuals and analytic field gradients"):
        for spec in (decoupled, cosine, nelson_small, polaron_small, pf_small):
            res = alternating_minimize(spec)
            assert res.converged
            assert res.el_residuals.psi_residual <= 1e-7
            assert res.el_residuals.field_residual <= 1e-7
        rng = np.random.default_rng(66)
        specs = (nelson_small, polaron_small, pf_small)
        for i in range(100):
            spec = specs[i % len(specs)]
            psi = random_wavefunction(spec.grid, rng)
            z = field_z(rng.standard_normal(spec.n_modes)
                        + 1j * rng.standard_normal(spec.n_modes))
            analytic = field_gradient(spec, psi, z)
            fd = _fd_gradient(spec, psi, z)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(analytic - fd)) <= 1e-6 * scale


def test_criterion_07_apriori_lower_bound(decoupled, cosine, frozen_mode,
                                          nelson_small, nelson_pair):
    with criterion(7, "quantized energies respect the a-priori lower bound"):
        for spec in (decoupled, cosine, frozen_mode, nelson_small,
                     nelson_pair):
            bound = stability_lower_bound(spec)
            n_max = 10 if spec.grid.total_points > 100 else 12
            basis = build_fock_basis(spec.n_modes, n_max)
            for eps in (0.5, 0.125):
                h = assemble_h_eps(spec, basis, eps)
                energy, _ = ground_energy_eps(h)
                assert energy >= bound


def test_criterion_08_atomic_measure_infima(decoupled, decoupled_min):
    with criterion(8, "atomic measures never undercut the coupled minimum"):
        rng = np.random.default_rng(88)
        e_qc = decoupled_min.energy
        for _ in range(200):
            measure = random_atomic_measure(decoupled, rng)
            assert atomic_measure_energy(decoupled, measure) >= e_qc - 1e-8
        dirac = dirac_measure(decoupled_min.z_star, decoupled_min.psi_star)
        assert abs(atomic_measure_energy(decoupled, dirac) - e_qc) <= 1e-8
        assert abs(shared_state_measure_energy(
            decoupled, decoupled_min.psi_star, [1.0],
            [decoupled_min.z_star]) - e_qc) <= 1e-8

        delta = 1e-2
        measure = near_minimizing_measure(decoupled, decoupled_min, delta, rng)
        assert atomic_measure_energy(decoupled, measure) <= e_qc + delta
        tally = concentration_tally(decoupled, measure, e_qc, delta,
                                    range(2, 11))
        for k, weight in tally.items():
            assert weight < 1.0 / k


def test_criterion_09_unique_minimizing_field(pf_small, nelson_pair):
    with criterion(9, "the minimizing field is unique and route-independent"):
        rng = np.random.default_rng(99)
        psi = random_wavefunction(pf_small.grid, rng)
        eta_direct = eta_pekar(pf_small, psi)
        for _ in range(2):
            start = rng.standard_normal(pf_small.n_modes) \
                + 1j * rng.standard_normal(pf_small.n_modes)
            eta_fp, _ = fixed_point_eta(pf_small, psi, start=start)
            assert mode_norm(pf_small.modes,
                             eta_direct.values - eta_fp.values) <= 1e-10

        grid = nelson_pair.grid
        phi = rng.standard_normal(grid.single_count) \
            + 1j * rng.standard_normal(grid.single_count)
        phi /= np.linalg.norm(phi) * np.sqrt(grid.spacing)
        product = WaveFunction(np.kron(phi, phi), grid)
        direct = eta_pekar(nelson_pair, product)
        via_rho = eta_pekar_from_density(
            nelson_pair, one_particle_density(product, grid))
        assert np.max(np.abs(direct.values - via_rho.values)) <= 1e-12


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "repeated runs produce byte-identical results"):
        from qcfield import save_model
        model_path = tmp_path / "model.json"
        save_model(cosine_coupled_reference(), model_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"command = qc-min\nmodel = {model_path}\n"
                       "n_starts = 2\n")
        payloads = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main(["qc-min", "--config", str(cfg), "--out", str(out),
                         "--seed", "41"]) == EXIT_OK
            payloads.append((out / "results.json").read_bytes())
        assert payloads[0] == payloads[1]
