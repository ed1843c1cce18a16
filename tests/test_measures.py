import dataclasses
import json

import numpy as np
import pytest

from qcfield import (AtomicStateMeasure, atomic_bound_check,
                     atomic_measure_energy, concentration_tally,
                     dirac_measure, field_z, near_minimizing_measure,
                     per_atom_relaxed_energy, qc_energy,
                     random_atomic_measure, random_wavefunction,
                     serialize_measure, shared_state_measure_energy)
from qcfield import measures


def test_dirac_measure_equals_qc_energy(decoupled):
    rng = np.random.default_rng(30)
    psi = random_wavefunction(decoupled.grid, rng)
    z = field_z([0.4 - 0.1j])
    m = dirac_measure(z, psi)
    assert atomic_measure_energy(decoupled, m) == qc_energy(decoupled, psi, z)


def test_two_equal_atoms_degenerate(decoupled):
    rng = np.random.default_rng(31)
    psi = random_wavefunction(decoupled.grid, rng)
    z = field_z([0.2])
    m = AtomicStateMeasure(atoms=((0.5, z, psi), (0.5, z, psi)))
    assert atomic_measure_energy(decoupled, m) == pytest.approx(
        qc_energy(decoupled, psi, z), rel=1e-15)


def test_shared_state_repeated_point(decoupled):
    rng = np.random.default_rng(32)
    psi = random_wavefunction(decoupled.grid, rng)
    z = field_z([0.3 + 0.2j])
    e = shared_state_measure_energy(decoupled, psi, [0.5, 0.5], [z, z])
    assert e == pytest.approx(qc_energy(decoupled, psi, z), rel=1e-15)


def test_weight_sum_enforced(decoupled):
    rng = np.random.default_rng(33)
    psi = random_wavefunction(decoupled.grid, rng)
    with pytest.raises(ValueError):
        AtomicStateMeasure(atoms=((0.7, field_z([0.0]), psi),))
    with pytest.raises(ValueError):
        shared_state_measure_energy(decoupled, psi, [0.7, 0.1],
                                    [field_z([0.0]), field_z([1.0])])


def test_affine_in_the_measure(decoupled):
    rng = np.random.default_rng(34)
    m1 = random_atomic_measure(decoupled, rng)
    m2 = random_atomic_measure(decoupled, rng)
    beta = 0.3
    mixed = AtomicStateMeasure(
        atoms=tuple((beta * w, z, p) for w, z, p in m1.atoms)
        + tuple(((1 - beta) * w, z, p) for w, z, p in m2.atoms))
    lhs = atomic_measure_energy(decoupled, mixed)
    rhs = beta * atomic_measure_energy(decoupled, m1) \
        + (1 - beta) * atomic_measure_energy(decoupled, m2)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_relaxed_atoms_never_increase_energy(decoupled):
    rng = np.random.default_rng(35)
    for _ in range(5):
        psi = random_wavefunction(decoupled.grid, rng)
        points = [field_z(rng.standard_normal(1) + 1j * rng.standard_normal(1))
                  for _ in range(3)]
        weights = [0.2, 0.3, 0.5]
        shared = shared_state_measure_energy(decoupled, psi, weights, points)
        relaxed = per_atom_relaxed_energy(decoupled, weights, points)
        assert relaxed <= shared + 1e-12


def test_sampled_measures_respect_floor(decoupled, decoupled_min):
    rng = np.random.default_rng(36)
    for _ in range(30):
        m = random_atomic_measure(decoupled, rng)
        assert atomic_measure_energy(decoupled, m) >= \
            decoupled_min.energy - 1e-8


def test_adversarial_split_measure_strictly_above(decoupled, decoupled_min):
    far = field_z([2.5 + 1.0j])
    rng = np.random.default_rng(37)
    psi_far = random_wavefunction(decoupled.grid, rng)
    m = AtomicStateMeasure(atoms=(
        (0.5, decoupled_min.z_star, decoupled_min.psi_star),
        (0.5, far, psi_far)))
    assert atomic_measure_energy(decoupled, m) > decoupled_min.energy + 1e-3


def test_bound_check_report(decoupled, decoupled_min, decoupled_pekar):
    rep = atomic_bound_check(decoupled, n_samples=40, seed=6,
                             reference=decoupled_min,
                             e_pekar=decoupled_pekar.energy)
    assert rep.passes
    assert rep.witness is None
    assert rep.dirac_svm == pytest.approx(rep.e_qc, abs=1e-8)
    assert rep.dirac_pm == pytest.approx(rep.e_qc, abs=1e-8)
    assert rep.min_sampled_measure_energy >= rep.e_qc - 1e-8
    assert rep.min_sampled_field_energy >= rep.e_qc - 1e-8


def test_concentration_tally_markov(decoupled, decoupled_min):
    rng = np.random.default_rng(38)
    delta = 1e-2
    m = near_minimizing_measure(decoupled, decoupled_min, delta, rng)
    excess = atomic_measure_energy(decoupled, m) - decoupled_min.energy
    assert 0 <= excess <= delta
    tally = concentration_tally(decoupled, m, decoupled_min.energy, delta,
                                range(2, 11))
    for k, weight in tally.items():
        assert weight < 1.0 / k


def test_witness_serialization_shape(decoupled, monkeypatch):
    monkeypatch.setattr(measures, "MAX_ATOMS", 3)
    rng = np.random.default_rng(39)
    m = random_atomic_measure(decoupled, rng)
    doc = serialize_measure(m)
    assert doc["format"] == "qcfield-measure"
    assert len(doc["atoms"]) == m.n_atoms
    atom = doc["atoms"][0]
    assert len(atom["z"][0]) == 2  # [re, im]
    assert abs(sum(a["weight"] for a in doc["atoms"]) - 1.0) < 1e-12


@pytest.mark.parametrize("weights, n_points", [([0.5, 0.5, 0.5], 2),
                                               ([0.5, 0.5, 0.0], 2),
                                               ([2.0], 1), ([-1.0, 2.0], 2),
                                               ([float("nan")], 1)])
def test_measure_energies_refuse_non_measures(decoupled, weights, n_points):
    psi = random_wavefunction(decoupled.grid, np.random.default_rng(40))
    points = [field_z([0.1 * k]) for k in range(n_points)]
    with pytest.raises(ValueError):
        per_atom_relaxed_energy(decoupled, weights, points)
    with pytest.raises(ValueError):
        shared_state_measure_energy(decoupled, psi, weights, points)


def _shifted_bound_check(decoupled, decoupled_min, shift, e_pekar=None):
    """atomic_bound_check against the minimum raised by shift; e_pekar
    defaults to the raised minimum, so the reduced-energy test holds."""
    reference = dataclasses.replace(decoupled_min,
                                    energy=decoupled_min.energy + shift)
    return atomic_bound_check(decoupled, n_samples=40, seed=6,
                              reference=reference,
                              e_pekar=reference.energy
                              if e_pekar is None else e_pekar)


def test_bound_check_undercut_reports_witness(decoupled, decoupled_min):
    """Sampled measures sit about 46 above the minimum: raised by 100, the
    minimum is undercut and the first undercutting measure is the witness."""
    rep = _shifted_bound_check(decoupled, decoupled_min, 100.0)
    assert not rep.passes
    assert rep.min_sampled_measure_energy < rep.e_qc
    assert rep.witness["format"] == "qcfield-measure"
    assert json.loads(json.dumps(rep.witness)) == rep.witness


def test_bound_check_field_probe_undercut(decoupled, decoupled_min):
    rep = _shifted_bound_check(decoupled, decoupled_min, 0.05)
    assert not rep.passes
    assert rep.witness is None
    assert rep.min_sampled_field_energy < rep.e_qc


def test_bound_check_dirac_mismatch(decoupled, decoupled_min):
    rep = _shifted_bound_check(decoupled, decoupled_min, 1e-6)
    assert not rep.passes
    assert rep.witness is None
    assert rep.min_sampled_field_energy >= rep.e_qc
    assert rep.dirac_pm == rep.dirac_svm == decoupled_min.energy


def test_bound_check_pekar_mismatch(decoupled, decoupled_min,
                                    decoupled_pekar):
    rep = _shifted_bound_check(decoupled, decoupled_min, 0.0,
                               e_pekar=decoupled_pekar.energy + 1e-3)
    assert not rep.passes
    assert rep.witness is None
