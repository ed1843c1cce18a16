"""Finite atomic measures over field configurations and their energies.

An atomic state-valued measure is a finite convex combination of rank-one
atoms (weight, field point, particle state); its energy is the weighted sum
of coupled energies.  These provide one-sided certificates: no measure can
undercut the coupled minimum, and any near-minimizing measure concentrates
its weight near the minimizing energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, _complex_out
from .minimize import MinimizeResult, best_particle_energy
from .qc_energy import (FieldAmplitudes, WaveFunction, complex_normal,
                        field_z, qc_energy, random_wavefunction)

WEIGHT_SUM_TOL = 1e-12
MAX_ATOMS = 5  # default atom-count cap of random_atomic_measure
NEAR_MIN_SPREAD = 6  # perturbed atoms of near_minimizing_measure
BOUND_SLACK = 1e-8  # atomic_bound_check's allowance below the minimum


@dataclass(frozen=True, eq=False)
class AtomicStateMeasure:
    """Atoms (weight_k, z_k, psi_k) with weights summing to one."""

    atoms: tuple[tuple[float, FieldAmplitudes, WaveFunction], ...]

    def __post_init__(self):
        total = sum(w for w, _, _ in self.atoms)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"atom weights sum to {total!r}, not 1")
        for w, z, psi in self.atoms:
            if w < 0:
                raise ValueError("atom weights must be nonnegative")
            z.require_gauge("z")
            psi.require_normalized()

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


def dirac_measure(z: FieldAmplitudes, psi: WaveFunction) -> AtomicStateMeasure:
    return AtomicStateMeasure(atoms=((1.0, z, psi),))


def atomic_measure_energy(spec: ModelSpec, measure: AtomicStateMeasure) -> float:
    """Energy of a state-valued measure: sum_k w_k <psi_k|H_{z_k}|psi_k>."""
    return float(sum(w * qc_energy(spec, psi, z)
                     for w, z, psi in measure.atoms))


def shared_state_measure_energy(spec: ModelSpec, psi: WaveFunction,
                                weights, points) -> float:
    """Energy of a scalar measure with one shared particle state."""
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError("weights must sum to 1")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if len(points) != len(w):
        raise ValueError("one field point per weight")
    return float(sum(wk * qc_energy(spec, psi, zk)
                     for wk, zk in zip(w, points)))


def per_atom_relaxed_energy(spec: ModelSpec, weights, points) -> float:
    """Replace each atom's state by the best state of its Hamiltonian;
    never above any shared- or per-atom-state energy on the same points."""
    w = np.asarray(weights, dtype=float)
    return float(sum(wk * best_particle_energy(spec, zk)
                     for wk, zk in zip(w, points)))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def random_field_point(spec: ModelSpec,
                       rng: np.random.Generator) -> FieldAmplitudes:
    """Field point with standard complex Gaussian amplitudes."""
    return field_z(complex_normal(rng, spec.n_modes))


def random_atomic_measure(spec: ModelSpec, rng: np.random.Generator,
                          max_atoms: int = MAX_ATOMS) -> AtomicStateMeasure:
    """Up to max_atoms atoms at random_field_point fields, random states."""
    n = int(rng.integers(1, max_atoms + 1))
    raw = rng.random(n)
    weights = raw / raw.sum()
    atoms = tuple(
        (float(weights[i]),
         random_field_point(spec, rng),
         random_wavefunction(spec.grid, rng))
        for i in range(n))
    return AtomicStateMeasure(atoms=atoms)


def near_minimizing_measure(spec: ModelSpec, reference: MinimizeResult,
                            delta: float,
                            rng: np.random.Generator) -> AtomicStateMeasure:
    """A measure with energy at most delta above the found minimum.

    Mixes the minimizer atom with NEAR_MIN_SPREAD perturbed atoms whose
    total excess energy is budgeted to 0.9 delta, exercising the
    concentration tally.
    """
    base_e = reference.energy
    spread = []
    for _ in range(NEAR_MIN_SPREAD):
        z = field_z(reference.z_star.values
                    + 0.3 * complex_normal(rng, spec.n_modes))
        psi = random_wavefunction(spec.grid, rng)
        spread.append((z, psi, qc_energy(spec, psi, z)))
    excess = sum(e - base_e for _, _, e in spread) / NEAR_MIN_SPREAD
    eat = 0.9 * delta / max(excess, 1e-300)
    w_spread = min(eat, 1.0) / NEAR_MIN_SPREAD
    w_min = 1.0 - w_spread * NEAR_MIN_SPREAD
    atoms = [(w_min, reference.z_star, reference.psi_star)]
    atoms += [(w_spread, z, psi) for z, psi, _ in spread]
    return AtomicStateMeasure(atoms=tuple(atoms))


def concentration_tally(spec: ModelSpec, measure: AtomicStateMeasure,
                        e_min: float, delta: float, ks) -> dict:
    """Weight of atoms whose energy exceeds e_min + k delta, per k.

    For a measure within delta of the minimum each tally must stay below 1/k.
    """
    energies = [(w, qc_energy(spec, psi, z)) for w, z, psi in measure.atoms]
    out = {}
    for k in ks:
        weight = sum(w for w, e in energies if e >= e_min + k * delta)
        out[int(k)] = float(weight)
    return out


# ---------------------------------------------------------------------------
# one-sided bound check
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BoundCheckReport:
    """Sampled-measure energies against the coupled minimum.

    Records the five-way agreement at the minimizer (coupled minimum, the
    Dirac measure energies, the reduced energy, and the best sampled
    fixed-field energy) plus the worst sampled violation, if any.
    """

    passes: bool
    e_qc: float
    dirac_svm: float
    dirac_pm: float
    e_pekar: float
    min_sampled_field_energy: float
    min_sampled_measure_energy: float
    n_samples: int
    witness: dict | None


def atomic_bound_check(spec: ModelSpec, n_samples: int, seed: int,
                       reference: MinimizeResult,
                       e_pekar: float) -> BoundCheckReport:
    """Sample random atomic measures of up to MAX_ATOMS atoms; none may
    undercut the found minimum by more than BOUND_SLACK.

    Also checks that the Dirac measure at the minimizer attains it and that
    sampled fixed-field relaxed energies stay above it.
    """
    rng = np.random.default_rng(seed)
    e_qc = reference.energy
    floor = e_qc - BOUND_SLACK
    witness = None
    min_measure = np.inf
    min_field = np.inf
    ok = True
    for _ in range(n_samples):
        measure = random_atomic_measure(spec, rng)
        e_svm = atomic_measure_energy(spec, measure)
        min_measure = min(min_measure, e_svm)
        shared = measure.atoms[0][2]
        weights = [w for w, _, _ in measure.atoms]
        points = [z for _, z, _ in measure.atoms]
        e_pm = shared_state_measure_energy(spec, shared, weights, points)
        min_measure = min(min_measure, e_pm)
        if e_svm < floor or e_pm < floor:
            ok = False
            if witness is None:
                witness = serialize_measure(measure)
        z_probe = random_field_point(spec, rng)
        e_field = best_particle_energy(spec, z_probe)
        min_field = min(min_field, e_field)
        if e_field < floor:
            ok = False

    dirac = dirac_measure(reference.z_star, reference.psi_star)
    dirac_svm = atomic_measure_energy(spec, dirac)
    dirac_pm = shared_state_measure_energy(
        spec, reference.psi_star, [1.0], [reference.z_star])
    if abs(dirac_svm - e_qc) > BOUND_SLACK \
            or abs(dirac_pm - e_qc) > BOUND_SLACK:
        ok = False
    if abs(e_pekar - e_qc) > max(BOUND_SLACK, 1e-6):
        ok = False
    return BoundCheckReport(passes=ok, e_qc=e_qc, dirac_svm=dirac_svm,
                            dirac_pm=dirac_pm, e_pekar=e_pekar,
                            min_sampled_field_energy=float(min_field),
                            min_sampled_measure_energy=float(min_measure),
                            n_samples=n_samples, witness=witness)


def serialize_measure(measure: AtomicStateMeasure) -> dict:
    """Witness serialization in the model-document style ([re, im] pairs)."""
    atoms = []
    for w, z, psi in measure.atoms:
        atoms.append({"weight": w, "z": _complex_out(z.values),
                      "psi": _complex_out(psi.values)})
    return {"format": "qcfield-measure", "version": 1, "atoms": atoms}
