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
from .qc_energy import (FieldAmplitudes, WaveFunction, assemble_hz,
                        complex_normal, field_z, qc_energy,
                        random_wavefunction)

WEIGHT_SUM_TOL = 1e-12
MAX_ATOMS = 5  # atom-count cap of random_atomic_measure
NEAR_MIN_SPREAD = 6  # perturbed atoms of near_minimizing_measure
BOUND_SLACK = 1e-8  # atomic_bound_check's allowance below the minimum


def _check_measure(weights, points) -> None:
    """Refuse all but a probability measure on field points: one z-gauge
    point per weight, weights >= 0 summing to 1 within WEIGHT_SUM_TOL."""
    if len(weights) != len(points):
        raise ValueError("one field point per weight")
    if not abs(sum(weights) - 1.0) <= WEIGHT_SUM_TOL or min(weights) < 0:
        raise ValueError(f"not a probability vector: {list(weights)!r}")
    for z in points:
        z.require_gauge("z")


@dataclass(frozen=True, eq=False)
class AtomicStateMeasure:
    """Atoms (weight_k, z_k, psi_k) with weights summing to one."""

    atoms: tuple[tuple[float, FieldAmplitudes, WaveFunction], ...]

    def __post_init__(self):
        _check_measure([w for w, _, _ in self.atoms],
                       [z for _, z, _ in self.atoms])
        for _, _, psi in self.atoms:
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
    """Energy of a scalar measure with one shared particle state: the
    atomic_measure_energy of the measure whose atoms all carry psi."""
    return atomic_measure_energy(spec, AtomicStateMeasure(atoms=tuple(
        (w, z, psi) for w, z in zip(weights, points, strict=True))))


def per_atom_relaxed_energy(spec: ModelSpec, weights, points) -> float:
    """Replace each atom's state by the best state of its Hamiltonian;
    never above any shared- or per-atom-state energy on the same points.
    (weights, points) must be a probability measure."""
    _check_measure(weights, points)
    return float(sum(w * best_particle_energy(spec, z)
                     for w, z in zip(weights, points)))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def random_field_point(spec: ModelSpec,
                       rng: np.random.Generator) -> FieldAmplitudes:
    """Field point with standard complex Gaussian amplitudes."""
    return field_z(complex_normal(rng, spec.n_modes))


def random_atomic_measure(spec: ModelSpec,
                          rng: np.random.Generator) -> AtomicStateMeasure:
    """Up to MAX_ATOMS atoms at random_field_point fields, random states."""
    n = int(rng.integers(1, MAX_ATOMS + 1))
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

    Records the agreement at the minimizer (coupled minimum, the Dirac
    measure energy, the reduced energy, and the best sampled fixed-field
    energy) plus the worst sampled violation, if any.
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

    Both readings of a sample, with its own states and with the first
    atom's state shared by all, come from one H_z per atom.  Also checks
    that the Dirac measure at the minimizer attains the minimum (dirac_pm
    is dirac_svm: one atom, one state), that e_pekar agrees with it and
    that sampled fixed-field relaxed energies stay above it.
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
        shared = measure.atoms[0][2]
        e_svm = e_pm = 0.0
        for w, z, psi in measure.atoms:
            op = assemble_hz(spec, z)
            e_svm += w * op.expectation(psi)
            e_pm += w * op.expectation(shared)
        min_measure = min(min_measure, e_svm, e_pm)
        if e_svm < floor or e_pm < floor:
            ok = False
            if witness is None:
                witness = serialize_measure(measure)
        z_probe = random_field_point(spec, rng)
        e_field = best_particle_energy(spec, z_probe)
        min_field = min(min_field, e_field)
        if e_field < floor:
            ok = False

    dirac_svm = atomic_measure_energy(
        spec, dirac_measure(reference.z_star, reference.psi_star))
    if abs(dirac_svm - e_qc) > BOUND_SLACK \
            or abs(e_pekar - e_qc) > max(BOUND_SLACK, 1e-6):
        ok = False
    return BoundCheckReport(passes=ok, e_qc=e_qc, dirac_svm=dirac_svm,
                            dirac_pm=dirac_svm, e_pekar=e_pekar,
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
