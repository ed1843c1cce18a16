"""Coupled particle-field ground states in the weak-commutator scaling.

A numpy/scipy toolkit for the variational problems of a quantum particle
coupled to a classical or quantized bosonic field: effective Hamiltonians at
fixed field configuration, the field-reduced (Pekar-type) functional and its
self-interaction kernel, alternating and projected-gradient minimization,
truncated Fock-space quantization with a scaled commutator, coherent trial
states, and measure-level energy bounds.
"""

from .errors import (CapacityError, ConsistencyError, GaugeError,
                     ModelAssumptionError, NormalizationError, SolverError,
                     TruncationError)
from .model import (Dispersion, FieldModes, FormFactor, ModelSpec,
                    ParticleGrid, ValidationReport, build_dispersion,
                    build_field_modes, build_particle_grid,
                    frozen_particle_grid, grid_inner, grid_norm,
                    harmonic_potential, is_trapping, load_model, make_model,
                    mode_norm, model_from_json, model_to_json,
                    nelson_form_factor, pauli_fierz_form_factor,
                    polaron_form_factor, quartic_potential, save_model,
                    validate_model, zero_potential)
from .qc_energy import (ELResiduals, FieldAmplitudes, ParticleOperator,
                        WaveFunction, assemble_hz, assemble_k0,
                        box_ground_energy, effective_potential, el_residual,
                        eta_to_z, field_eta, field_gradient, field_z,
                        qc_energy, qc_energy_eta, random_wavefunction,
                        z_to_eta)
from .pekar import (Density, Gap, PekarEnergy, PekarKernel, SplittingReport,
                    convexity_gap, eta_pekar, eta_pekar_from_density,
                    fixed_point_eta, kernel_convolve, one_particle_density,
                    pekar_energy, pekar_kernel, polaron_splitting)
from .coupling import LinearCoupling, MinimalCoupling
from .minimize import (EquivalenceReport, MinimizeResult, MultiStartResult,
                       PekarMinimizeResult, alternating_minimize,
                       best_particle_energy, equivalence_check,
                       ground_eigenpair, multi_start, pekar_minimize)
from .fock import (FockBasis, ProductState, SweepReport, SweepRow,
                   TrialEnergy, assemble_h_eps, build_fock_basis,
                   coherent_product_state, coherent_tail, dgamma,
                   epsilon_sweep, ground_energy_eps, ground_state_eps,
                   ladder_operators, required_n_max, shell_rule_n_max,
                   stability_lower_bound, trial_energy)
from .measures import (AtomicStateMeasure, BoundCheckReport,
                       atomic_bound_check, atomic_measure_energy,
                       concentration_tally, dirac_measure,
                       near_minimizing_measure, per_atom_relaxed_energy,
                       random_atomic_measure, serialize_measure,
                       shared_state_measure_energy)

__version__ = "0.1.0"
