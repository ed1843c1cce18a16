"""Canonical desk-scale instances used by the demos and the test suite."""

from __future__ import annotations

import numpy as np

from .model import (ModelSpec, build_dispersion, build_field_modes,
                    build_particle_grid, frozen_particle_grid, make_model,
                    nelson_form_factor, pauli_fierz_form_factor,
                    polaron_form_factor)


def decoupled_reference() -> ModelSpec:
    """Harmonic trap with a single zero-momentum mode: the coupling is
    position-independent, so particle and field decouple exactly and every
    energy has a closed form (trap ground energy minus g^2/omega)."""
    grid = build_particle_grid(1, 1, 8.0, 64)
    modes = build_field_modes([[0.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    form = nelson_form_factor(grid, modes, [0.5], dispersion=disp)
    return make_model("nelson", grid, modes, disp, form, "harmonic")


def cosine_coupled_reference() -> ModelSpec:
    """Harmonic trap with a single k = 1 mode; the field drags a cosine well
    across the trap, a genuinely coupled one-mode problem."""
    grid = build_particle_grid(1, 1, 8.0, 64)
    modes = build_field_modes([[1.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    form = nelson_form_factor(grid, modes, [0.5], dispersion=disp)
    return make_model("nelson", grid, modes, disp, form, "harmonic")


def frozen_mode_reference(g: float = 0.3, omega: float = 2.0) -> ModelSpec:
    """Single frozen site coupled to one mode: a displaced oscillator with
    exact ground energy -g^2/omega at every scaling parameter."""
    grid = frozen_particle_grid()
    modes = build_field_modes([[0.0]], weights=[1.0])
    disp = build_dispersion([omega])
    form = nelson_form_factor(grid, modes, [g], dispersion=disp)
    return make_model("nelson", grid, modes, disp, form, "zero")


def frozen_minimal_coupling(charge: float = 0.3, mass: float = 1.0,
                            amplitude: float = 0.7,
                            omega: float = 1.0) -> ModelSpec:
    """Frozen site with minimal coupling: only the squared field operator
    acts, so the trial-state energy exceeds the classical value by exactly
    eps * e^2 ||lambda||^2 / (2m)."""
    grid = frozen_particle_grid()
    modes = build_field_modes([[0.0]], weights=[1.0])
    disp = build_dispersion([omega])
    form = pauli_fierz_form_factor(grid, modes, [[amplitude]])
    return make_model("pauli_fierz", grid, modes, disp, form, "zero",
                      masses=[mass], charge=charge)


def small_minimal_coupling(charge: float = 0.2, mass: float = 1.0,
                           points: int = 16) -> ModelSpec:
    """Small moving-particle minimal-coupling instance (two modes)."""
    grid = build_particle_grid(1, 1, 4.0, points)
    modes = build_field_modes([[-1.0], [1.0]], weights=[1.0, 1.0])
    disp = build_dispersion([1.0, 1.5])
    form = pauli_fierz_form_factor(grid, modes, [[0.4, 0.3]])
    return make_model("pauli_fierz", grid, modes, disp, form, "harmonic",
                      masses=[mass], charge=charge)


def small_polaron(alpha: float = 0.6, points: int = 16) -> ModelSpec:
    """Small phonon-coupled instance on a four-mode lattice."""
    grid = build_particle_grid(1, 1, 4.0, points)
    momenta = [[-2.25], [-0.75], [0.75], [2.25]]
    modes = build_field_modes(momenta)
    disp = build_dispersion([1.0, 1.0, 1.0, 1.0])
    form = polaron_form_factor(grid, modes, alpha)
    return make_model("polaron", grid, modes, disp, form, "harmonic",
                      alpha=alpha)


def small_nelson(points: int = 16) -> ModelSpec:
    """Small two-mode linearly coupled instance for property sweeps."""
    grid = build_particle_grid(1, 1, 4.0, points)
    modes = build_field_modes([[-1.0], [1.0]], weights=[1.0, 1.0])
    disp = build_dispersion([1.0, 2.0])
    form = nelson_form_factor(grid, modes, [0.3 + 0.1j, 0.25], dispersion=disp)
    return make_model("nelson", grid, modes, disp, form, "harmonic")


def two_particle_nelson(points: int = 12) -> ModelSpec:
    """Two particles on a shared axis with one k = 0.5 mode."""
    grid = build_particle_grid(1, 2, 4.0, points)
    modes = build_field_modes([[0.5]], weights=[1.0])
    disp = build_dispersion([1.0])
    form = nelson_form_factor(grid, modes, [0.4], dispersion=disp)
    return make_model("nelson", grid, modes, disp, form, "harmonic")


def soliton_polaron(points: int) -> ModelSpec:
    """1-d polaron, one particle on a zero potential, extent 8, alpha = 0.3,
    with K = 4 Lambda + 1 unit-frequency modes on linspace(-Lambda, Lambda),
    Lambda = 12 points / 64 (mode spacing 0.5).  The trapezoid weights make
    sum_j w_j cos(k_j r) tend to 2 pi delta(r), so the reduced energy tends
    to int |psi'|^2 - 2 pi alpha int |psi|^4, whose minimum over unit psi
    is -pi^2 alpha^2 / 3, attained by the cubic NLS soliton
    sqrt(kappa / 2) sech(kappa x), kappa = pi alpha."""
    alpha = 0.3
    cutoff = 12.0 * points / 64
    k = np.linspace(-cutoff, cutoff, int(round(4 * cutoff)) + 1)
    grid = build_particle_grid(1, 1, 8.0, points)
    modes = build_field_modes([[x] for x in k])
    form = polaron_form_factor(grid, modes, alpha)
    disp = build_dispersion(np.ones(k.size))
    return make_model("polaron", grid, modes, disp, form, "zero",
                      alpha=alpha)
