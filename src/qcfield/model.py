"""Model data: particle grids, field modes, form factors, validated instances.

Three families are supported: a linearly coupled scalar field ("nelson"),
its phonon variant with unit dispersion ("polaron"), and the minimally
coupled vector field ("pauli_fierz", one-dimensional here).  All field-space
inner products carry the quadrature weights of the mode set,

    <u|v> = sum_j w_j conj(u_j) v_j,

so a finite weighted mode sum stands in for the continuum field integral.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, ModelAssumptionError

FAMILIES = {"nelson": (), "polaron": ("alpha",),  # optional fields each needs
            "pauli_fierz": ("masses", "charge")}

DEFAULT_GRID_CAP = 1_000_000


# ---------------------------------------------------------------------------
# particle grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ParticleGrid:
    """Uniform cell-centered box grid for N particles in d dimensions.

    Axis points sit at -L + (i + 1/2) h with h = 2L/G; Dirichlet walls sit
    half a cell outside the first and last point.  A configuration-grid
    array holds N particle blocks of G^d points in row-major order, particle
    0 slowest, each block holding d axes of G points, axis 0 slowest.  The
    lifts and marginals below are the one place that knows this order.
    """

    dim: int
    n_particles: int
    extent: float
    points_per_axis: int

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.points_per_axis

    @property
    def n_axes(self) -> int:
        return self.dim * self.n_particles

    @property
    def single_count(self) -> int:
        """Number of single-particle grid points, G^d."""
        return self.points_per_axis ** self.dim

    @property
    def total_points(self) -> int:
        return self.points_per_axis ** self.n_axes

    @property
    def measure(self) -> float:
        """Volume element h^(d N) of the configuration grid."""
        return self.spacing ** self.n_axes

    @cached_property
    def axis_coords(self) -> np.ndarray:
        h = self.spacing
        return -self.extent + (np.arange(self.points_per_axis) + 0.5) * h

    @cached_property
    def single_coords(self) -> np.ndarray:
        """Coordinates of the single-particle grid, shape (G^d, d)."""
        axes = [self.axis_coords] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def lift_single(self, values: np.ndarray, particle: int) -> np.ndarray:
        """Broadcast a single-particle array of shape (G^d, ...) to the
        configuration grid: row X of the result is values[x_particle]."""
        values = np.asarray(values)
        s = self.single_count
        n = self.n_particles
        tail = values.shape[1:]
        shape = [1] * n
        shape[particle] = s
        full = np.broadcast_to(values.reshape(*shape, *tail), (s,) * n + tail)
        return np.ascontiguousarray(full).reshape(self.total_points, *tail)

    def marginal(self, flat: np.ndarray, particle: int) -> np.ndarray:
        """Sum of a configuration-grid array over every particle but one,
        on that particle's single-particle grid (no volume element)."""
        arr = np.reshape(flat, (self.single_count,) * self.n_particles)
        return arr.sum(axis=tuple(q for q in range(self.n_particles)
                                  if q != particle))

    def lift_axis(self, op1d: sp.spmatrix, particle: int,
                  axis: int = 0) -> sp.csr_matrix:
        """Embed an operator on the G points of one coordinate axis of one
        particle into the configuration grid."""
        g = self.points_per_axis
        position = particle * self.dim + axis
        left = g ** position
        right = g ** (self.n_axes - position - 1)
        out = op1d
        if left > 1:
            out = sp.kron(sp.identity(left, format="csr"), out, format="csr")
        if right > 1:
            out = sp.kron(out, sp.identity(right, format="csr"), format="csr")
        return out.tocsr()

    def sum_over_particles(self, values: np.ndarray) -> np.ndarray:
        """Sum of values(x_i) over all particles, on the configuration grid."""
        return sum(self.lift_single(values, p) for p in range(self.n_particles))


def build_particle_grid(dim: int, n_particles: int, extent: float,
                        points_per_axis: int) -> ParticleGrid:
    """Checked grid of at most DEFAULT_GRID_CAP points; below 8 points only
    the frozen single site (d = 1, one particle, one point) is admitted."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    if not 0 < extent < np.inf:
        raise ValueError("extent must be positive and finite")
    if (dim, n_particles, points_per_axis) != (1, 1, 1) \
            and (points_per_axis < 8 or points_per_axis % 2 != 0):
        raise ValueError("points_per_axis must be even and >= 8")
    total = points_per_axis ** (dim * n_particles)
    if total > DEFAULT_GRID_CAP:
        raise CapacityError(
            f"infeasible grid: {points_per_axis}^{dim * n_particles} = {total} "
            f"points exceeds the cap {DEFAULT_GRID_CAP}")
    return ParticleGrid(dim, n_particles, extent, points_per_axis)


def frozen_particle_grid() -> ParticleGrid:
    """Degenerate single-site grid for a pinned particle.

    The particle carries no kinetic energy (the Laplacian of a single site is
    zero), which is the meaning of freezing; used by field-only diagnostics.
    Its extent is 0.5, so the single site has unit measure.
    """
    return build_particle_grid(1, 1, 0.5, 1)


def grid_inner(grid: ParticleGrid, f: np.ndarray, g: np.ndarray) -> complex:
    """L2 inner product on the configuration grid, with volume element."""
    return complex(np.vdot(f, g) * grid.measure)


def grid_norm(grid: ParticleGrid, f: np.ndarray) -> float:
    return float(np.linalg.norm(f) * np.sqrt(grid.measure))


# ---------------------------------------------------------------------------
# field modes and dispersion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FieldModes:
    """Finite set of field modes with quadrature weights.

    momenta has shape (K, d_field); weights has shape (K,) and enters every
    mode-space inner product.
    """

    momenta: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        return self.momenta.shape[0]

    @cached_property
    def magnitudes(self) -> np.ndarray:
        return np.linalg.norm(self.momenta, axis=1)


def build_field_modes(momenta: Sequence, weights: Sequence | None = None) -> FieldModes:
    """Assemble a mode set; weights default to the trapezoid rule on a 1-d
    lattice (unit weights otherwise)."""
    k = np.atleast_2d(np.asarray(momenta, dtype=float))
    if k.shape[0] == 1 and k.shape[1] > 1 and np.asarray(momenta).ndim == 1:
        # a flat list of 1-d momenta came in as a row; transpose to (K, 1)
        k = k.T
    if k.shape[0] < 1:
        raise ValueError("need at least one mode")
    if len({tuple(row) for row in k.round(15)}) != k.shape[0]:
        raise ValueError("mode momenta must be pairwise distinct")
    if weights is None:
        w = _default_weights(k)
    else:
        w = np.asarray(weights, dtype=float)
    if w.shape != (k.shape[0],) or np.any(w <= 0):
        raise ValueError("weights must be positive, one per mode")
    return FieldModes(momenta=k, weights=w)


def _default_weights(k: np.ndarray) -> np.ndarray:
    if k.shape[0] == 1:
        return np.ones(1)
    if k.shape[1] == 1:
        x = k[:, 0]
        order = np.argsort(x)
        if not np.all(order == np.arange(len(x))):
            raise ValueError("1-d mode lattice must be sorted for trapezoid weights")
        w = np.empty_like(x)
        w[1:-1] = 0.5 * (x[2:] - x[:-2])
        w[0] = 0.5 * (x[1] - x[0])
        w[-1] = 0.5 * (x[-1] - x[-2])
        return w
    return np.ones(k.shape[0])


def mode_norm(modes: FieldModes, u: np.ndarray) -> float:
    return float(np.sqrt(np.sum(modes.weights * np.abs(u) ** 2).real))


@dataclass(frozen=True, eq=False)
class Dispersion:
    """Per-mode frequencies omega_j >= 0."""

    values: np.ndarray

    @property
    def mass_gap(self) -> float:
        return float(np.min(self.values))

    def require_gap(self, what: str) -> None:
        if self.mass_gap <= 0:
            raise ModelAssumptionError(f"{what} requires a positive mass gap")


def build_dispersion(values: Sequence) -> Dispersion:
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("dispersion values must be finite, got "
                         f"{v[~np.isfinite(v)].tolist()}")
    if np.any(v < 0):
        raise ValueError("dispersion values must be nonnegative")
    return Dispersion(values=v)


# ---------------------------------------------------------------------------
# form factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FormFactor:
    """Coupling tables lambda_p(x; k_j) on the single-particle grid, one per
    particle, each of shape (G^d, K).  The linear families' particles share
    one array; minimal coupling gives each particle its own charges."""

    tables: tuple[np.ndarray, ...]

    def weighted_sup(self, coef: np.ndarray) -> float:
        """max_p max_x sum_j coef_j |lambda_p(x; k_j)|^2."""
        return max(float(np.max(((np.abs(t) ** 2) @ coef).real))
                   for t in self.tables)


def _plane_wave_table(grid: ParticleGrid, modes: FieldModes) -> np.ndarray:
    """exp(-i k_j . x) on the single-particle grid, shape (G^d, K)."""
    x = grid.single_coords  # (S, d)
    phases = x @ modes.momenta.T  # (S, K)
    return np.exp(-1j * phases)


def nelson_form_factor(grid: ParticleGrid, modes: FieldModes,
                       lambda0: Sequence,
                       dispersion: Dispersion | None = None) -> FormFactor:
    """Plane-wave coupling lambda(x; k_j) = lambda0_j exp(-i k_j . x)."""
    lam0 = np.asarray(lambda0, dtype=complex)
    if lam0.shape != (modes.count,):
        raise ValueError("lambda0 must supply one amplitude per mode")
    if not np.all(np.isfinite(lam0)):
        raise ModelAssumptionError("lambda0 must be finite")
    if dispersion is not None:
        bad = (dispersion.values == 0) & (lam0 != 0)
        if np.any(bad):
            raise ModelAssumptionError(
                "sup-norm bound on omega^(-1/2) lambda violated: "
                "nonzero coupling on a zero-frequency mode")
    table = _plane_wave_table(grid, modes) * lam0[None, :]
    return FormFactor((table,) * grid.n_particles)


def polaron_form_factor(grid: ParticleGrid, modes: FieldModes,
                        alpha: float) -> FormFactor:
    """Coupling sqrt(alpha) exp(-i k . x) / |k|^((d-1)/2)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    d = grid.dim
    mags = modes.magnitudes
    if d >= 2 and np.any(mags == 0):
        raise ModelAssumptionError(
            "singular form factor: zero mode present with d >= 2")
    expo = 0.5 * (d - 1)
    with np.errstate(divide="ignore"):
        radial = np.where(mags > 0, mags, 1.0) ** (-expo)
    table = _plane_wave_table(grid, modes) * (np.sqrt(alpha) * radial)[None, :]
    return FormFactor((table,) * grid.n_particles)


def pauli_fierz_form_factor(grid: ParticleGrid, modes: FieldModes,
                            lambda0_per_particle: Sequence[Sequence]) -> FormFactor:
    """Per-particle plane-wave charge couplings for the minimal-coupling family."""
    plane = _plane_wave_table(grid, modes)
    tables = []
    for lam0 in lambda0_per_particle:
        amp = np.asarray(lam0, dtype=complex)
        if amp.shape != (modes.count,):
            raise ValueError("each particle needs one amplitude per mode")
        tables.append(plane * amp[None, :])
    if not tables:
        raise ValueError("need at least one particle table")
    return FormFactor(tuple(tables))


# ---------------------------------------------------------------------------
# model spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ModelSpec:
    family: str
    grid: ParticleGrid
    modes: FieldModes
    dispersion: Dispersion
    form_factor: FormFactor
    external_potential: np.ndarray
    masses: tuple[float, ...] | None = None
    charge: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for key in ("masses", "charge", "alpha"):
            own = key in FAMILIES[self.family]
            if (getattr(self, key) is None) == own:
                raise ValueError(f"{self.family} family "
                                 f"{'needs' if own else 'takes no'} {key}")
        if self.external_potential.shape != (self.grid.total_points,):
            raise ValueError("external potential must be tabulated on the "
                             "full N-particle grid")
        if not np.all(np.isfinite(self.external_potential)):
            raise ValueError("external potential must be finite")
        if np.any(self.external_potential < 0):
            raise ModelAssumptionError("external potential must be >= 0")
        if self.dispersion.values.shape != (self.modes.count,):
            raise ValueError(f"dispersion needs one value per mode "
                             f"({self.modes.count}), got "
                             f"{self.dispersion.values.shape}")
        shape = (self.grid.single_count, self.modes.count)
        shapes = [np.shape(t) for t in self.form_factor.tables]
        if shapes != [shape] * self.grid.n_particles:
            raise ValueError(f"form factor needs {self.grid.n_particles} "
                             f"table(s) of shape {shape}, got {shapes}")
        if self.family == "polaron":
            if not np.allclose(self.dispersion.values, 1.0):
                raise ModelAssumptionError("polaron family forces dispersion == 1")
            if not 0 < self.alpha < np.inf:  # NaN fails both
                raise ValueError("alpha must be positive and finite")
        if self.family == "pauli_fierz":
            if self.grid.dim != 1:
                raise ModelAssumptionError(
                    "minimal coupling is implemented for d = 1 only")
            if len(self.masses) != self.grid.n_particles:
                raise ValueError("pauli_fierz needs one mass per particle")
            if not all(0 < m < np.inf for m in self.masses):
                raise ValueError("masses must be positive and finite")
            if not np.isfinite(self.charge):
                raise ValueError("charge must be finite")
            self.dispersion.require_gap("the minimal-coupling family")

    @property
    def n_modes(self) -> int:
        return self.modes.count

    @cached_property
    def coupling(self):
        """The family's particle-field coupling (qcfield.coupling)."""
        from .coupling import BY_FAMILY  # coupling.py builds on qc_energy
        return BY_FAMILY[self.family]

    def mass_of(self, particle: int) -> float:
        """Particle mass; only pauli_fierz models have masses."""
        return self.masses[particle]

    def kinetic_coefficient(self, particle: int) -> float:
        """Coefficient of the discrete Laplacian for one particle."""
        if self.family == "pauli_fierz":
            return 1.0 / (2.0 * self.mass_of(particle))
        return 1.0


def per_model(build):
    """Decorator: build(spec) once per model and keep the result on the
    frozen spec, as functools.cached_property does; raising keeps nothing."""
    key = f"{build.__module__}.{build.__qualname__}"

    @wraps(build)
    def memoised(spec: ModelSpec):
        if key not in spec.__dict__:
            spec.__dict__[key] = build(spec)
        return spec.__dict__[key]

    return memoised


def make_model(family: str, grid: ParticleGrid, modes: FieldModes,
               dispersion: Dispersion, form_factor: FormFactor,
               external_potential: np.ndarray | str,
               masses: Sequence[float] | None = None,
               charge: float | None = None,
               alpha: float | None = None) -> ModelSpec:
    """Assemble and validate a model instance.

    Zero-frequency modes are admitted only if the coupling vanishes there,
    in which case they are always dropped from the mode set.
    """
    w_pot = resolve_potential(external_potential, grid)
    if np.any(dispersion.values == 0):
        keep = dispersion.values > 0
        for t in form_factor.tables:
            if np.any(np.abs(t[:, ~keep]) > 0):
                raise ModelAssumptionError(
                    "zero-frequency mode with nonzero coupling cannot be dropped")
        modes = FieldModes(momenta=modes.momenta[keep],
                           weights=modes.weights[keep])
        dispersion = Dispersion(values=dispersion.values[keep])
        form_factor = FormFactor(tuple(t[:, keep] for t in form_factor.tables))
    spec = ModelSpec(family=family, grid=grid, modes=modes,
                     dispersion=dispersion, form_factor=form_factor,
                     external_potential=w_pot,
                     masses=tuple(masses) if masses is not None else None,
                     charge=charge, alpha=alpha)
    report = validate_model(spec)
    if not report.passes:
        raise ModelAssumptionError("model validation failed:\n" + report.summary())
    return spec


# ---------------------------------------------------------------------------
# built-in external potentials
# ---------------------------------------------------------------------------

def harmonic_potential(grid: ParticleGrid) -> np.ndarray:
    r2 = np.sum(grid.single_coords ** 2, axis=1)
    return grid.sum_over_particles(r2)


def quartic_potential(grid: ParticleGrid) -> np.ndarray:
    r2 = np.sum(grid.single_coords ** 2, axis=1)
    return grid.sum_over_particles(r2 ** 2)


def zero_potential(grid: ParticleGrid) -> np.ndarray:
    return np.zeros(grid.total_points)


_BUILTIN_POTENTIALS = {
    "harmonic": harmonic_potential,
    "quartic": quartic_potential,
    "zero": zero_potential,
}


def resolve_potential(pot: np.ndarray | str, grid: ParticleGrid) -> np.ndarray:
    if isinstance(pot, str):
        try:
            return _BUILTIN_POTENTIALS[pot](grid)
        except KeyError:
            raise ValueError(f"unknown built-in potential {pot!r}") from None
    arr = np.asarray(pot, dtype=float).ravel()
    return arr


def is_trapping(spec: ModelSpec) -> bool:
    """Declared trapping: the potential is large on the boundary shell.

    The Dirichlet walls already confine every instance; this flag records
    whether the potential itself grows toward the box edge.
    """
    grid = spec.grid
    if grid.total_points == 1:
        return True
    w = spec.external_potential.reshape((grid.points_per_axis,) * grid.n_axes)
    wmax = w.max()
    if wmax <= 0:
        return False
    boundary_min = np.inf
    for ax in range(grid.n_axes):
        for side in (0, -1):
            face = np.take(w, side, axis=ax)
            boundary_min = min(boundary_min, float(face.min()))
    return boundary_min >= 0.5 * wmax


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    name: str
    value: float
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    """Computed family bounds; passes iff every required bound is finite."""

    entries: tuple[BoundCheck, ...]
    passes: bool
    notes: tuple[str, ...] = ()

    def summary(self) -> str:
        lines = [f"  [{'ok' if e.ok else 'FAIL'}] {e.name} = {e.value:.6g}"
                 for e in self.entries]
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)

    def value_of(self, name: str) -> float:
        for e in self.entries:
            if e.name == name:
                return e.value
        raise KeyError(name)


def validate_model(spec: ModelSpec) -> ValidationReport:
    """Check the family-required coupling bounds; never raises.

    Reported values are squared weighted sup-norms, exactly recomputable as
    max_p max_x sum_j w_j |lambda_p(x;k_j)|^2 omega_j^s for s in {0, -1, +1}.
    """
    w = spec.modes.weights
    om = spec.dispersion.values
    form = spec.form_factor
    notes: list[str] = [
        f"modes: {spec.n_modes} user-supplied (lattice choice unvalidated)",
        f"mass gap: {spec.dispersion.mass_gap:.6g}",
    ]

    sup0 = form.weighted_sup(w)
    entries = [BoundCheck("sup|lambda|^2", sup0, np.isfinite(sup0))]
    inv_om = np.where(om > 0, 1.0 / np.where(om > 0, om, 1.0), np.inf)
    coupled = np.any([np.abs(t).max(axis=0) > 0 for t in form.tables], axis=0)
    if np.any(coupled & (om == 0)):
        entries.append(BoundCheck("sup|omega^-1/2 lambda|^2", np.inf, False))
    else:
        supm = form.weighted_sup(w * np.where(coupled, inv_om, 0.0))
        entries.append(BoundCheck("sup|omega^-1/2 lambda|^2", supm,
                                  np.isfinite(supm)))
    if spec.family == "pauli_fierz":
        supp = form.weighted_sup(w * om)
        entries.append(BoundCheck("sup|omega^+1/2 lambda|^2", supp,
                                  np.isfinite(supp)))
        entries.append(BoundCheck("mass gap > 0", spec.dispersion.mass_gap,
                                  spec.dispersion.mass_gap > 0))
    if spec.family == "polaron":
        dev = float(np.max(np.abs(om - 1.0)))
        entries.append(BoundCheck("dispersion == 1 (max deviation)", dev,
                                  dev == 0.0))

    return ValidationReport(entries=tuple(entries),
                            passes=all(e.ok for e in entries),
                            notes=tuple(notes))


# ---------------------------------------------------------------------------
# JSON serialization (versioned; complex numbers as [re, im] pairs)
# ---------------------------------------------------------------------------

MODEL_FORMAT = "qcfield-model"
MODEL_VERSION = 1


def _complex_out(arr: np.ndarray):
    a = np.asarray(arr)
    stacked = np.stack([a.real, a.imag], axis=-1)
    return stacked.tolist()


def _array_in(path: str, data, pairs: bool = False) -> np.ndarray:
    """Finite float array of a model key, complex from [re, im] pairs; a
    malformed entry raises ValueError naming the key."""
    bad = f"model key {path!r} has malformed entries"
    if _holds_bool(data):  # numpy would read true as 1.0
        raise ValueError(bad)
    try:
        a = np.asarray(data, dtype=float)  # null entries become nan
    except (TypeError, ValueError):
        raise ValueError(bad) from None
    if not np.all(np.isfinite(a)) or (pairs and a.shape[-1:] != (2,)):
        raise ValueError(bad)
    return a[..., 0] + 1j * a[..., 1] if pairs else a


def _holds_bool(data) -> bool:
    """True if a JSON value holds a boolean at any depth."""
    if isinstance(data, list):
        return any(map(_holds_bool, data))
    return isinstance(data, bool)


def model_to_json(spec: ModelSpec) -> dict:
    """Version-1 document: "table" holds particle 0's table, "per_particle"
    every table, or null when the particles of a linear family share one."""
    tables = spec.form_factor.tables
    shared = spec.family != "pauli_fierz" \
        and all(np.array_equal(t, tables[0]) for t in tables)
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "family": spec.family,
        "grid": {
            "dim": spec.grid.dim,
            "n_particles": spec.grid.n_particles,
            "extent": spec.grid.extent,
            "points_per_axis": spec.grid.points_per_axis,
        },
        "modes": {
            "momenta": spec.modes.momenta.tolist(),
            "quadrature_weights": spec.modes.weights.tolist(),
        },
        "dispersion": spec.dispersion.values.tolist(),
        "form_factor": {
            "table": _complex_out(tables[0]),
            "per_particle": (None if shared
                             else [_complex_out(t) for t in tables]),
        },
        "external_potential": spec.external_potential.tolist(),
        "masses": list(spec.masses) if spec.masses is not None else None,
        "charge": spec.charge,
        "alpha": spec.alpha,
    }
    return doc


_NUM, _NULL = (int, float), type(None)
_MODEL_KEYS = {  # JSON type of every key, objects before the keys they hold
    "family": str, "grid": dict, "grid.dim": int, "grid.n_particles": int,
    "grid.extent": _NUM, "grid.points_per_axis": int, "modes": dict,
    "modes.momenta": list, "modes.quadrature_weights": list,
    "dispersion": list, "form_factor": dict, "form_factor.table": list,
    "form_factor.per_particle": (list, _NULL), "external_potential": list,
    "masses": (list, _NULL), "charge": (*_NUM, _NULL), "alpha": (*_NUM, _NULL)}


def model_from_json(doc: dict) -> ModelSpec:
    """Model from a version-1 document; a bad key raises ValueError naming it."""
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a model document")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')}")
    v = {}  # value by dotted key path
    for path, kind in _MODEL_KEYS.items():
        parent, _, key = path.rpartition(".")
        node = v[parent] if parent else doc
        if key not in node:
            raise ValueError(f"model key {path!r} is missing")
        # JSON true/false load as bool, which is an int subclass
        if not isinstance(node[key], kind) or isinstance(node[key], bool):
            raise ValueError(f"model key {path!r} has the wrong type "
                             f"({type(node[key]).__name__})")
        v[path] = node[key]
    grid = build_particle_grid(**{k: v[f"grid.{k}"] for k in (
        "dim", "n_particles", "extent", "points_per_axis")})
    table, per_particle = v["form_factor.table"], v["form_factor.per_particle"]
    form = FormFactor(
        (_array_in("form_factor.table", table, pairs=True),) * grid.n_particles
        if per_particle is None else
        tuple(_array_in("form_factor.per_particle", t, pairs=True)
              for t in per_particle))

    def arr(path):
        return _array_in(path, v[path])

    return ModelSpec(
        family=v["family"], grid=grid,
        modes=build_field_modes(arr("modes.momenta"),
                                arr("modes.quadrature_weights")),
        dispersion=build_dispersion(arr("dispersion")), form_factor=form,
        external_potential=arr("external_potential"),
        masses=(tuple(arr("masses").tolist()) if v["masses"] is not None
                else None),
        charge=v["charge"], alpha=v["alpha"])


def save_model(spec: ModelSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json(spec), fh, indent=1)
        fh.write("\n")


def load_model(path) -> ModelSpec:
    with open(path) as fh:
        return model_from_json(json.load(fh))
