import numpy as np
import pytest

from qcfield import (CapacityError, ModelAssumptionError, build_dispersion,
                     build_field_modes, build_particle_grid, load_model,
                     make_model, mode_norm, model_from_json, model_to_json,
                     nelson_form_factor, pauli_fierz_form_factor,
                     polaron_form_factor, save_model, validate_model)
from qcfield import model
from qcfield.model import is_trapping
from qcfield.presets import decoupled_reference, small_polaron


def test_grid_arithmetic():
    grid = build_particle_grid(1, 1, 8.0, 64)
    assert grid.spacing == 0.25
    assert grid.total_points == 64
    assert grid.spacing * grid.points_per_axis == 2 * grid.extent


def test_grid_two_particles():
    grid = build_particle_grid(1, 2, 4.0, 16)
    assert grid.total_points == 256


def test_grid_memory_cap(monkeypatch):
    monkeypatch.setattr(model, "DEFAULT_GRID_CAP", 10 ** 6)
    with pytest.raises(CapacityError):
        build_particle_grid(2, 2, 4.0, 64)


def test_grid_preconditions():
    with pytest.raises(ValueError):
        build_particle_grid(3, 1, 4.0, 16)
    with pytest.raises(ValueError):
        build_particle_grid(1, 1, 4.0, 6)   # below the minimum
    with pytest.raises(ValueError):
        build_particle_grid(1, 1, 4.0, 9)   # odd
    with pytest.raises(ValueError):
        build_particle_grid(1, 1, -1.0, 16)


def test_grid_spacing_times_points_property():
    for g, l in [(8, 1.0), (16, 3.5), (64, 8.0), (32, 0.25)]:
        grid = build_particle_grid(1, 1, l, g)
        assert grid.spacing * grid.points_per_axis == pytest.approx(2 * l,
                                                                    rel=1e-15)


def test_nelson_form_factor_zero_coupling():
    grid = build_particle_grid(1, 1, 8.0, 64)
    modes = build_field_modes([[0.0]], weights=[1.0])
    ff = nelson_form_factor(grid, modes, [0.0])
    assert np.all(ff.tables[0] == 0)


def test_nelson_form_factor_constant_mode():
    grid = build_particle_grid(1, 1, 8.0, 64)
    modes = build_field_modes([[0.0]], weights=[1.0])
    ff = nelson_form_factor(grid, modes, [0.5])
    assert np.allclose(ff.tables[0], 0.5)


def test_nelson_form_factor_unit_modulus_phase():
    grid = build_particle_grid(1, 1, 8.0, 64)
    modes = build_field_modes([[1.0]], weights=[1.0])
    ff = nelson_form_factor(grid, modes, [0.5])
    x = grid.axis_coords
    assert np.allclose(ff.tables[0][:, 0], 0.5 * np.exp(-1j * x))
    assert np.allclose(np.abs(ff.tables[0]), 0.5)


def test_nelson_zero_mode_with_coupling_rejected():
    grid = build_particle_grid(1, 1, 8.0, 16)
    modes = build_field_modes([[0.0], [1.0]], weights=[1.0, 1.0])
    disp = build_dispersion([0.0, 1.0])
    with pytest.raises(ModelAssumptionError):
        nelson_form_factor(grid, modes, [0.3, 0.3], dispersion=disp)


def test_polaron_flat_modulus_in_1d():
    grid = build_particle_grid(1, 1, 4.0, 16)
    modes = build_field_modes([[-1.5], [0.5], [2.0]])
    ff = polaron_form_factor(grid, modes, alpha=2.0)
    assert np.allclose(np.abs(ff.tables[0]), np.sqrt(2.0))


def test_polaron_modulus_2d():
    grid = build_particle_grid(2, 1, 2.0, 8)
    modes = build_field_modes([[2.0, 0.0]], weights=[1.0])
    ff = polaron_form_factor(grid, modes, alpha=4.0)
    assert np.allclose(np.abs(ff.tables[0]), 2.0 / np.sqrt(2.0))


def test_polaron_zero_mode_2d_rejected():
    grid = build_particle_grid(2, 1, 2.0, 8)
    modes = build_field_modes([[0.0, 0.0]], weights=[1.0])
    with pytest.raises(ModelAssumptionError):
        polaron_form_factor(grid, modes, alpha=1.0)


def test_validation_report_values_recomputable():
    spec = decoupled_reference()
    report = validate_model(spec)
    assert report.passes
    w = spec.modes.weights
    om = spec.dispersion.values
    expected = np.max((np.abs(spec.form_factor.tables[0]) ** 2 @ (w / om)).real)
    assert report.value_of("sup|omega^-1/2 lambda|^2") == expected


def test_validation_fails_on_zero_frequency_coupling():
    grid = build_particle_grid(1, 1, 8.0, 16)
    modes = build_field_modes([[0.0], [1.0]], weights=[1.0, 1.0])
    disp = build_dispersion([0.0, 1.0])
    ff = nelson_form_factor(grid, modes, [0.3, 0.3])
    from qcfield.model import ModelSpec
    spec = ModelSpec(family="nelson", grid=grid, modes=modes, dispersion=disp,
                     form_factor=ff,
                     external_potential=np.zeros(grid.total_points))
    report = validate_model(spec)
    assert not report.passes


def test_zero_modes_dropped_when_uncoupled():
    grid = build_particle_grid(1, 1, 8.0, 16)
    modes = build_field_modes([[0.0], [1.0]], weights=[1.0, 1.0])
    disp = build_dispersion([0.0, 1.0])
    ff = nelson_form_factor(grid, modes, [0.0, 0.3], dispersion=disp)
    spec = make_model("nelson", grid, modes, disp, ff, "harmonic")
    assert spec.n_modes == 1
    assert spec.dispersion.mass_gap == 1.0


def test_polaron_requires_unit_dispersion():
    grid = build_particle_grid(1, 1, 4.0, 16)
    modes = build_field_modes([[1.0]], weights=[1.0])
    disp = build_dispersion([2.0])
    ff = polaron_form_factor(grid, modes, alpha=1.0)
    with pytest.raises(ModelAssumptionError):
        make_model("polaron", grid, modes, disp, ff, "zero", alpha=1.0)


def _family_model(family, **extra):
    """A valid one-mode model of the family on a 16-point grid, with extra
    keyword arguments to make_model on top of the family's own."""
    grid = build_particle_grid(1, 1, 4.0, 16)
    modes = build_field_modes([[1.0]], weights=[1.0])
    own = {"nelson": (nelson_form_factor(grid, modes, [0.1]), {}),
           "polaron": (polaron_form_factor(grid, modes, 0.5),
                       dict(alpha=0.5)),
           "pauli_fierz": (pauli_fierz_form_factor(grid, modes, [[0.3]]),
                           dict(masses=[1.0], charge=0.3))}
    form, kwargs = own[family]
    kwargs = {"external_potential": "harmonic", **kwargs, **extra}
    return make_model(family, grid, modes, build_dispersion([1.0]), form,
                      **kwargs)


@pytest.mark.parametrize("family, extra", [
    ("nelson", dict(masses=[7.0])), ("nelson", dict(charge=3.0)),
    ("nelson", dict(alpha=2.0)), ("polaron", dict(masses=[1.0])),
    ("polaron", dict(charge=0.5)), ("pauli_fierz", dict(alpha=2.0))])
def test_make_model_refuses_keys_of_another_family(family, extra):
    _family_model(family)  # the family's own keys are accepted
    with pytest.raises(ValueError, match=f"{family} family takes no "
                                         f"{next(iter(extra))}"):
        _family_model(family, **extra)


def test_negative_potential_rejected():
    grid = build_particle_grid(1, 1, 4.0, 16)
    modes = build_field_modes([[1.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    ff = nelson_form_factor(grid, modes, [0.1])
    with pytest.raises(ModelAssumptionError):
        make_model("nelson", grid, modes, disp, ff,
                   -np.ones(grid.total_points))


def test_trapping_declared():
    assert is_trapping(decoupled_reference())
    grid = build_particle_grid(1, 1, 4.0, 16)
    modes = build_field_modes([[1.0]], weights=[1.0])
    disp = build_dispersion([1.0])
    ff = nelson_form_factor(grid, modes, [0.1])
    flat = make_model("nelson", grid, modes, disp, ff, "zero")
    assert not is_trapping(flat)


def test_json_round_trip(tmp_path, pf_pair):
    for spec in (decoupled_reference(), small_polaron(), pf_pair):
        doc = model_to_json(spec)
        back = model_from_json(doc)
        assert back.family == spec.family
        assert len(back.form_factor.tables) == spec.grid.n_particles
        for got, want in zip(back.form_factor.tables, spec.form_factor.tables):
            assert np.array_equal(got, want)
        assert np.array_equal(back.external_potential, spec.external_potential)
        assert np.array_equal(back.modes.weights, spec.modes.weights)
    path = tmp_path / "model.json"
    save_model(decoupled_reference(), path)
    loaded = load_model(path)
    assert loaded.grid.points_per_axis == 64
    assert mode_norm(loaded.modes, loaded.form_factor.tables[0][0]) == 0.5


@pytest.mark.parametrize("family, extra, message", [
    ("polaron", dict(alpha=np.nan), "alpha must be positive and finite"),
    ("polaron", dict(alpha=np.inf), "alpha must be positive and finite"),
    ("pauli_fierz", dict(charge=np.nan), "charge must be finite"),
    ("pauli_fierz", dict(charge=-np.inf), "charge must be finite"),
    ("pauli_fierz", dict(masses=[np.nan]),
     "masses must be positive and finite"),
    ("pauli_fierz", dict(masses=[np.inf]),
     "masses must be positive and finite"),
    ("nelson", dict(external_potential=np.where(np.arange(16) == 3, np.nan,
                                                1.0)),
     "external potential must be finite"),
    ("nelson", dict(external_potential=np.where(np.arange(16) == 3, np.inf,
                                                1.0)),
     "external potential must be finite")])
def test_non_finite_model_value_refused(family, extra, message):
    """make_model refuses a NaN or infinite alpha, charge, mass or
    potential entry by name: each comparison with 0 is false for NaN."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        _family_model(family, **extra)


@pytest.mark.parametrize("values, named", [
    ([np.inf], r"\[inf\]"), ([1.0, np.nan], r"\[nan\]"),
    ([-np.inf, 2.0], r"\[-inf\]")])
def test_non_finite_dispersion_refused(values, named):
    """build_dispersion names the non-finite frequencies: NaN passes the
    comparison with 0, and omega = inf made alternating_minimize return a
    NaN energy."""
    with pytest.raises(ValueError, match=f"must be finite, got {named}$"):
        build_dispersion(values)


def test_trapezoid_default_weights():
    modes = build_field_modes([[-1.0], [0.0], [2.0]])
    assert np.allclose(modes.weights, [0.5, 1.5, 1.0])


@pytest.mark.parametrize("preset, path, value", [
    ("frozen", "grid.dim", True), ("frozen", "grid.n_particles", True),
    ("frozen", "grid.points_per_axis", True), ("frozen", "grid.extent", True),
    ("frozen_pf", "charge", False), ("polaron", "alpha", True)])
def test_json_boolean_is_not_a_number(preset, path, value, frozen_mode,
                                      frozen_pf, polaron_small):
    """JSON true/false are Python bools, and bool is an int subclass: a
    boolean in a numeric key is refused with the key named."""
    spec = {"frozen": frozen_mode, "frozen_pf": frozen_pf,
            "polaron": polaron_small}[preset]
    doc = model_to_json(spec)
    parent, _, key = path.rpartition(".")
    (doc[parent] if parent else doc)[key] = value
    with pytest.raises(ValueError, match=f"model key '{path}' has the "
                                         f"wrong type \\(bool\\)"):
        model_from_json(doc)


@pytest.mark.parametrize("preset, path, entry", [
    ("frozen", "dispersion", [True]),
    ("frozen", "modes.quadrature_weights", [True]),
    ("frozen", "form_factor.table", [[[True, False]]]),
    ("frozen_pf", "masses", [True]),
    ("polaron", "external_potential", None),
    ("pf_pair", "form_factor.per_particle", None)])
def test_json_boolean_inside_an_array_is_refused(preset, path, entry,
                                                 frozen_mode, frozen_pf,
                                                 polaron_small, pf_pair):
    """numpy reads true as 1.0, and a list mixing true with numbers as
    floats: a boolean at any depth of an array key is refused by name."""
    spec = {"frozen": frozen_mode, "frozen_pf": frozen_pf,
            "polaron": polaron_small, "pf_pair": pf_pair}[preset]
    doc = model_to_json(spec)
    parent, _, key = path.rpartition(".")
    node = doc[parent] if parent else doc
    if entry is None:  # one boolean among numbers, deep in the array
        entry = node[key]
        inner = entry
        while isinstance(inner[-1], list):
            inner = inner[-1]
        inner[0] = True
    node[key] = entry
    with pytest.raises(ValueError, match=f"model key '{path}' has "
                                         f"malformed entries"):
        model_from_json(doc)
