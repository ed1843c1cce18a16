"""H_z on its memoised sparsity pattern: each coupling's field_data against
its sparse interaction, the safety of the shared pattern, and that the
operators under H_z are built once per model."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from qcfield import (assemble_hz, assemble_k0, build_dispersion,
                     build_field_modes, build_particle_grid, coupling,
                     eta_pekar, field_z, fock, load_model, make_model,
                     minimize, nelson_form_factor, pauli_fierz_form_factor,
                     presets, random_wavefunction)
from qcfield.errors import SolverError
from qcfield.model import per_model
from qcfield.qc_energy import (complex_normal, effective_potential,
                               hz_pattern, kinetic_matrix, momentum_matrix)

# the module: qcfield re-exports its qc_energy function under the same name
qce = importlib.import_module("qcfield.qc_energy")
DEMO_MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"
SRC = Path(__file__).resolve().parent.parent / "src" / "qcfield"


def _band(mat):
    """Largest |i - j| over the stored entries (i, j) of a sparse matrix."""
    coo = mat.tocoo()
    return int(np.max(np.abs(coo.row - coo.col), initial=0))


def nelson_2d():
    grid = build_particle_grid(2, 1, 3.0, 8)
    modes = build_field_modes([[0.0, 0.0], [0.7, 0.0], [0.0, -0.7]],
                              weights=[1.0, 0.6, 0.6])
    disp = build_dispersion([1.0, 1.3, 1.3])
    form = nelson_form_factor(grid, modes, [0.4, 0.3j, 0.2 - 0.1j])
    return make_model("nelson", grid, modes, disp, form, "harmonic")


def pauli_fierz_pair():
    """Two minimally coupled particles, masses (1, 2.5), distinct tables.
    The spacing h = 0.75 makes P's entries 1/(2h) no power of two, so a
    change in the order of field_data's sum shows in the last bits."""
    grid = build_particle_grid(1, 2, 3.0, 8)
    modes = build_field_modes([[-1.0], [0.0], [1.0]], weights=[0.7, 1.0, 1.3])
    disp = build_dispersion([1.0, 1.2, 1.5])
    form = pauli_fierz_form_factor(
        grid, modes, [[0.4, 0.1, 0.3j], [0.2, -0.5j, -0.3]])
    return make_model("pauli_fierz", grid, modes, disp, form, "harmonic",
                      masses=[1.0, 2.5], charge=0.7)


MODELS = {
    "decoupled_reference": presets.decoupled_reference,
    "cosine_coupled_reference": presets.cosine_coupled_reference,
    "frozen_mode_reference": presets.frozen_mode_reference,
    "frozen_minimal_coupling": presets.frozen_minimal_coupling,
    "small_minimal_coupling": presets.small_minimal_coupling,
    "small_polaron": presets.small_polaron,
    "small_nelson": presets.small_nelson,
    "two_particle_nelson": presets.two_particle_nelson,
    **{f"demo_{path.stem}": (lambda path=path: load_model(path))
       for path in sorted(DEMO_MODELS.glob("*.json"))},
    "nelson_2d": nelson_2d,
    "pauli_fierz_pair": pauli_fierz_pair,
}


def sparse_hz(spec, z):
    """K_0 plus the coupling's interaction at A_p = diag a_z(x_p), built
    with sparse operators."""
    grid = spec.grid

    def field(p):
        a_vals = grid.lift_single(effective_potential(spec, z, p), p)
        return sp.diags(a_vals.astype(complex), format="csr")

    interaction = spec.coupling.interaction(
        spec, field, lambda p: momentum_matrix(grid, p))
    return (assemble_k0(spec).matrix + interaction).tocsr()


def seeded_field(spec, seed):
    return field_z(complex_normal(np.random.default_rng(seed), spec.n_modes))


def test_demo_models_are_all_listed():
    assert len([k for k in MODELS if k.startswith("demo_")]) == 4


@pytest.mark.parametrize("name", sorted(MODELS))
def test_field_data_equals_sparse_interaction(name):
    spec = MODELS[name]()
    for seed in (1, 2, 3):
        z = seeded_field(spec, seed)
        new = assemble_hz(spec, z).matrix
        old = sparse_hz(spec, z)
        assert np.array_equal(new.toarray(), old.toarray())
        # the solver factors the same band on the same real/complex path
        assert _band(new) == _band(old)
        assert np.any(new.data.imag) == np.any(old.data.imag)


def test_pattern_is_k0_plus_diagonal_on_grids():
    """P_p's entries lie inside K_0's pattern, so on G > 1 the pattern adds
    at most the diagonal to K_0's; a frozen site adds the diagonal alone."""
    for make in (presets.small_minimal_coupling, pauli_fierz_pair, nelson_2d,
                 presets.frozen_minimal_coupling):
        spec = make()
        k0 = assemble_k0(spec).matrix
        n = spec.grid.total_points
        union = (abs(k0) + sp.identity(n, format="csr")).tocsr()
        union.sort_indices()
        pattern = hz_pattern(spec)
        assert np.array_equal(pattern.indices, union.indices)
        assert np.array_equal(pattern.indptr, union.indptr)


def test_shared_pattern_is_safe():
    spec = pauli_fierz_pair()
    z1, z2 = seeded_field(spec, 4), seeded_field(spec, 5)
    op = assemble_hz(spec, z1)
    for arr in (op.matrix.indices, op.matrix.indptr):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    pattern = hz_pattern(spec)
    k0_before = pattern.k0_data.copy()
    k0_matrix_before = assemble_k0(spec).matrix.toarray()

    op.matrix.data[:] = 0
    again = assemble_hz(spec, z1).matrix.toarray()
    assert np.array_equal(again, assemble_hz(pauli_fierz_pair(), z1)
                          .matrix.toarray())

    rng = np.random.default_rng(6)
    for _ in range(100):
        assemble_hz(spec, field_z(complex_normal(rng, spec.n_modes)))
    assert np.array_equal(pattern.k0_data, k0_before)
    assert np.array_equal(assemble_k0(spec).matrix.toarray(),
                          k0_matrix_before)

    a, b = assemble_hz(spec, z1).matrix, assemble_hz(spec, z2).matrix
    assert not np.shares_memory(a.data, b.data)
    assert not np.shares_memory(a.data, pattern.k0_data)


def test_memoised_k0_and_its_eigh_are_read_only():
    spec = pauli_fierz_pair()
    k0 = assemble_k0(spec).matrix
    for arr in (k0.data, k0.indices, k0.indptr, *minimize._k0_eigh(spec)):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


@pytest.mark.parametrize("make", [presets.two_particle_nelson,
                                  pauli_fierz_pair])
def test_operators_under_hz_built_once(monkeypatch, make):
    calls = {"kinetic_matrix": 0, "momentum_matrix": 0}
    for name in calls:
        original = getattr(qce, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(qce, name, counted)
    spec = make()
    rng = np.random.default_rng(8)
    for _ in range(50):
        assemble_hz(spec, field_z(complex_normal(rng, spec.n_modes)))
    n = spec.grid.n_particles
    assert 1 <= calls["kinetic_matrix"] <= n
    assert calls["momentum_matrix"] <= n


def test_minimal_b_vector_reuses_the_patterns_momentum(monkeypatch, pf_pair):
    """eta_pekar on a minimal-coupling model applies each P_p from H_z's
    memoised pattern, so it builds no momentum matrix per call."""
    calls = []
    original = qce.momentum_matrix

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(qce, "momentum_matrix", counted)
    monkeypatch.setattr(coupling, "momentum_matrix", counted, raising=False)
    rng = np.random.default_rng(9)
    for _ in range(50):
        eta_pekar(pf_pair, random_wavefunction(pf_pair.grid, rng))
    assert len(calls) <= pf_pair.grid.n_particles


def test_linear_coupling_builds_no_momentum_data(monkeypatch):
    """Only minimal coupling reads P_p on the pattern: minimizing a linearly
    coupled model, and sweeping it, builds no momentum matrix for it."""
    calls = []
    original = qce.momentum_matrix

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(qce, "momentum_matrix", counted)
    spec = presets.two_particle_nelson()
    ref = minimize.alternating_minimize(spec)
    minimize.pekar_minimize(spec)
    assert calls == []
    assert "momentum" not in vars(hz_pattern(spec))
    assert ref.converged


@pytest.mark.parametrize("make", [presets.small_minimal_coupling,
                                  presets.frozen_minimal_coupling,
                                  pauli_fierz_pair])
def test_pattern_momentum_applies_bit_identically(make):
    spec = make()
    pattern = hz_pattern(spec)
    for seed in range(5):
        psi = random_wavefunction(spec.grid, np.random.default_rng(seed))
        for p in range(spec.grid.n_particles):
            expected = momentum_matrix(spec.grid, p) @ psi.values
            got = pattern.csr(pattern.momentum[p]) @ psi.values
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_k0_is_built_on_the_hz_pattern(name):
    """K_0 is the pattern's k0_data on the pattern's own indptr and indices
    (scipy's constructor keeps a view of indices, so its memory is checked),
    and equals the Laplacian plus the potential bit for bit."""
    spec = MODELS[name]()
    k0 = assemble_k0(spec).matrix
    pattern = hz_pattern(spec)
    assert k0.indptr is pattern.indptr
    assert np.shares_memory(k0.indices, pattern.indices)
    assert np.array_equal(k0.indices, pattern.indices)
    assert np.shares_memory(k0.data, pattern.k0_data)
    hz = assemble_hz(spec, seeded_field(spec, 1)).matrix
    assert hz.indptr is k0.indptr
    assert np.shares_memory(hz.indices, k0.indices)
    expected = kinetic_matrix(spec) + sp.diags(
        spec.external_potential.astype(complex), format="csr")
    assert k0.toarray().tobytes() == expected.toarray().tobytes()


def test_per_model_builders_return_the_same_object():
    spec = presets.small_polaron()
    for build in (assemble_k0, hz_pattern, minimize._k0_eigh,
                  minimize._k0_ground, minimize._k0_factor,
                  fock._real_mode_frame):
        assert build(spec) is build(spec)


def test_per_model_keeps_nothing_from_a_failed_build():
    spec = presets.small_polaron()
    builds = []

    @per_model
    def flaky(spec):
        builds.append(spec)
        if len(builds) == 1:
            raise SolverError("the first build fails")
        return object()

    before = dict(vars(spec))
    with pytest.raises(SolverError):
        flaky(spec)
    assert vars(spec) == before
    built = flaky(spec)
    assert flaky(spec) is built
    assert len(builds) == 2


def _functions(tree):
    """(qualified name, first line, last line) of every top-level function
    and method of a module."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for item in members:
            if isinstance(item, ast.FunctionDef):
                yield f"{prefix}{item.name}", item.lineno, item.end_lineno


def test_only_per_model_memoises_on_the_spec():
    """A per-model memo goes through model.per_model: __dict__ appears in
    the package only there and in FockBasis.leading_block, which seeds the
    cut basis's lowering index."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        functions = list(_functions(ast.parse(text)))
        for lineno, line in enumerate(text.splitlines(), 1):
            if "__dict__" in line:
                found.add((path.name, next(
                    (name for name, first, last in functions
                     if first <= lineno <= last), None)))
    assert found == {("model.py", "per_model"),
                     ("fock.py", "FockBasis.leading_block")}
