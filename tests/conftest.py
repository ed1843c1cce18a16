import contextlib
import functools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qcfield import (alternating_minimize, build_dispersion,
                     build_field_modes, build_particle_grid, make_model,
                     minimize, pauli_fierz_form_factor, pekar_minimize)
from qcfield.presets import (cosine_coupled_reference, decoupled_reference,
                             frozen_minimal_coupling, frozen_mode_reference,
                             small_minimal_coupling, small_nelson,
                             small_polaron, soliton_polaron,
                             two_particle_nelson)


@pytest.fixture(scope="session")
def decoupled():
    return decoupled_reference()


@pytest.fixture(scope="session")
def cosine():
    return cosine_coupled_reference()


@pytest.fixture(scope="session")
def frozen_mode():
    return frozen_mode_reference(g=0.3, omega=2.0)


@pytest.fixture(scope="session")
def frozen_pf():
    return frozen_minimal_coupling(charge=0.3, mass=1.0, amplitude=0.7)


@pytest.fixture(scope="session")
def nelson_small():
    return small_nelson()


@pytest.fixture(scope="session")
def polaron_small():
    return small_polaron()


@pytest.fixture(scope="session")
def pf_small():
    return small_minimal_coupling()


@pytest.fixture(scope="session")
def nelson_pair():
    return two_particle_nelson()


@pytest.fixture(scope="session")
def pf_pair():
    """Two minimally coupled particles with different masses and couplings."""
    grid = build_particle_grid(1, 2, 4.0, 8)
    modes = build_field_modes([[-1.0], [1.0]], weights=[0.7, 1.3])
    disp = build_dispersion([1.0, 1.5])
    form = pauli_fierz_form_factor(grid, modes, [[0.4, 0.3j], [0.2, -0.5]])
    return make_model("pauli_fierz", grid, modes, disp, form, "harmonic",
                      masses=[1.0, 2.0], charge=0.3)


@pytest.fixture(scope="session")
def decoupled_min(decoupled):
    res = alternating_minimize(decoupled)
    assert res.converged
    return res


@pytest.fixture(scope="session")
def cosine_min(cosine):
    res = alternating_minimize(cosine)
    assert res.converged
    return res


@pytest.fixture(scope="session")
def decoupled_pekar(decoupled):
    res = pekar_minimize(decoupled)
    assert res.converged
    return res


@pytest.fixture(scope="session")
def soliton():
    """soliton_polaron, one model per grid size."""
    return functools.cache(soliton_polaron)


@pytest.fixture(scope="session")
def spy_lobpcg():
    """A context manager that yields the list of (work dtype, start dtype,
    steps) of every minimize._lobpcg run inside it, in order; a step
    applies the preconditioner once.  Session-scoped, so module fixtures
    can record a solve once for several tests."""

    @contextlib.contextmanager
    def spy():
        runs = []
        lobpcg = minimize._lobpcg

        def recorded(work, start, preconditioner, tol):
            steps = 0

            def counted(x):
                nonlocal steps
                steps += 1
                return preconditioner(x)

            result = lobpcg(work, start, counted, tol)
            runs.append((work.dtype, start.dtype, steps))
            return result

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(minimize, "_lobpcg", recorded)
            yield runs

    return spy
