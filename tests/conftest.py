import time

import pytest

from polarscf.hfcore import AtomConfig, GridParams, scf_solve
from polarscf.radial import kinetic_tridiagonal, tridiag_apply, u_to_z


def virial_residual(state):
    """−V/T − 2 of a solved state: zero at a stationary point of a Coulomb mean field.

    T = Σ q·z·(T_l z) on the `kinetic_tridiagonal` stencil, V = E − T.
    """
    g, T = state.grid, 0.0
    for o in state.orbitals:
        z = u_to_z(o.u, g)
        T += o.occupation * float(z @ tridiag_apply(*kinetic_tridiagonal(g, o.l), z))
    return -(state.total_energy - T) / T - 2.0


def _timed_solve(cfg):
    t0 = time.monotonic()
    state = scf_solve(cfg)
    return state, time.monotonic() - t0


@pytest.fixture(scope="session")
def h_run():
    """Hydrogen 1s^1 ground state and its wall-clock solve time."""
    return _timed_solve(AtomConfig(z=1.0, shells=((1, 0, 1),)))


@pytest.fixture(scope="session")
def he_run():
    """Helium 1s^2 closed shell and its wall-clock solve time."""
    return _timed_solve(AtomConfig(z=2.0, shells=((1, 0, 2),)))


@pytest.fixture(scope="session")
def li_run():
    """Lithium 1s^2 2s^1 and its wall-clock solve time."""
    return _timed_solve(AtomConfig(z=3.0, shells=((1, 0, 2), (2, 0, 1))))


@pytest.fixture(scope="session")
def n_run():
    """Nitrogen 1s^2 2s^2 2p^3: s and p channels, half-filled p shell."""
    return _timed_solve(
        AtomConfig(
            z=7.0,
            shells=((1, 0, 2), (2, 0, 2), (2, 1, 3)),
            grid=GridParams(n_points=400),
        )
    )
