"""Hole-energy bookkeeping, core projection, level-shifted valence solve."""

import copy

import numpy as np
import pytest

from polarscf.errors import ParameterError, PreconditionError
from polarscf.hfcore import AtomConfig, GridParams, scf_solve
from polarscf.pseudopot import (
    CoreProjector,
    core_project,
    frozen_atom_shift,
    hole_energy,
    hole_energy_matrix,
    pk_solve,
    pseudo_summary,
)
from polarscf.radial import (
    RadialOrbital,
    hydrogenic_orbital,
    inner,
    kinetic_apply,
    make_grid,
    node_count,
)

LADDER = [-0.5 / n**2 for n in (1, 2, 3, 4)]


def test_hole_energy_ladder():
    # moving the electron up one rung costs 0.375 hartree
    assert hole_energy(LADDER, 1, 0) == pytest.approx(-0.375, abs=0.0)
    assert hole_energy(LADDER, 0, 1) == pytest.approx(0.375, abs=0.0)
    assert hole_energy(LADDER, 2, 2) == 0.0


def test_hole_energy_index_errors():
    with pytest.raises(ParameterError):
        hole_energy(LADDER, 4, 0)
    with pytest.raises(ParameterError):
        hole_energy(LADDER, 0, -1)


def test_hole_energy_matrix_structure():
    M = hole_energy_matrix(LADDER).values
    assert M.shape == (4, 4)
    assert np.array_equal(np.diag(M), np.zeros(4))
    assert np.array_equal(M, -M.T)
    assert M[1, 0] == pytest.approx(-0.375, abs=0.0)


def test_frozen_atom_shift_values(h_run):
    state, _ = h_run
    shifts = frozen_atom_shift(state, 0)
    assert shifts.shape == (1,)
    assert shifts[0] == 0.0


def test_frozen_atom_shift_ladder_signs(li_run):
    state, _ = li_run
    shifts = frozen_atom_shift(state, 0)
    # entry j is eps_0 - eps_j: zero on itself, negative toward the
    # higher-lying 2s (hole-energy sign convention)
    assert shifts[0] == 0.0
    assert shifts[1] == pytest.approx(
        state.eigenvalues[0] - state.eigenvalues[1], abs=0.0
    )
    assert shifts[1] < 0.0
    # invariant under a global eigenvalue offset
    shifted = copy.deepcopy(state)
    shifted.eigenvalues = [e + 3.7 for e in state.eigenvalues]
    assert np.allclose(frozen_atom_shift(shifted, 0), shifts, atol=1e-12)


def test_frozen_atom_shift_preconditions(h_run):
    state, _ = h_run
    broken = copy.deepcopy(state)
    broken.converged = False
    with pytest.raises(PreconditionError):
        frozen_atom_shift(broken, 0)
    with pytest.raises(ParameterError):
        frozen_atom_shift(state, 5)


# ---------------------------------------------------------------------------
# core projector


@pytest.fixture(scope="module")
def toy_core():
    g = make_grid(1e-5, 40.0, 400)
    cores = [
        RadialOrbital(u=hydrogenic_orbital(2.0, n, 0, g).u, n=n, l=0)
        for n in (1, 2)
    ]
    return g, cores


def test_projector_matrix_invariants(toy_core):
    g, cores = toy_core
    P = CoreProjector.build(cores, g)
    assert P.rank == 2
    M = P.matrix
    assert np.max(np.abs(M @ M - M)) < 1e-12
    assert np.max(np.abs(M - M.T)) < 1e-12
    eigs = np.sort(np.linalg.eigvalsh(M))
    assert np.sum(eigs > 0.5) == 2  # rank equals the core count
    assert np.max(np.abs(eigs[-2:] - 1.0)) < 1e-12


def test_projector_split_is_orthogonal(toy_core):
    g, cores = toy_core
    P = CoreProjector.build(cores, g)
    psi = RadialOrbital(u=hydrogenic_orbital(2.0, 3, 0, g).u, n=3, l=0)
    inside, outside = core_project(P, psi)
    assert np.max(np.abs(inside + outside - psi.u)) < 1e-14
    for c in cores:
        assert abs(np.sum(g.weights * c.u * outside)) < 1e-10


def test_projector_channel_mismatch(toy_core):
    g, cores = toy_core
    P = CoreProjector.build(cores, g)
    psi = RadialOrbital(u=hydrogenic_orbital(2.0, 2, 1, g).u, n=2, l=1)
    with pytest.raises(ParameterError):
        core_project(P, psi)


def test_projector_rejects_mixed_channels(toy_core):
    g, _ = toy_core
    mixed = [
        RadialOrbital(u=hydrogenic_orbital(2.0, 1, 0, g).u, n=1, l=0),
        RadialOrbital(u=hydrogenic_orbital(2.0, 2, 1, g).u, n=2, l=1),
    ]
    with pytest.raises(ParameterError):
        CoreProjector.build(mixed, g)


def test_projector_rejects_dependent_cores(toy_core):
    g, cores = toy_core
    with pytest.raises(ParameterError):
        CoreProjector.build([cores[0], cores[0]], g)


def test_empty_projector(toy_core):
    g, _ = toy_core
    P = CoreProjector.build([], g, l=0)
    assert P.rank == 0
    psi = RadialOrbital(u=hydrogenic_orbital(2.0, 1, 0, g).u, n=1, l=0)
    inside, outside = core_project(P, psi)
    assert np.array_equal(inside, np.zeros(g.N))
    assert np.array_equal(outside, psi.u)


# ---------------------------------------------------------------------------
# level-shifted valence solve


def test_pk_lithium_invariance(li_run):
    """The shifted operator reproduces the valence eigenvalue untouched."""
    state, _ = li_run
    p = pk_solve(state, (2, 0))
    assert abs(p.eigenvalue - p.eigenvalue_allelectron) < 1e-10
    assert p.eigenvalue_allelectron == state.eigenvalues[1]


def test_pk_lithium_nodeless(li_run):
    state, _ = li_run
    p = pk_solve(state, (2, 0))
    assert p.node_count == 0
    assert node_count(state.orbitals[1].u) == 1
    assert p.core_radius > 0.0  # the all-electron 2s node sits well outside r=0
    g = state.grid
    assert abs(float(np.sum(g.weights * p.u * p.u)) - 1.0) < 1e-12


def test_pk_lithium_decomposition(li_run):
    """pseudo = core-free remainder + a_c * core reproduces itself."""
    state, _ = li_run
    g = state.grid
    p = pk_solve(state, (2, 0))
    assert len(p.core_coefficients) == 1
    core = CoreProjector.build([state.orbitals[0]], g)
    pseudo = RadialOrbital(u=p.u, n=2, l=0)
    inside, outside = core_project(core, pseudo)
    recon = outside + p.core_coefficients[0] * state.orbitals[0].u
    assert np.max(np.abs(recon - p.u)) < 1e-8


def test_pk_sodium_two_cores():
    """Na 3s over the 1s and 2s cores: same level, nodeless, in the span, smoother."""
    state = scf_solve(
        AtomConfig(
            z=11.0,
            shells=((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 1)),
            grid=GridParams(n_points=400),
        )
    )
    g = state.grid
    s_orbitals = {o.n: o for o in state.orbitals if o.l == 0}
    p = pk_solve(state, (3, 0))
    assert len(p.core_coefficients) == 2
    assert abs(p.eigenvalue - p.eigenvalue_allelectron) <= 1e-10
    assert p.node_count == 0
    span = CoreProjector.build([s_orbitals[n] for n in (3, 1, 2)], g)
    pseudo = RadialOrbital(u=p.u, n=3, l=0)
    _, outside = core_project(span, pseudo)
    assert np.max(np.abs(outside)) <= 1e-8
    valence = s_orbitals[3]
    kinetic_pk = inner(p.u, kinetic_apply(pseudo, g), g)
    assert kinetic_pk <= inner(valence.u, kinetic_apply(valence, g), g)


def test_pk_hydrogen_is_identity(h_run):
    """No core levels: the pseudo-orbital is the stored orbital, bitwise."""
    state, _ = h_run
    p = pk_solve(state, (1, 0))
    assert np.array_equal(p.u, state.orbitals[0].u)
    assert p.eigenvalue == state.eigenvalues[0]
    assert p.core_coefficients == ()


def test_pk_unknown_valence(li_run):
    state, _ = li_run
    with pytest.raises(ParameterError):
        pk_solve(state, (3, 0))


def test_pk_requires_convergence(li_run):
    state, _ = li_run
    broken = copy.deepcopy(state)
    broken.converged = False
    with pytest.raises(PreconditionError):
        pk_solve(broken, (2, 0))


def test_pseudo_summary_fields(li_run):
    state, _ = li_run
    doc = pseudo_summary(pk_solve(state, (2, 0)))
    assert list(doc.keys()) == [
        "valence",
        "eigenvalue_allelectron",
        "eigenvalue_pk",
        "node_count",
        "core_coefficients",
    ]
    assert doc["valence"] == "2s"
    assert doc["node_count"] == 0
