"""Level-shifted valence solve: the nodeless pseudo-orbital and its level."""

from dataclasses import replace

import numpy as np
import pytest

from polarscf.errors import ParameterError, PreconditionError
from polarscf.hfcore import AtomConfig, GridParams, scf_solve
from polarscf.pseudopot import pk_solve, pseudo_summary
from polarscf.radial import kinetic_tridiagonal, node_count, tridiag_apply, u_to_z, z_to_u


def _outside_span(u, orbitals, g):
    """The part of u orthogonal to the orbitals' span, in the z = √(h·r)·u metric."""
    Q = np.linalg.qr(np.column_stack([u_to_z(o.u, g) for o in orbitals]))[0]
    z = u_to_z(u, g)
    return z_to_u(z - Q @ (Q.T @ z), g)


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
    g = state.grid
    z = u_to_z(p.u, g)
    assert abs(float(z @ z) - 1.0) < 1e-12


def test_pk_lithium_decomposition(li_run):
    """pseudo = core-free remainder + a_c * core reproduces itself."""
    state, _ = li_run
    g = state.grid
    p = pk_solve(state, (2, 0))
    assert len(p.core_coefficients) == 1
    outside = _outside_span(p.u, [state.orbitals[0]], g)
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
    outside = _outside_span(p.u, [s_orbitals[n] for n in (3, 1, 2)], g)
    assert np.max(np.abs(outside)) <= 1e-8
    diag, off = kinetic_tridiagonal(g, 0)
    z_pk, z_v = u_to_z(p.u, g), u_to_z(s_orbitals[3].u, g)
    assert z_pk @ tridiag_apply(diag, off, z_pk) <= z_v @ tridiag_apply(diag, off, z_v)


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
    broken = replace(state, converged=False)
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
