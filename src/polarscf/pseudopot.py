"""Frozen-core pseudo-orbitals from the level-shifting pseudopotential.

Adding Σ_c (ε_v − ε_c)|c⟩⟨c| to the converged Fock operator raises every
core level exactly to the valence eigenvalue, so the valence solution
becomes a degenerate family ψ_v + Σ_c a_c ψ_c.  The smoothest member of
that family (minimum kinetic energy) is the nodeless pseudo-orbital; its
eigenvalue must reproduce the all-electron valence eigenvalue, which is
measured honestly here through the Rayleigh quotient of the shifted
operator.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .hfcore import SCFState, _orthonormal_columns, shell_label
from .radial import kinetic_tridiagonal, node_count, tridiag_apply, z_to_u


@dataclass(frozen=True)
class PseudoOrbital:
    """Smooth valence orbital of the level-shifted Fock operator."""

    n: int
    l: int
    u: np.ndarray
    eigenvalue: float
    eigenvalue_allelectron: float
    core_coefficients: tuple
    node_count: int


def pk_solve(state: SCFState, valence) -> PseudoOrbital:
    """Build the nodeless pseudo-orbital for one valence level.

    valence: (n, l) of an occupied shell of the converged state.  Core
    levels are the same-channel shells lying below it.  The shifted
    operator F + Σ_c (ε_v − ε_c)|c⟩⟨c| is degenerate at ε_v on the span of
    the valence and core states, so the solve reduces to picking the
    minimum-kinetic-energy member of that span: a Rayleigh–Ritz step in
    z = √(h·r)·u, where the plain dot product is the mesh measure and the
    metric in which F and the kinetic stencil are symmetric.  The span is
    orthonormalized by `hfcore._orthonormal_columns` (QR through LAPACK,
    R's diagonal positive), the kinetic stencil is applied to that block
    at once, and the 2×2 or larger Ritz matrix is diagonalized densely; the
    chosen member is a unit vector, and the state's orbitals are unit vectors
    too: no norm is taken.  The returned eigenvalue is the full-operator
    Rayleigh quotient of that member, and the core coefficients are its
    overlaps with the core orbitals.
    """
    n_v, l_v = valence
    g = state.grid
    v_idx = None
    for i, o in enumerate(state.orbitals):
        if o.n == n_v and o.l == l_v:
            v_idx = i
            break
    if v_idx is None:
        raise ParameterError(
            f"valence level ({n_v}, {l_v}) not found among occupied shells"
        )
    if not state.converged:
        raise ParameterError("pk_solve needs a converged SCF state")
    eps_v = float(state.eigenvalues[v_idx])
    v_orb = state.orbitals[v_idx]

    cores = [
        (o, float(e))
        for o, e in zip(state.orbitals, state.eigenvalues)
        if o.l == l_v and e < eps_v - 1e-12
    ]
    if not cores:
        # Nothing to project out: the pseudo-orbital IS the valence orbital.
        u = np.array(v_orb.u, dtype=float)
        return PseudoOrbital(
            n=n_v,
            l=l_v,
            u=u,
            eigenvalue=eps_v,
            eigenvalue_allelectron=eps_v,
            core_coefficients=(),
            node_count=node_count(u),
        )

    # minimum-kinetic member of span{valence, cores}: lowest Ritz vector of T
    Z = np.column_stack([v_orb.u] + [o.u for o, _ in cores]) * g.z_scale[:, None]
    Q = _orthonormal_columns(Z)
    diag, off = kinetic_tridiagonal(g, l_v)
    phi = Q @ np.linalg.eigh(Q.T @ tridiag_apply(diag, off, Q))[1][:, 0]
    if phi[np.argmax(np.abs(phi))] < 0:
        phi = -phi

    coefficients = Z[:, 1:].T @ phi
    shifts = np.array([eps_v - e for _, e in cores])
    eps_pk = float(phi @ state.channel_operator(l_v).apply(phi) + shifts @ coefficients**2)

    u_pk = z_to_u(phi, g)
    return PseudoOrbital(
        n=n_v,
        l=l_v,
        u=u_pk,
        eigenvalue=eps_pk,
        eigenvalue_allelectron=eps_v,
        core_coefficients=tuple(float(c) for c in coefficients),
        node_count=node_count(u_pk),
    )


def pseudo_summary(p: PseudoOrbital) -> dict:
    """Plain-data report of a pseudo-orbital solve, in stable field order."""
    return {
        "valence": shell_label(p.n, p.l),
        "eigenvalue_allelectron": p.eigenvalue_allelectron,
        "eigenvalue_pk": p.eigenvalue,
        "node_count": p.node_count,
        "core_coefficients": list(p.core_coefficients),
    }
