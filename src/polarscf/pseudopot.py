"""Core-hole level shifts and frozen-core pseudo-orbital construction.

Two pieces live here.  The first is plain bookkeeping: energy costs of
moving an electron between mean-field levels, and the per-channel shift
spectrum of a "frozen atom" whose orbitals are held fixed while one
electron is displaced.

The second is the level-shifting pseudopotential: adding
Σ_c (ε_v − ε_c)|c⟩⟨c| to the converged Fock operator raises every core
level exactly to the valence eigenvalue, so the valence solution becomes a
degenerate family ψ_v + Σ_c a_c ψ_c.  The smoothest member of that family
(minimum kinetic energy) is the nodeless pseudo-orbital; its eigenvalue
must reproduce the all-electron valence eigenvalue, which is measured
honestly here through the Rayleigh quotient of the shifted operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, PreconditionError, ShapeError
from .hfcore import SCFState, shell_label
from .radial import (
    RadialGrid,
    RadialOrbital,
    kinetic_tridiagonal,
    node_count,
    sign_flips,
    tridiag_apply,
    u_to_z,
    z_to_u,
)


def hole_energy(eigs, j: int, i: int) -> float:
    """Work to move an electron from level i into level j: −(ε_j − ε_i)."""
    eigs = np.asarray(eigs, dtype=float)
    for idx in (j, i):
        if not (0 <= idx < eigs.size):
            raise ParameterError(
                f"level index {idx} out of range for {eigs.size} eigenvalues"
            )
    return float(-(eigs[j] - eigs[i]))


@dataclass(frozen=True)
class HoleEnergyMatrix:
    """Antisymmetric matrix of level-shift energies, −(ε_j − ε_i) at [j, i]."""

    values: np.ndarray


def hole_energy_matrix(eigs) -> HoleEnergyMatrix:
    e = np.asarray(eigs, dtype=float)
    return HoleEnergyMatrix(values=-(e[:, None] - e[None, :]))


def frozen_atom_shift(state: SCFState, m: int):
    """Level-shift spectrum for orbital m against every channel of the state.

    Entry j is ε_m − ε_j: the polarization correction a hole in channel j
    contributes when the orbitals themselves are held frozen.  Differences
    only, so a global eigenvalue offset drops out.
    """
    if not state.converged:
        raise PreconditionError("frozen_atom_shift needs a converged SCF state")
    eigs = np.asarray(state.eigenvalues, dtype=float)
    if not (0 <= m < eigs.size):
        raise ParameterError(f"orbital index {m} out of range for {eigs.size} levels")
    return eigs[m] - eigs


# ---------------------------------------------------------------------------
# projector onto a core subspace


@dataclass(frozen=True)
class CoreProjector:
    """Orthogonal projector onto the span of core orbitals of one l-channel.

    The stored basis is Löwdin-orthonormalized under the mesh inner product,
    which makes the projector exact even if the inputs carry small
    orthonormality dust.  `matrix` renders it in half-weighted coordinates
    (where the mesh inner product is the plain dot), so idempotency and
    symmetry are visible as ordinary matrix identities.
    """

    orbitals: tuple
    grid: RadialGrid
    l: int

    @classmethod
    def build(cls, orbitals, g: RadialGrid, l: int | None = None) -> "CoreProjector":
        orbitals = tuple(orbitals)
        if orbitals:
            channel = {o.l for o in orbitals}
            if len(channel) != 1:
                raise ParameterError(
                    f"core orbitals span several l-channels: {sorted(channel)}"
                )
            inferred = orbitals[0].l
            if l is not None and l != inferred:
                raise ParameterError(f"core orbitals have l={inferred}, expected l={l}")
            l = inferred
        elif l is None:
            raise ParameterError("empty core set needs an explicit l-channel")
        proj = cls(orbitals=orbitals, grid=g, l=l)
        proj._basis  # fail at construction if the core set is degenerate
        return proj

    @property
    def rank(self) -> int:
        return len(self.orbitals)

    @cached_property
    def _basis(self):
        """Core functions as rows, Löwdin-orthonormalized under the mesh."""
        if not self.orbitals:
            return np.zeros((0, self.grid.N))
        C = np.array([o.u for o in self.orbitals], dtype=float)
        w = self.grid.weights
        gram = (C * w) @ C.T
        vals, vecs = np.linalg.eigh(gram)
        if vals.min() <= 1e-12:
            raise ParameterError("core orbitals are (numerically) linearly dependent")
        inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
        return inv_sqrt @ C

    @cached_property
    def matrix(self):
        sw = np.sqrt(self.grid.weights)
        H = self._basis * sw
        return H.T @ H

    def coefficients(self, values):
        """Mesh inner products of the orthonormal core basis with a function."""
        return (self._basis * self.grid.weights) @ np.asarray(values, dtype=float)


def core_project(core: CoreProjector, psi: RadialOrbital):
    """Split an orbital into its core component and core-free remainder."""
    if psi.l != core.l:
        raise ParameterError(
            f"l-channel mismatch: projector is l={core.l}, orbital is l={psi.l}"
        )
    u = np.asarray(psi.u, dtype=float)
    if u.shape != core.grid.points.shape:
        raise ShapeError("orbital is not sampled on the projector's grid")
    if core.rank == 0:
        return np.zeros_like(u), u.copy()
    coeffs = core.coefficients(u)
    inside = coeffs @ core._basis
    return inside, u - inside


# ---------------------------------------------------------------------------
# level-shifted (frozen-core) valence problem


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
    core_radius: float


def pk_solve(state: SCFState, valence) -> PseudoOrbital:
    """Build the nodeless pseudo-orbital for one valence level.

    valence: (n, l) of an occupied shell of the converged state.  Core
    levels are the same-channel shells lying below it.  The shifted
    operator F + Σ_c (ε_v − ε_c)|c⟩⟨c| is degenerate at ε_v on the span of
    the valence and core states, so the solve reduces to picking the
    minimum-kinetic-energy member of that span: a Rayleigh–Ritz step in
    z = √(h·r)·u, where the plain dot product is the mesh measure and the
    metric in which F and the kinetic stencil are symmetric.  The span is
    orthonormalized by QR, so the chosen member is a unit vector, and the
    state's orbitals are unit vectors too: no norm is taken.  The returned
    eigenvalue is the full-operator Rayleigh quotient of that member, and
    the core coefficients are its overlaps with the core orbitals.
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
        raise PreconditionError("pk_solve needs a converged SCF state")
    eps_v = float(state.eigenvalues[v_idx])
    v_orb = state.orbitals[v_idx]
    flips = sign_flips(v_orb.u)
    core_radius = float(g.points[flips[-1]]) if flips.size else 0.0

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
            core_radius=core_radius,
        )

    # minimum-kinetic member of span{valence, cores}: lowest Ritz vector of T
    Z = np.column_stack([u_to_z(o.u, g) for o in [v_orb] + [o for o, _ in cores]])
    Q = np.linalg.qr(Z)[0]
    diag, off = kinetic_tridiagonal(g, l_v)
    TQ = np.column_stack([tridiag_apply(diag, off, q) for q in Q.T])
    phi = Q @ np.linalg.eigh(Q.T @ TQ)[1][:, 0]
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
        core_radius=core_radius,
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
