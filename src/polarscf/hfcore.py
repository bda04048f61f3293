"""Self-consistent mean-field engine for spherically averaged atoms.

Everything runs on the logarithmic radial mesh from :mod:`polarscf.radial`.
The moving parts are:

* the radial density Σ q·u² and the direct (Hartree) potential it sources,
* nonlocal exchange per angular channel, kept as the generators of each
  multipole kernel r_<^L / r_>^{L+1} = G·C·G with C_ij = c_min(i,j) and
  parity-filtered angular weights, never as an N×N matrix,
* one Fock operator per l-channel (`FockOperator`) in z = sqrt(h·r)·u, where
  the mesh measure is the identity, so that every norm, overlap and
  expectation value of the solve is a plain dot product: it applies in O(N)
  with two cumulative sums per kernel block, and it solves shifted systems in O(N)
  because F − σ is the Schur complement of a banded matrix whose Cholesky
  factor, with an inertia check of a small capacitance matrix for the
  odd-shell pins, certifies that σ lies below the whole spectrum,
* a shift-invert eigensolver that asks ARPACK for exactly the occupied
  pairs of a channel, in a Krylov space sized to them, warm-started from
  the previous iteration's orbitals with a shift just below its lowest
  level: a ladder of shifts that step
  down from the lower of the previous lowest eigenvalue and the start
  vector's Rayleigh quotient by SHIFT_MARGIN·4^j, ending at the bound
  −(Z²/2 + 2), keeps the first shift that certifies and raises
  ConvergenceError if none does; ARPACK's tolerance follows the SCF
  residual, so iterations far from self-consistency are solved inexactly
  and only a full-precision iteration may end the solve,
* fixed-point iteration on the input orbitals, stopped on its residual
  max|Φ(x) − x| alone (the energy change is traced, not tested),
  accelerated by Anderson (Pulay) extrapolation over the last few (input,
  residual) pairs and orthonormalized per channel, so each iteration's
  operators are built from one orthonormal orbital set and its direct
  field (the snapshot), with the shells taken in (l, n) order throughout; the
  per-iteration trace (with ARPACK's tolerance, the shifts, the
  eigensolver's factorizations and solves, and the phase wall times) is
  kept on the returned state next to the last snapshot, from which any
  channel's operator is built once; the returned state is read-only, so
  those operators always belong to its orbitals, and
* trace bookkeeping that confronts the eigenvalue sum with the quadratic
  form of the same converged operator.

Exchange kernels carry weight q/2 per source shell (exact for closed
shells).  Shells holding an odd electron additionally get a symmetric
rank-two correction pinning the kernel's action on its own orbital to the
monopole self-potential, so a lone electron's direct and exchange terms
cancel at the operator level, not just in expectation values.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import DEFAULT_MAX_ITER, DEFAULT_N_POINTS, DEFAULT_R_MAX, DEFAULT_TOL_ORBITAL
from .errors import (
    CapacityError,
    ConvergenceError,
    ParameterError,
    PreconditionError,
    ShapeError,
)
from .radial import (
    RadialGrid,
    RadialOrbital,
    hydrogenic_orbital,
    integrate,
    kinetic_tridiagonal,
    make_grid,
    tridiag_apply,
    u_to_z,
    z_to_u,
)

# The angular coupling table is tabulated exactly for s..f shells.
MAX_COUPLING_L = 3
L_LETTERS = "spdf"

# The first shift-invert shift sits this far (hartree) below the channel's
# estimated lowest level; each further try steps four times as far.
SHIFT_MARGIN = 0.1

# ARPACK's Krylov space (ncv) for `count` wanted pairs of a channel with N
# mesh points: min(N, max(KRYLOV_MIN, KRYLOV_PER_PAIR·count)).
KRYLOV_MIN = 8
KRYLOV_PER_PAIR = 4

# (input, residual) pairs the Anderson extrapolation of the orbitals keeps.
ANDERSON_DEPTH = 8

# ARPACK's tolerance in an SCF iteration is EIGSH_TOL_FACTOR times the
# smallest residual max|Φ(x) − x| seen so far (taken as 1 before the first
# iteration), and 0 (machine precision) once the residual has fallen below
# EXACT_SOLVE_FACTOR·tol_orbital.
EIGSH_TOL_FACTOR = 1e-3
EXACT_SOLVE_FACTOR = 10.0


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class ShellSpec:
    """One occupied (n, l) shell with an integer electron count."""

    n: int
    l: int
    occupation: int

    def __post_init__(self):
        for name in ("n", "l", "occupation"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ParameterError(f"shell {name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ParameterError(f"principal quantum number must be >= 1, got {self.n}")
        if not (0 <= self.l < self.n):
            raise ParameterError(f"need 0 <= l < n, got l={self.l}, n={self.n}")
        if self.occupation < 0:
            raise ParameterError(f"negative occupation {self.occupation} for shell {self.label}")
        if self.occupation == 0:
            raise ParameterError(f"empty shell {self.label} serves no purpose; drop it")
        if self.occupation > 2 * (2 * self.l + 1):
            raise ParameterError(
                f"shell {self.label} holds at most {2 * (2 * self.l + 1)} electrons, "
                f"got {self.occupation}"
            )

    @property
    def label(self) -> str:
        return shell_label(self.n, self.l)


def shell_label(n: int, l: int) -> str:
    if l >= len(L_LETTERS):
        raise CapacityError(f"no letter for l={l}; supported shells are s..f")
    return f"{n}{L_LETTERS[l]}"


@dataclass(frozen=True)
class GridParams:
    r_min: float | None = None  # None -> 1e-6 / Z
    r_max: float = DEFAULT_R_MAX
    n_points: int = DEFAULT_N_POINTS

    def __post_init__(self):
        # make_grid checks the bounds and the count; a fractional count
        # would fail there as a drifting mesh ratio
        if isinstance(self.n_points, bool) or not isinstance(self.n_points, numbers.Integral):
            raise ParameterError(f"n_points must be an integer, got {self.n_points!r}")


@dataclass(frozen=True)
class SCFParams:
    max_iter: int = DEFAULT_MAX_ITER
    tol_orbital: float = DEFAULT_TOL_ORBITAL

    def __post_init__(self):
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ParameterError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be positive, got {self.max_iter}")
        if not 0.0 < self.tol_orbital < math.inf:
            raise ParameterError(
                f"tol_orbital must be positive and finite, got {self.tol_orbital!r}"
            )


@dataclass(frozen=True)
class AtomConfig:
    z: float
    shells: tuple[ShellSpec, ...]
    grid: GridParams = GridParams()
    scf: SCFParams = SCFParams()

    def __post_init__(self):
        if not 0 < self.z < math.inf:
            raise ParameterError(f"nuclear charge must be positive and finite, got {self.z}")
        if not self.shells:
            raise ParameterError("at least one occupied shell is required")
        shells = tuple(
            s if isinstance(s, ShellSpec) else ShellSpec(*s) for s in self.shells
        )
        object.__setattr__(self, "shells", shells)
        seen = set()
        for s in shells:
            if (s.n, s.l) in seen:
                raise ParameterError(f"shell {s.label} listed twice")
            seen.add((s.n, s.l))

    def resolved_grid(self) -> RadialGrid:
        r_min = self.grid.r_min if self.grid.r_min is not None else 1e-6 / self.z
        return make_grid(r_min, self.grid.r_max, self.grid.n_points)


# ---------------------------------------------------------------------------
# angular coupling weights


@functools.lru_cache(maxsize=None)
def _threej000_squared(l1: int, L: int, l2: int) -> float:
    """Squared (l1 L l2; 0 0 0) coupling symbol, exact rational arithmetic."""
    J = l1 + L + l2
    if J % 2 == 1:
        return 0.0
    if not (abs(l1 - l2) <= L <= l1 + l2):
        return 0.0
    g = J // 2
    pref = Fraction(
        math.factorial(J - 2 * l1) * math.factorial(J - 2 * L) * math.factorial(J - 2 * l2),
        math.factorial(J + 1),
    )
    binom = Fraction(
        math.factorial(g),
        math.factorial(g - l1) * math.factorial(g - L) * math.factorial(g - l2),
    )
    return float(pref * binom * binom)


def angular_weight(l_target: int, L: int, l_source: int) -> float:
    """Multipole weight of the exchange coupling between two l-channels."""
    if l_target < 0 or l_source < 0 or L < 0:
        raise ParameterError("angular momenta must be nonnegative")
    if l_target > MAX_COUPLING_L or l_source > MAX_COUPLING_L:
        raise CapacityError(
            f"angular coupling table covers l <= {MAX_COUPLING_L}, "
            f"got ({l_target}, {l_source})"
        )
    return _threej000_squared(l_target, L, l_source)


def _multipoles(l_target: int, l_source: int):
    """Multipole orders with nonzero weight (parity + triangle filtered)."""
    lo, hi = abs(l_target - l_source), l_target + l_source
    return [L for L in range(lo, hi + 1) if (l_target + L + l_source) % 2 == 0]


# ---------------------------------------------------------------------------
# Slater potentials (radial Poisson-like transforms)


def slater_potential(f, L: int, g: RadialGrid):
    """Potential of the radial source f for multipole order L.

    Returns V(r) = r^{-(L+1)} ∫_0^r f s^L ds + r^L ∫_r^∞ f s^{-(L+1)} ds,
    in hartree for a density-like f (integral of f = enclosed charge).
    Running integrals use the trapezoid rule in the log variable; the inner
    tail below r_min is closed with the leading r² power of physical radial
    densities.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != g.points.shape:
        raise ShapeError(f"source has shape {f.shape}, grid has {g.points.shape}")
    r = g.points
    h = g.log_step
    # ds = s dx on the log mesh
    inner = f * r ** (L + 1)
    outer = f * r ** (-L) if L else f.copy()
    A = np.empty_like(f)
    A[0] = f[0] * r[0] ** (L + 1) / (L + 3)
    np.cumsum(0.5 * h * (inner[1:] + inner[:-1]), out=A[1:])
    A[1:] += A[0]
    Q = np.concatenate(([0.0], np.cumsum(0.5 * h * (outer[1:] + outer[:-1]))))
    B = Q[-1] - Q
    return A * r ** (-(L + 1)) + B * r**L


# ---------------------------------------------------------------------------
# density


def build_density(orbitals, g: RadialGrid):
    """Radial electron density ρ = Σ_b q_b·u_b², summed in the order given.

    Each orbital must be normalized in the solver's metric, z·z = 1 for
    z = `u_to_z(u, g)`; its `occupation` q_b counts electrons.
    """
    rho = np.zeros(g.N)
    for o in orbitals:
        z = u_to_z(o.u, g)
        nrm = float(z @ z)
        if abs(nrm - 1.0) > 1e-6:
            raise PreconditionError(
                f"orbital {shell_label(o.n, o.l)} is not normalized: <u|u> = {nrm!r}"
            )
        rho += o.occupation * o.u**2
    return rho


# ---------------------------------------------------------------------------
# exchange kernels


def _pair_weights(q_a: int, l_a: int, q_b: int, l_b: int) -> float:
    """Same-spin pairing count between two shells for the exchange energy."""
    w_a = min(q_a, 2 * l_a + 1)
    w_b = min(q_b, 2 * l_b + 1)
    return w_a * w_b + (q_a - w_a) * (q_b - w_b)


def _exchange_terms(channel_l, orbitals, g: RadialGrid):
    """Generators of the z-space exchange operator of one angular channel.

    orbitals: the occupied RadialOrbitals feeding the kernel, each holding
    an integer number q of electrons.  In z = √(h·r)·u, where the mesh
    measure is the identity, the multipole kernel r_<^L / r_>^{L+1} between
    the source orbital's z_b on both sides is γ·G·C·G with
    G = diag(z_b ⊙ r^{-(L+1)}), C_ij = c_min(i,j) and c = r^{2L+1}.  Each
    source shell b and multipole L gives one block (γ, g, c) with
    γ = (q_b/2)·λ_L; weight q/2 per source reproduces the closed-shell
    operator.  Odd shells add one pin (ρ, ẑ), the symmetric rank-two term
    ρẑᵀ + ẑρᵀ described in the module docstring.  Returns (blocks, pins).
    Raises ParameterError when c = r^{2L+1} of the largest multipole
    L = channel_l + max l_b would overflow at r_max.
    """
    if channel_l < 0:
        raise ParameterError(f"angular momentum must be nonnegative, got l={channel_l}")
    L_max = channel_l + max((o.l for o in orbitals), default=0)
    if (2 * L_max + 1) * math.log(g.r_max) > math.log(sys.float_info.max):
        raise ParameterError(
            f"r_max {g.r_max!r} is too large: the l={channel_l} exchange kernel "
            f"r^{2 * L_max + 1} overflows"
        )
    r = g.points
    blocks, pins = [], []
    for o in orbitals:
        if np.asarray(o.u).shape != g.points.shape:
            raise ShapeError(f"source orbital {shell_label(o.n, o.l)} is not sampled on the grid")
        u_b, l_b, q_b = o.u, o.l, o.occupation
        z_b = u_to_z(u_b, g)
        own = [
            (angular_weight(channel_l, L, l_b), z_b * r ** -(L + 1), r ** (2 * L + 1))
            for L in _multipoles(channel_l, l_b)
        ]
        blocks += [(0.5 * q_b * gamma, gv, c) for gamma, gv, c in own]
        if q_b % 2 == 1 and l_b == channel_l:
            # Pin the kernel's action on its own orbital: for q=1 the target
            # is the bare monopole self-potential (so direct and exchange
            # cancel exactly); for odd q>=3 it is the energy-consistent
            # diagonal weight.
            Mz = _exchange_action(own, (), z_b)
            if q_b == 1:
                t = slater_potential(u_b * u_b, 0, g) * z_b
            else:
                t = (_pair_weights(q_b, l_b, q_b, l_b) / q_b) * Mz
            d = t - (0.5 * q_b) * Mz
            znorm = float(np.linalg.norm(z_b))
            zh = z_b / znorm
            dh = d / znorm
            pins.append((dh - 0.5 * zh * float(zh @ dh), zh))
    return blocks, pins


def _exchange_action(blocks, pins, x):
    """X·x in O(N): two cumulative sums per kernel block, two dot products per pin."""
    out = np.zeros_like(x)
    for gamma, gv, c in blocks:
        y = gv * x
        cy = np.cumsum(c * y)  # Σ_{j<=i} c_j·y_j
        cy[:-1] += c[:-1] * np.cumsum(y[::-1])[-2::-1]  # c_i·Σ_{j>i} y_j
        out += gamma * gv * cy
    for rho, zh in pins:
        out += rho * float(zh @ x) + zh * float(rho @ x)
    return out


def exchange_apply(orbitals, target: RadialOrbital, g: RadialGrid):
    """Apply the nonlocal exchange of the occupied orbitals to a target."""
    if np.asarray(target.u).shape != g.points.shape:
        raise ShapeError("target orbital is not sampled on the given grid")
    blocks, pins = _exchange_terms(target.l, orbitals, g)
    return z_to_u(_exchange_action(blocks, pins, u_to_z(target.u, g)), g)


# ---------------------------------------------------------------------------
# energy bookkeeping


def _coulomb_integral(fa, fb, L, g):
    return integrate(fa * slater_potential(fb, L, g), g)


def _total_energy(z_nuc, orbitals, g: RadialGrid) -> float:
    """Mean-field total energy of the current orbital set.

    orbitals: normalized RadialOrbitals with integer occupations.  The
    one-electron part is z·((T − Z/r) z) on the tridiagonal the operator is
    built from.  The direct term is ½∫ρ·V₀[ρ] of the `build_density`
    density, one Slater transform.  The exchange term weights each shell
    pair by its same-spin count; the summand is symmetric in (a, b), so each
    pair is taken once for a ≤ b and counted twice when a ≠ b.  A lone
    electron's self term is the bare monopole, so one-electron systems
    reduce exactly to the bare Hamiltonian.
    """
    E = 0.0
    for a in orbitals:
        diag, off = kinetic_tridiagonal(g, a.l)
        z = u_to_z(a.u, g)
        E += a.occupation * float(z @ tridiag_apply(diag - z_nuc / g.points, off, z))
    rho = build_density(orbitals, g)
    E += 0.5 * _coulomb_integral(rho, rho, 0, g)
    for i, a in enumerate(orbitals):
        for b in orbitals[i:]:
            s_ab = _pair_weights(a.occupation, a.l, b.occupation, b.l)
            if s_ab == 0:
                continue
            if a is b and a.occupation == 1:
                E -= 0.5 * _coulomb_integral(a.u**2, a.u**2, 0, g)
                continue
            acc = 0.0
            for L in _multipoles(a.l, b.l):
                lam = angular_weight(a.l, L, b.l)
                cross = a.u * b.u
                acc += lam * _coulomb_integral(cross, cross, L, g)
            E -= (0.5 if a is b else 1.0) * s_ab * acc
    return E


# ---------------------------------------------------------------------------
# the channel Fock operator


@dataclass(frozen=True)
class FockOperator:
    """One channel's z-space Fock operator, applied and solved in O(N).

    F = tridiag(diag, off) − Σ_k γ_k·G_k·C_k·G_k − Σ_p (ρ_p ẑ_pᵀ + ẑ_p ρ_pᵀ)
    is the kinetic stencil plus the local potential, one exchange block
    (γ, g, c) per source shell and multipole, and one pin (ρ, ẑ) per odd
    shell (see `_exchange_terms`).
    """

    diag: np.ndarray
    off: np.ndarray
    blocks: tuple
    pins: tuple

    def apply(self, x):
        return tridiag_apply(self.diag, self.off, x) - _exchange_action(self.blocks, self.pins, x)

    def to_dense(self):
        """The dense, read-only matrix of the operator, for tests and checks.

        Its largest entries are about 1/(h·r_min)², so a dense eigensolver
        run on it directly resolves the low levels poorly.
        """
        F = np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)
        idx = np.arange(self.diag.size)
        lower = np.minimum.outer(idx, idx)
        for gamma, gv, c in self.blocks:
            F -= gamma * np.outer(gv, gv) * c[lower]
        for rho, zh in self.pins:
            P = np.outer(rho, zh)
            F -= P + P.T
        F.flags.writeable = False
        return F

    def shifted_solver(self, sigma):
        """x ↦ (F − σ)⁻¹x, once F − σ is certified positive definite.

        Writing γ·C = (C⁻¹/γ)⁻¹, F − σ without its pins is the Schur complement
        S of M = [[blockdiag(C_k⁻¹/γ_k), G], [Gᵀ, A − σ]] with A the tridiagonal
        part.  Each C⁻¹ is tridiagonal with d_i = c_i − c_{i−1}, so with the
        unknowns interleaved as (y_1[i] … y_m[i], x[i]) M is banded with
        bandwidth m + 1, and since every C_k⁻¹/γ_k is positive definite, M is
        exactly when S is: the banded Cholesky factor of M certifies S ≻ 0.
        The pins are U·W·Uᵀ with U = [ρ_p, ẑ_p], W = blockdiag([[0, 1], [1, 0]]) = W⁻¹,
        handled by Woodbury through the capacitance K = W⁻¹ − Uᵀ·S⁻¹·U.  By
        Haynsworth inertia additivity, In(S) + In(K) = In(W⁻¹) + In(F − σ), so
        with S ≻ 0, F − σ ≻ 0 exactly when K has the inertia of W⁻¹: one
        positive and one negative eigenvalue per pin.  Raises
        np.linalg.LinAlgError when either test fails, and before them when M
        is not finite: once r^{2L+1} underflows near a tiny r_min, a zero
        step of c makes C⁻¹ infinite, and the NaN pivots that follow would
        pass LAPACK's positivity test.  Each solve calls LAPACK's banded
        triangular solve (pbtrs) on the factor directly, without SciPy's
        per-call wrapper.
        """
        import scipy.linalg as sla  # loaded on first solve, not on import

        N, m = self.diag.size, len(self.blocks)
        s = m + 1  # stride of one mesh point in the interleaved unknowns
        ab = np.zeros((s + 1, s * N))  # lower band storage: ab[k, j] = M[j + k, j]
        ab[0, m::s] = self.diag - sigma
        ab[s, m:-1:s] = self.off
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for k, (gamma, gv, c) in enumerate(self.blocks):
                inv_d = 1.0 / np.diff(c, prepend=0.0)
                ab[0, k::s] = inv_d / gamma
                ab[0, k:-s:s] += inv_d[1:] / gamma
                ab[s, k:-s:s] = -inv_d[1:] / gamma
                ab[m - k, k::s] = gv
        if not np.isfinite(ab).all():
            raise np.linalg.LinAlgError("the banded matrix M has non-finite entries")
        factor = sla.cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
        (pbtrs,) = sla.get_lapack_funcs(("pbtrs",), (factor,))

        def solve_s(b):
            rhs = np.zeros((s * N,) + b.shape[1:], order="F")
            rhs[m::s] = b
            y, info = pbtrs(factor, rhs, lower=1, overwrite_b=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"LAPACK pbtrs failed with info={info}")
            return y[m::s]

        if not self.pins:
            return solve_s
        U = np.column_stack([v for pin in self.pins for v in pin])
        W_inv = np.kron(np.eye(len(self.pins)), [[0.0, 1.0], [1.0, 0.0]])
        SU = solve_s(U)
        K = W_inv - U.T @ SU
        nu, V = np.linalg.eigh(0.5 * (K + K.T))
        inertia = (np.count_nonzero(nu > 0.0), np.count_nonzero(nu < 0.0))
        if inertia != (len(self.pins), len(self.pins)):
            raise np.linalg.LinAlgError(
                f"capacitance inertia {inertia} differs from the pins' "
                f"{(len(self.pins), len(self.pins))}"
            )
        K_inv = (V / nu) @ V.T

        def solve(b):
            Sb = solve_s(b)
            return Sb + SU @ (K_inv @ (U.T @ Sb))

        return solve


def _fock_operator(l, z_nuc, orbitals, field, g: RadialGrid) -> FockOperator:
    """Channel-l operator T_l − Z/r + field − exchange − pins of one orbital set."""
    blocks, pins = _exchange_terms(l, orbitals, g)
    diag, off = kinetic_tridiagonal(g, l)
    diag = diag + (-z_nuc / g.points + field)
    # read-only, so an operator cached on a state cannot drift from its orbitals
    for arr in (diag, off, *(v for b in blocks for v in b[1:]), *(v for pin in pins for v in pin)):
        arr.flags.writeable = False
    return FockOperator(diag, off, tuple(blocks), tuple(pins))


# ---------------------------------------------------------------------------
# SCF state


@dataclass(frozen=True)
class SCFState:
    """Converged (or abandoned) mean-field solution; the returned state is read-only.

    `orbitals` and `eigenvalues` follow the shells of `config`, which the
    solve put in (l, n) order: they are the eigenpairs the last iteration
    solved for.  `_snapshot` is the (orbitals, direct field) pair that
    iteration's operators were built from: its input orbitals, orthonormal
    within each channel and within `tol_orbital` of `orbitals` once the solve
    converged.  Every channel's operator, occupied or not, is built from it
    once and kept in `_operators`; the occupied channels' entries are the
    operators the eigensolver diagonalized.  The state cannot be edited, so
    those operators always belong to its orbitals: no field can be
    reassigned, `orbitals` and `eigenvalues` are tuples, every array it holds
    (the orbitals' and the snapshot orbitals' `u`, the snapshot field, the
    mesh points of `make_grid` and the cached operators' arrays) refuses
    writes, and a deep copy is the state itself.  `dataclasses.replace`
    gives a new state with an empty cache.  `trace` has one row per
    iteration, the same rows a ConvergenceError carries: energy, changes,
    ARPACK's tolerance, the shift per channel, the eigensolver's
    factorizations and shift-invert solves summed over channels, and the
    wall time of each phase (field, operator build, eigensolve, energy).
    """

    orbitals: tuple
    eigenvalues: tuple
    total_energy: float
    converged: bool
    iterations: int
    grid: RadialGrid
    config: AtomConfig
    trace: list = field(default_factory=list, repr=False)
    _snapshot: tuple = field(default=(), repr=False)
    _operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __deepcopy__(self, memo):
        return self

    def channel_operator(self, l: int) -> FockOperator:
        """The z-space Fock operator of one angular channel, built once per state."""
        if l not in self._operators:
            self._operators[l] = _fock_operator(l, self.config.z, *self._snapshot, self.grid)
        return self._operators[l]

    def channel_matrix(self, l: int):
        """Dense, read-only z-space Fock matrix of one angular channel (for tests)."""
        return self.channel_operator(l).to_dense()


def fock_apply(state: SCFState, target: RadialOrbital):
    """Apply the converged Fock operator (kinetic − Z/r + field) to a target."""
    g = state.grid
    if np.asarray(target.u).shape != g.points.shape:
        raise ShapeError("target orbital is not sampled on the state's grid")
    op = state.channel_operator(target.l)
    return z_to_u(op.apply(u_to_z(target.u, g)), g)


def trace_energy(state: SCFState):
    """Eigenvalue sum vs. density-matrix trace of the same operator.

    Returns (sum_eigen, trace_lhs) over the paired orbitals: the first from
    the solver's eigenvalues, the second from the quadratic form z·(F z)
    of the operator each orbital was solved with.  A converged state makes
    them agree to the eigensolver's accuracy.
    """
    if not state.converged:
        raise PreconditionError("trace_energy needs a converged SCF state")
    g = state.grid
    sum_eigen = 0.0
    trace_lhs = 0.0
    for o, eps in zip(state.orbitals, state.eigenvalues):
        pairs = o.occupation // 2
        if pairs == 0:
            continue
        sum_eigen += pairs * eps
        z = u_to_z(o.u, g)
        trace_lhs += pairs * float(z @ state.channel_operator(o.l).apply(z))
    return sum_eigen, trace_lhs


# ---------------------------------------------------------------------------
# the SCF loop


def _solve_channel(op: FockOperator, count, z_nuc, eps_low, v0, tol=0.0):
    """Lowest `count` eigenpairs of a channel's Fock operator.

    ARPACK shift-invert Lanczos converges at a rate set by the spacing of
    1/(λ − σ) near the wanted end, so the shift σ is put just below the
    channel's lowest level.  Its best upper estimate is top = min(eps_low,
    v0ᵀFv0 / v0ᵀv0): eps_low is the lowest eigenvalue of the previous
    iteration, and the Rayleigh quotient bounds the lowest level from above
    even when it has dropped since.  The shifts σ_j = top − SHIFT_MARGIN·4^j,
    j = 0, 1, …, are tried in turn while they lie above the bound
    −(Z²/2 + 2), which is tried last; the first σ that
    `FockOperator.shifted_solver` certifies (it succeeds exactly when F − σ
    is positive definite, so σ lies below the whole spectrum) is kept, and
    if none does a ConvergenceError is raised rather than returning
    eigenpairs that may not be the lowest; an ARPACK failure raises one
    too.  The certified solver is handed to ARPACK as the shift-invert
    operator and exactly `count` pairs are asked for, starting from v0
    (the channel's previous orbitals summed), which keeps runs
    bit-reproducible.  ARPACK's least work per call is
    ncv + 1 shift-invert solves, the first Lanczos factorization of its
    Krylov space of ncv vectors, however good v0 is: SciPy's default
    ncv = max(2·count + 1, 20) made every call cost at least 21 solves,
    where a warm He call needs 9.  The Krylov size is therefore
    ncv = min(N, max(KRYLOV_MIN, KRYLOV_PER_PAIR·count)): small for the
    warm calls of channels with one or two levels, roomy enough for those
    with more (a tighter max(8, 2·count + 1) nearly doubles the solves of
    K and Ca at N=2000, whose s channels hold four levels), and never more
    than the N that ARPACK allows.  `tol` is ARPACK's relative accuracy
    of the Ritz values of (F − σ)⁻¹; 0 asks for machine precision, and a
    looser value lets an SCF iteration far from self-consistency stop
    early (see `scf_solve`).  The shift is certified whatever the tol.

    Returns (values, vectors, work) with values ascending and work holding
    the shift, the number of factorizations (shifts tried) and of
    shift-invert solves.
    """
    import scipy.sparse.linalg as spla  # loaded on first solve, not on import

    N = op.diag.size
    floor = -(0.5 * z_nuc**2 + 2.0)
    top = min(eps_low, float(v0 @ op.apply(v0)) / float(v0 @ v0))
    sigmas, margin = [], SHIFT_MARGIN
    while top - margin > floor:
        sigmas.append(top - margin)
        margin *= 4.0
    sigmas.append(floor)
    for tries, sigma in enumerate(sigmas, start=1):
        try:
            solve = op.shifted_solver(sigma)
        except np.linalg.LinAlgError:
            continue
        break
    else:
        raise ConvergenceError(
            f"no certified shift: F - sigma is not positive definite for sigma in {sigmas}"
        )
    solves = 0

    def shift_invert(b):
        nonlocal solves
        solves += 1
        return solve(b)

    A = spla.LinearOperator((N, N), matvec=op.apply, dtype=float)
    OPinv = spla.LinearOperator((N, N), matvec=shift_invert, dtype=float)
    ncv = min(N, max(KRYLOV_MIN, KRYLOV_PER_PAIR * count))
    try:
        vals, vecs = spla.eigsh(
            A, k=count, sigma=sigma, which="LM", v0=v0, OPinv=OPinv, tol=tol, ncv=ncv
        )
    except spla.ArpackError as exc:
        raise ConvergenceError(f"ARPACK failed at shift {sigma}: {exc}") from None
    order = np.argsort(vals)
    work = {"shift": float(sigma), "factorizations": tries, "shift_invert_solves": solves}
    return vals[order], vecs[:, order], work


def _anderson_step(xs, fs):
    """Next input of a fixed-point iteration by Anderson (type-II, Pulay) extrapolation.

    xs are the inputs and fs = Φ(xs) − xs their residuals, newest last.  The
    coefficients c with Σ c_k = 1 that minimize ‖Σ c_k f_k‖ come from a
    least-squares fit of the newest residual by the residual differences (no
    Gram matrix is formed); the result is Σ c_k (x_k + f_k).  See Pulay,
    Chem. Phys. Lett. 73, 393 (1980) and Walker & Ni, SIAM J. Numer. Anal.
    49, 1715 (2011).
    """
    x, f = xs[-1], fs[-1]
    if len(xs) > 1:
        dX = np.column_stack([xk - x for xk in xs[:-1]])
        dF = np.column_stack([fk - f for fk in fs[:-1]])
        gamma = np.linalg.lstsq(dF, -f, rcond=None)[0]
        x = x + dX @ gamma
        f = f + dF @ gamma
    return x + f


def _orthonormal_orbitals(x, like, channels, g: RadialGrid):
    """Split x into one u-vector per shell of `like` and orthonormalize each channel.

    A channel's z-vectors, in increasing n, go through one QR factorization
    with R's diagonal made positive, which is Gram–Schmidt in that order:
    each channel's orbitals come out orthonormal in z·z.
    """
    us = np.split(x, len(like))
    out = list(like)
    for members in channels.values():
        Q, R = np.linalg.qr(np.column_stack([u_to_z(us[i], g) for i in members]))
        for i, q in zip(members, (Q * np.sign(np.diag(R))).T):
            out[i] = replace(like[i], u=z_to_u(q, g))
    return out


def scf_solve(cfg: AtomConfig) -> SCFState:
    """Self-consistent solve of the mean-field equations for one atom.

    Fixed point x = Φ(x) of the input orbitals x: build density → build
    direct field and operator → diagonalize each occupied l-channel →
    reoccupy in eigenvalue order.  The next input is the Anderson
    extrapolation Σ c_k (x_k + f_k) over the last ANDERSON_DEPTH inputs
    and residuals f_k = Φ(x_k) − x_k, orthonormalized per channel, so every
    operator is built from one orthonormal orbital set.  Early iterations
    are solved inexactly: ARPACK's tolerance is EIGSH_TOL_FACTOR times the
    smallest residual so far (1 before the first iteration), never growing,
    and exactly 0 (full precision) once the residual is below
    EXACT_SOLVE_FACTOR·`tol_orbital`; each trace row records it as
    `eigensolve_tol` (after Herbst, Levitt & Cancès, Proc. JuliaCon Conf. 3,
    69 (2021)).  The residual alone decides when to stop: the solve ends at
    the first iteration solved at full precision whose max|Φ(x) − x| (the
    trace's `max_orbital_delta`) is below `tol_orbital`; met at a looser
    tolerance, it buys one more iteration, so the returned eigenpairs and
    snapshot always come from a full-precision solve.  The energy change
    is recorded in every trace row as `delta_energy` but gates nothing.
    The shells are put in (l, n) order first, so the order they are listed
    in does not change a single bit of the result.
    Raises ConvergenceError (with the iteration trace attached) if max_iter
    passes without meeting `tol_orbital`.
    """
    cfg = replace(cfg, shells=tuple(sorted(cfg.shells, key=lambda s: (s.l, s.n))))
    g = cfg.resolved_grid()
    # indices into cfg.shells per l-channel, each list in increasing n
    channels: dict[int, list[int]] = {}
    for i, s in enumerate(cfg.shells):
        channels.setdefault(s.l, []).append(i)

    # bare-nucleus starting guess
    start = [
        replace(hydrogenic_orbital(cfg.z, s.n, s.l, g), occupation=s.occupation)
        for s in cfg.shells
    ]
    x = np.concatenate([o.u for o in start])
    # hydrogenic levels of the start: the first iteration's warm shifts
    eigenvalues = [-0.5 * (cfg.z / s.n) ** 2 for s in cfg.shells]

    xs, fs = [], []  # the Anderson history, newest last
    E_prev = None
    eig_tol = EIGSH_TOL_FACTOR
    trace = []

    for it in range(1, cfg.scf.max_iter + 1):
        t_start = time.perf_counter()
        orbitals = _orthonormal_orbitals(x, start, channels, g)
        snapshot = tuple(orbitals), slater_potential(build_density(orbitals, g), 0, g)

        outputs = list(orbitals)
        operators = {}
        row = {
            "eigensolve_tol": eig_tol,
            "shift": {},
            "factorizations": 0,
            "shift_invert_solves": 0,
            "field_s": time.perf_counter() - t_start,
            "operator_s": 0.0,
            "eigensolve_s": 0.0,
        }
        for l, members in channels.items():
            t_op = time.perf_counter()
            op = operators[l] = _fock_operator(l, cfg.z, *snapshot, g)
            t_eig = time.perf_counter()
            v0 = sum(u_to_z(orbitals[i].u, g) for i in members)
            try:
                vals, vecs, work = _solve_channel(
                    op, len(members), cfg.z, eigenvalues[members[0]], v0, eig_tol
                )
            except ConvergenceError as exc:
                raise ConvergenceError(f"iteration {it}, l={l}: {exc}", trace=trace) from None
            row["operator_s"] += t_eig - t_op
            row["eigensolve_s"] += time.perf_counter() - t_eig
            row["shift"][l] = work["shift"]
            row["factorizations"] += work["factorizations"]
            row["shift_invert_solves"] += work["shift_invert_solves"]
            for rank, i in enumerate(members):
                z = vecs[:, rank]
                if z[np.argmax(np.abs(z))] < 0:
                    z = -z
                eigenvalues[i] = float(vals[rank])
                outputs[i] = replace(orbitals[i], u=z_to_u(z, g))

        x = np.concatenate([o.u for o in orbitals])
        f = np.concatenate([o.u for o in outputs]) - x
        delta_u = float(np.max(np.abs(f)))

        t_energy = time.perf_counter()
        E_new = _total_energy(cfg.z, outputs, g)
        row["energy_s"] = time.perf_counter() - t_energy
        trace.append(
            {
                "iteration": it,
                "total_energy": E_new,
                "delta_energy": abs(E_new - E_prev) if E_prev is not None else None,
                "max_orbital_delta": delta_u,
                **row,
            }
        )
        E_prev = E_new
        if eig_tol == 0.0 and delta_u < cfg.scf.tol_orbital:
            break
        if delta_u < EXACT_SOLVE_FACTOR * cfg.scf.tol_orbital:
            eig_tol = 0.0
        else:
            eig_tol = min(eig_tol, EIGSH_TOL_FACTOR * delta_u)
        xs = (xs + [x])[-ANDERSON_DEPTH:]
        fs = (fs + [f])[-ANDERSON_DEPTH:]
        x = _anderson_step(xs, fs)
    else:
        raise ConvergenceError(
            f"SCF did not converge within {cfg.scf.max_iter} iterations "
            f"(last dE = {trace[-1]['delta_energy']!r}, "
            f"last du = {trace[-1]['max_orbital_delta']:.3e})",
            trace=trace,
        )

    for o in outputs + list(snapshot[0]):
        o.u.flags.writeable = False
    snapshot[1].flags.writeable = False
    state = SCFState(
        orbitals=tuple(outputs),
        eigenvalues=tuple(eigenvalues),
        total_energy=E_prev,
        converged=True,
        iterations=it,
        grid=g,
        config=cfg,
        trace=trace,
        _snapshot=snapshot,
    )
    state._operators.update(operators)
    return state


def state_summary(state: SCFState) -> dict:
    """Plain-data summary of a solve, in the stable field order."""
    return {
        "z": state.config.z,
        "shells": [
            f"{shell_label(o.n, o.l)}:{o.occupation}"
            for o in state.orbitals
        ],
        "eigenvalues_hartree": [float(e) for e in state.eigenvalues],
        "total_energy_hartree": float(state.total_energy),
        "iterations": state.iterations,
        "converged": state.converged,
    }
