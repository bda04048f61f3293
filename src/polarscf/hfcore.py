"""Self-consistent mean-field engine for spherically averaged atoms.

Everything runs on the logarithmic radial mesh from :mod:`polarscf.radial`.
The moving parts are:

* the radial density Σ q·u² and the direct (Hartree) potential it sources,
* nonlocal exchange per angular channel, never as an N×N matrix but as one
  block (H, c) per multipole L: a source's positive weight w (its q/2 times
  the parity-filtered angular factor λ_L) times the kernel r_<^L / r_>^{L+1}
  is diag(h)·C·diag(h) with C_ij = c_min(i,j), c = r^{2L+1} and the row
  h = √w·z_b ⊙ r^{-(L+1)} of H, the sources of one multipole stacked against
  the c they share,
* one Fock operator per l-channel (`FockOperator`) in z = sqrt(h·r)·u, where
  the mesh measure is the identity, so that every norm, overlap and
  expectation value of the solve is a plain dot product: it applies in O(N)
  with two cumulative sums per multipole, and it solves shifted systems in O(N)
  because F − σ is the Schur complement of a banded matrix whose Cholesky
  factor, with an inertia check of a small capacitance matrix for the
  open-shell pins, certifies that σ lies below the whole spectrum,
* a shift-invert eigensolver that asks ARPACK for exactly the occupied
  pairs of a channel, in a Krylov space sized to them, warm-started from
  the previous iteration's orbitals with a shift just below its lowest
  level: a ladder of shifts that step
  down from the lower of the previous lowest eigenvalue and the start
  vector's Rayleigh quotient by SHIFT_MARGIN·4^j, ending at the bound
  −(Z²/2 + 2), keeps the first shift that certifies and raises
  ConvergenceError if none does; ARPACK's tolerance follows the SCF
  residual, so iterations far from self-consistency are solved inexactly
  and only one at the final tolerance may end the solve, from a start at
  Slater's screened charges,
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
* the total energy ½·Σ_a q_a·z_a·(h_a + F_a)·z_a of one operator F_a per shell
  (`_shell_actions`): a closed shell's channel operator, but not one beside an
  open shell of the same l (rotating Li's 1s/2s lowers E), and trace bookkeeping
  that confronts the eigenvalue sum with the quadratic form of the same operator.

Exchange kernels carry weight q/2 per source shell (exact for closed
shells).  Each open shell additionally gets a symmetric rank-two correction
pinning the kernel's action on its own orbital to the shell's self-exchange
(`_self_exchange`, also the energy's self term), whose Slater coefficients
give the shell the energy of its Hund term: for a lone electron the monopole
self-potential, so its direct and exchange terms cancel at the operator
level, not just in expectation values.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import DEFAULT_MAX_ITER, DEFAULT_N_POINTS, DEFAULT_R_MAX, DEFAULT_TOL_ORBITAL
from .errors import ConvergenceError, ParameterError
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

# HUND_BETA[l][q − 1] holds β_k, k = 2, 4, …, 2l, of the shell l^q: its own
# energy in its Hund term (S maximal, then L maximal) is
# q(q−1)/2·F⁰ − (q/2)·Σ_k β_k·F^k, F^k its Slater integrals (Slater, Phys. Rev.
# 34, 1293 (1929); Condon & Shortley, The Theory of Atomic Spectra (1935)), the
# energy of the determinant with M_S = S and M_L = L.
HUND_BETA = (
    ((), ()),
    ((0,), (1/5,), (2/5,), (3/10,), (8/25,), (2/5,)),
    (
        (0, 0), (8/49, 1/49), (10/49, 16/147), (3/14, 3/14), (2/7, 2/7),
        (5/21, 5/21), (86/343, 72/343), (25/98, 43/196), (16/63, 16/63), (2/7, 2/7),
    ),
    (
        (0, 0, 0), (1/9, 17/363, 25/14157), (26/135, 94/1089, 850/42471),
        (19/90, 40/363, 2075/28314), (46/225, 232/1815, 1990/14157),
        (2/9, 5/33, 250/1287), (4/15, 2/11, 100/429), (7/30, 7/44, 175/858),
        (94/405, 496/3267, 23150/127413), (11/45, 278/1815, 2395/14157),
        (122/495, 622/3993, 27250/155727), (13/54, 347/2178, 16525/84942),
        (16/65, 24/143, 400/1859), (4/15, 2/11, 100/429),
    ),
)

# The first shift-invert shift sits this far (hartree) below the channel's
# estimated lowest level; each further try steps four times as far.
SHIFT_MARGIN = 0.1

# ARPACK's Krylov space (ncv) for `count` wanted pairs of a channel with N
# mesh points: min(N, KRYLOV_PER_PAIR·count).
KRYLOV_PER_PAIR = 4

# (input, residual) pairs the Anderson extrapolation of the orbitals keeps.
ANDERSON_DEPTH = 8

# ARPACK's tolerance in an SCF iteration is EIGSH_TOL_FACTOR times the
# smallest residual max|Φ(x) − x| seen so far (taken as 1 before the first
# iteration), and the final FINAL_TOL_FACTOR·tol_orbital once the residual
# has fallen below EXACT_SOLVE_FACTOR·tol_orbital: the eigenvector error it
# leaves, about 750·tol for K's 4s (Saad 2011), lies far below tol_orbital.
EIGSH_TOL_FACTOR = 1e-3
EXACT_SOLVE_FACTOR = 10.0
FINAL_TOL_FACTOR = 1e-6


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
        raise ParameterError(f"no letter for l={l}; supported shells are s..f")
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
        # a spin subshell holds 2l + 1: one partly filled shell has one Hund term, two have several
        partial = [s.label for s in shells if s.occupation % (2 * s.l + 1)]
        if len(partial) > 1:
            raise ParameterError(
                f"shells {', '.join(partial)} each have a partly filled spin subshell; "
                "at most one may, so that one Hund term fixes the energy"
            )

    def resolved_grid(self) -> RadialGrid:
        r_min = self.grid.r_min if self.grid.r_min is not None else 1e-6 / self.z
        return make_grid(r_min, self.grid.r_max, self.grid.n_points)


# ---------------------------------------------------------------------------
# angular coupling weights


@functools.lru_cache(maxsize=None)
def _couplings(l_t: int, l_s: int) -> tuple:
    """(L, λ_L) of each multipole with nonzero exchange weight from channel l_s onto l_t.

    L runs over |l_t − l_s|, …, l_t + l_s in steps of two (the parity and
    triangle rules); λ_L is the squared (l_t L l_s; 0 0 0) symbol, computed exactly.
    """
    if l_t < 0 or l_s < 0:
        raise ParameterError("angular momenta must be nonnegative")
    if l_t > MAX_COUPLING_L or l_s > MAX_COUPLING_L:
        raise ParameterError(
            f"angular coupling table covers l <= {MAX_COUPLING_L}, got ({l_t}, {l_s})"
        )
    f, pairs = math.factorial, []
    for L in range(abs(l_t - l_s), l_t + l_s + 1, 2):
        J = l_t + L + l_s
        g = J // 2
        pref = Fraction(f(J - 2 * l_t) * f(J - 2 * L) * f(J - 2 * l_s), f(J + 1))
        binom = Fraction(f(g), f(g - l_t) * f(g - L) * f(g - l_s))
        pairs.append((L, float(pref * binom * binom)))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Slater potentials (radial Poisson-like transforms)


def _kernel(c, y):
    """Σ_j c_min(i,j)·y_j along the last axis of y in O(N): two cumulative sums."""
    cy = (c * y).cumsum(axis=-1)  # Σ_{j<=i} c_j·y_j
    cy[..., :-1] += c[:-1] * y[..., ::-1].cumsum(axis=-1)[..., -2::-1]  # c_i·Σ_{j>i} y_j
    return cy


def slater_potential(f, L: int, g: RadialGrid):
    """Potential of the radial source f for multipole order L.

    Returns V(r_i) = Σ_j h·r_j·f_j·r_<^L / r_>^{L+1}, the mesh's one
    quadrature h·Σ r·f applied to the Coulomb multipole kernel (the diagonal
    counted once), in hartree for a density-like f (integral of f = enclosed
    charge).  The kernel is r^{-(L+1)}·C·r^{-(L+1)} with C_ij = c_min(i,j)
    and c = r^{2L+1}, the form every exchange block uses, so direct and
    exchange terms share one kernel and one quadrature.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != g.points.shape:
        raise ParameterError(f"source has shape {f.shape}, grid has {g.points.shape}")
    w, c = g.multipole_powers(L)
    return w * _kernel(c, w * g.weights * f)


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
            raise ParameterError(
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


def _pair_blocks(l_target: int, sources, g: RadialGrid):
    """Exchange blocks of weighted sources on channel l_target, one per multipole L.

    sources: (w_b, z_b, l_b) triples.  Source b and multipole L give the
    row h = √(w_b·λ_L)·z_b ⊙ r^{-(L+1)}: w_b·λ_L, positive for w_b > 0,
    times the kernel r_<^L / r_>^{L+1} between z_b on both sides is
    diag(h)·C·diag(h) with C_ij = c_min(i,j) and c = r^{2L+1}.  The sources
    of one L share c, so its block (H, c) stacks their h into the rows of H,
    in source order; the blocks come in increasing L.
    """
    stacks = {}
    for w_b, z_b, l_b in sources:
        for L, lam in _couplings(l_target, l_b):
            r_inv, c = g.multipole_powers(L)
            stacks.setdefault(L, ([], c))[0].append(math.sqrt(w_b * lam) * z_b * r_inv)
    return [(np.array(rows), c) for _, (rows, c) in sorted(stacks.items())]


def _self_exchange(o, z, g: RadialGrid, less=0.0):
    """Σ_L (κ_L − less·λ_L)·V_L[u²]·z for shell o and its own z = u_to_z(o.u).

    L and λ_L run over `_couplings(l, l)`; κ_0 = 1 and κ_L = β_L of
    HUND_BETA for L > 0.  With less = 0 this is the shell's own exchange,
    the energy's self term: −½·q·z·Σ_L κ_L·V_L[u²]·z gives the shell the
    energy of its Hund term, and a lone electron's direct and exchange terms
    cancel.  With less = q/2 it is what the open-shell pin adds to the
    kernel's (q/2)·Σ_L λ_L·V_L[u²]·z, so no own kernel is built.
    """
    u2, out = o.u * o.u, np.zeros(g.N)
    for (L, lam), kappa in zip(_couplings(o.l, o.l), (1.0, *HUND_BETA[o.l][o.occupation - 1])):
        out += (kappa - less * lam) * slater_potential(u2, L, g)
    return out * z


def _exchange_terms(channel_l, orbitals, g: RadialGrid):
    """Generators of the z-space exchange operator of one angular channel.

    orbitals: the occupied RadialOrbitals feeding the kernel, each holding
    an integer number q of electrons.  In z = √(h·r)·u, where the mesh
    measure is the identity, (q_b/2)·λ_L times the multipole kernel
    r_<^L / r_>^{L+1} between the source orbital's z_b on both sides is
    diag(h)·C·diag(h) with h = √((q_b/2)·λ_L)·z_b ⊙ r^{-(L+1)},
    C_ij = c_min(i,j) and c = r^{2L+1}; weight q/2 per source reproduces the
    closed-shell operator.  The blocks (H, c) are those of `_pair_blocks`,
    one per multipole L, the rows of H the sources that couple through L.
    Each open shell of the channel (0 < q < 2(2l + 1)) adds one pin (ρ, ẑ), the
    symmetric rank-two term ρẑᵀ + ẑρᵀ mapping the action on z_b to
    `_self_exchange`: it adds d = Σ_L (κ_L − (q/2)·λ_L)·V_L[u²]·z_b to the
    blocks' (q/2)·Σ_L λ_L·V_L[u²]·z_b.  Returns (blocks, pins).
    """
    if channel_l < 0:
        raise ParameterError(f"angular momentum must be nonnegative, got l={channel_l}")
    zs = []
    for o in orbitals:
        if np.asarray(o.u).shape != g.points.shape:
            raise ParameterError(
                f"source orbital {shell_label(o.n, o.l)} is not sampled on the grid"
            )
        zs.append(u_to_z(o.u, g))
    sources = [(0.5 * o.occupation, z_b, o.l) for o, z_b in zip(orbitals, zs)]
    blocks, pins = _pair_blocks(channel_l, sources, g), []
    for o, z_b in zip(orbitals, zs):
        if o.l == channel_l and 0 < o.occupation < 2 * (2 * o.l + 1):
            d = _self_exchange(o, z_b, g, 0.5 * o.occupation)
            znorm = math.sqrt(z_b @ z_b)
            zh = z_b / znorm
            dh = d / znorm
            pins.append((dh - 0.5 * zh * float(zh @ dh), zh))
    return blocks, pins


def _exchange_action(blocks, pins, x):
    """X·x in O(N): Σ h ⊙ `_kernel`(c, h ⊙ x) per block (H, c), two dot products per pin.

    A block's rows are summed in source order, and the sum starts from the
    first block's, so where each source couples through one multipole the
    action is bit for bit that of the generators taken one at a time.
    """
    terms = [np.add.reduce(H * _kernel(c, H * x)) for H, c in blocks]
    out = terms[0] if terms else np.zeros(len(x))
    for term in terms[1:]:
        out += term
    for rho, zh in pins:
        out += rho * float(zh @ x) + zh * float(rho @ x)
    return out


def exchange_apply(orbitals, target: RadialOrbital, g: RadialGrid):
    """Apply the nonlocal exchange of the occupied orbitals to a target."""
    if np.asarray(target.u).shape != g.points.shape:
        raise ParameterError("target orbital is not sampled on the given grid")
    blocks, pins = _exchange_terms(target.l, orbitals, g)
    return z_to_u(_exchange_action(blocks, pins, u_to_z(target.u, g)), g)


# ---------------------------------------------------------------------------
# energy bookkeeping


def _shell_actions(z_nuc, orbitals, g: RadialGrid):
    """Yields (z_a, h_a·z_a, F_a·z_a) per shell a, F_a·z_a = (1/2q_a)·∂E/∂z_a of `_total_energy`.

    h_a = T_l − Z/r on the operator's tridiagonal, F_a·z_a = (h_a + V₀[ρ])·z_a −
    `_self_exchange`(a, z_a) − Σ_{b≠a} (s_ab/q_a)·X_b·z_a with s_ab of `_pair_weights` and
    X_b the `_pair_blocks` kernel of b.  λ_ab = q_a·z_b·F_a·z_a is the matrix Lagrange
    multiplier: 2(λ_ab − λ_ba) is dE/dθ of a same-l pair's rotation (Roothaan 1960).
    """
    v0 = slater_potential(build_density(orbitals, g), 0, g)
    zs = [u_to_z(a.u, g) for a in orbitals]
    for i, (a, z_a) in enumerate(zip(orbitals, zs)):
        diag, off = kinetic_tridiagonal(g, a.l)
        hz = tridiag_apply(diag - z_nuc / g.points, off, z_a)
        others = [(_pair_weights(a.occupation, a.l, b.occupation, b.l) / a.occupation, z_b, b.l)
                  for j, (b, z_b) in enumerate(zip(orbitals, zs)) if j != i]
        x = _exchange_action(_pair_blocks(a.l, others, g), (), z_a)
        yield z_a, hz, hz + v0 * z_a - _self_exchange(a, z_a, g) - x


def _total_energy(z_nuc, orbitals, g: RadialGrid) -> float:
    """Total energy ½·Σ_a q_a·z_a·(h_a + F_a)·z_a of normalized orbitals with integer occupations.

    A shell's self term −½·q·z·`_self_exchange` is the open-shell pin's own rule: its own
    energy is that of its Hund term, and one electron reduces to the bare Hamiltonian.
    """
    actions = zip(orbitals, _shell_actions(z_nuc, orbitals, g))
    return 0.5 * sum(a.occupation * float(z @ (hz + fz)) for a, (z, hz, fz) in actions)


# ---------------------------------------------------------------------------
# the channel Fock operator


@dataclass(frozen=True)
class FockOperator:
    """One channel's z-space Fock operator, applied and solved in O(N).

    F = tridiag(diag, off) − Σ_k diag(h_k)·C_k·diag(h_k) − Σ_p (ρ_p ẑ_pᵀ + ẑ_p ρ_pᵀ)
    is the kinetic stencil plus the local potential, one exchange generator
    h_k per source shell and multipole, its angular weight folded in as a
    square root, and one pin (ρ, ẑ) per open shell (see `_exchange_terms`).
    `blocks` holds the generators one multipole at a time, (H, c) with the
    h_k of that multipole in the rows of H, against the c they share.
    """

    diag: np.ndarray
    off: np.ndarray
    blocks: tuple
    pins: tuple

    def apply(self, x):
        """F·x, bit for bit `tridiag_apply(diag, off, x) − _exchange_action(blocks, pins, x)`."""
        out = tridiag_apply(self.diag, self.off, x)
        out -= _exchange_action(self.blocks, self.pins, x)
        return out

    def to_dense(self):
        """The dense, read-only matrix of the operator, for tests and checks.

        Its largest entries are about 1/(h·r_min)², so a dense eigensolver
        run on it directly resolves the low levels poorly.
        """
        F = np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)
        idx = np.arange(self.diag.size)
        lower = np.minimum.outer(idx, idx)
        for H, c in self.blocks:
            F -= (H.T @ H) * c[lower]
        for rho, zh in self.pins:
            P = np.outer(rho, zh)
            F -= P + P.T
        F.flags.writeable = False
        return F

    def shifted_solver(self, sigma):
        """x ↦ (F − σ)⁻¹x, once F − σ is certified positive definite.

        F − σ without its pins is the Schur complement S of
        M = [[blockdiag(C⁻¹), H], [Hᵀ, A − σ]]: A is the tridiagonal part,
        the block diagonal holds one C⁻¹ per generator h_k, and H stacks the
        diag(h_k) that couple its unknown y_k to x.  Each C⁻¹ is tridiagonal
        with d_i = c_i − c_{i−1}, so with the unknowns interleaved as
        (y_1[i] … y_m[i], x[i]) M is banded with bandwidth m + 1, and since
        every C⁻¹ is positive definite, M is exactly when S is: the banded
        Cholesky factor of M certifies S ≻ 0.
        The pins are U·W·Uᵀ with U = [ρ_p, ẑ_p], W = blockdiag([[0, 1], [1, 0]]) = W⁻¹,
        handled by Woodbury through the capacitance K = W⁻¹ − Uᵀ·S⁻¹·U.  By
        Haynsworth inertia additivity, In(S) + In(K) = In(W⁻¹) + In(F − σ), so
        with S ≻ 0, F − σ ≻ 0 exactly when K has the inertia of W⁻¹: one
        positive and one negative eigenvalue per pin.  Raises
        np.linalg.LinAlgError when either test fails, and before them when M
        is not finite: a grid refuses a mesh whose r^{2L+1} is not a normal
        float, but a step of c may still be too small to invert (a fine mesh
        near that limit, or a block built elsewhere), and the NaN pivots of
        an infinite C⁻¹ would pass LAPACK's positivity test.  The factor
        (pbtrf) and each solve (pbtrs) call LAPACK's banded Cholesky routines
        directly, without SciPy's per-call wrappers.
        """
        import scipy.linalg as sla  # loaded on first solve, not on import

        N, m = self.diag.size, sum(len(H) for H, _ in self.blocks)
        s = m + 1  # stride of one mesh point in the interleaved unknowns
        # lower band storage, ab[k, j] = M[j + k, j], in LAPACK's column order
        ab = np.zeros((s + 1, s * N), order="F")
        ab[0, m::s] = self.diag - sigma
        ab[s, m:-1:s] = self.off
        k = 0  # the unknown y_k of the next generator
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for H, c in self.blocks:
                inv_d = 1.0 / np.diff(c, prepend=0.0)  # once per multipole
                for h in H:
                    ab[0, k::s] = inv_d
                    ab[0, k:-s:s] += inv_d[1:]
                    ab[s, k:-s:s] = -inv_d[1:]
                    ab[m - k, k::s] = h
                    k += 1
        if not np.isfinite(ab).all():
            raise np.linalg.LinAlgError("the banded matrix M has non-finite entries")
        pbtrf, pbtrs = sla.get_lapack_funcs(("pbtrf", "pbtrs"), (ab,))
        factor, info = pbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0:  # info > 0: that leading minor is not positive; < 0: a bad argument
            raise np.linalg.LinAlgError(f"M is not positive definite (LAPACK pbtrf info={info})")

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
        SU = solve_s(U)
        K = -(U.T @ SU)
        for i in range(0, K.shape[0], 2):  # K = W⁻¹ − Uᵀ·S⁻¹·U
            K[i, i + 1] += 1.0
            K[i + 1, i] += 1.0
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
    for arr in (diag, off, *(v for b in blocks for v in b), *(v for pin in pins for v in pin)):
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
    grid's points and the mesh arrays it builds from them, and the cached
    operators' arrays, each exchange block's H and c included)
    refuses writes, and a deep copy is the state itself.  `dataclasses.replace`
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
    """Apply the state's whole channel operator for target.l to a target.

    That is `state.channel_operator(target.l)`: kinetic − Z/r + field, minus
    the exchange blocks and the open-shell pins, applied in z and returned as u.
    """
    g = state.grid
    if np.asarray(target.u).shape != g.points.shape:
        raise ParameterError("target orbital is not sampled on the state's grid")
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
        raise ParameterError("trace_energy needs a converged SCF state")
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
    bit-reproducible.  ARPACK's least work per call is ncv + 1 shift-invert
    solves, however good v0 is, so ncv = min(N, KRYLOV_PER_PAIR·count):
    5 solves for a warm one-level call (SciPy's default max(2·count + 1, 20)
    cost 21), roomy enough for channels with more levels (2·count + 1
    nearly doubles the solves of K and Ca at N=2000), and never more than
    the N that ARPACK allows.  `tol` is ARPACK's relative accuracy of the
    Ritz values of (F − σ)⁻¹ (0: machine precision); `scf_solve` passes a
    loose one far from self-consistency and FINAL_TOL_FACTOR·tol_orbital
    near it.  The shift is certified whatever the tol.

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

    OPinv = spla.LinearOperator((N, N), matvec=shift_invert, dtype=float)
    ncv = min(N, KRYLOV_PER_PAIR * count)
    try:
        # with sigma and OPinv, eigsh's 'normal' mode reads only A's shape and dtype
        vals, vecs = spla.eigsh(
            OPinv, k=count, sigma=sigma, which="LM", v0=v0, OPinv=OPinv, tol=tol, ncv=ncv
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


def _orthonormal_columns(Z):
    """Q of the QR factorization Z = QR of an (N, k) panel, R's diagonal made positive.

    That is Gram–Schmidt of Z's columns in order.  LAPACK's geqrf and orgqr
    are called directly: they are the two calls `np.linalg.qr` makes, so Q
    comes out bit for bit the same, without NumPy's per-call wrapper.
    """
    import scipy.linalg as sla  # loaded on first use, not on import

    geqrf, orgqr = sla.get_lapack_funcs(("geqrf", "orgqr"), (Z,))
    qr, tau, _, _ = geqrf(Z)  # both flag only an illegal argument in info
    signs = np.sign(np.diag(qr))  # of R's diagonal, before orgqr overwrites qr with Q
    return orgqr(qr, tau, overwrite_a=1)[0] * signs


def _orthonormal_orbitals(x, like, channels, g: RadialGrid):
    """Split x into one u-vector per shell of `like` and orthonormalize each channel.

    A channel's z-vectors, in increasing n, go through `_orthonormal_columns`,
    which is Gram–Schmidt in that order: each channel's orbitals come out
    orthonormal in z·z.
    """
    us = np.split(x, len(like))
    out = list(like)
    for members in channels.values():
        Q = _orthonormal_columns(np.column_stack([u_to_z(us[i], g) for i in members]))
        for i, q in zip(members, Q.T):
            out[i] = replace(like[i], u=z_to_u(q, g))
    return out


def _slater_charges(z, shells):
    """Slater's effective charge Z − s of each shell, at least Z/10 (Phys. Rev. 36, 57 (1930)).

    Groups (1s)(2s,2p)(3s,3p)(3d)(4s,4p)(4d)(4f)… are keyed (n, 0) or (n, l ≥ 2).  Each
    other electron of the group screens 0.35 (0.30 in 1s), each of a group to the left
    1.00, or 0.85 if it is in shell n − 1 and the screened electron is s or p.
    """
    keys = [(s.n, s.l if s.l > 1 else 0) for s in shells]
    charges = []
    for a, (ka, sa) in enumerate(zip(keys, shells)):
        screen = 0.0
        for b, (kb, sb) in enumerate(zip(keys, shells)):
            if kb == ka:
                screen += (sb.occupation - (a == b)) * (0.30 if sa.n == 1 else 0.35)
            elif kb < ka:
                screen += sb.occupation * (0.85 if sa.l < 2 and sb.n == sa.n - 1 else 1.0)
        charges.append(max(z - screen, 0.1 * z))
    return charges


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
    and the final FINAL_TOL_FACTOR·`tol_orbital` once the residual is
    below EXACT_SOLVE_FACTOR·`tol_orbital`; each trace row records the
    tolerance used as `eigensolve_tol` (after Herbst, Levitt & Cancès,
    Proc. JuliaCon Conf. 3, 69 (2021)).  The residual alone decides when to
    stop: the solve ends at the first iteration solved at the final
    tolerance whose max|Φ(x) − x| (the trace's `max_orbital_delta`) is
    below `tol_orbital`; met at a looser tolerance, it buys one more
    iteration, so the returned eigenpairs and snapshot always come from a
    solve at the final tolerance.  The start is hydrogenic at Slater's
    charges Z_eff, the first shifts at −Z_eff²/(2n²).  The energy change
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

    charges = _slater_charges(cfg.z, cfg.shells)
    start = [
        replace(hydrogenic_orbital(zeff, s.n, s.l, g), occupation=s.occupation)
        for zeff, s in zip(charges, cfg.shells)
    ]
    x = np.concatenate([o.u for o in start])
    # hydrogenic levels of the start: the first iteration's warm shifts
    eigenvalues = [-0.5 * (zeff / s.n) ** 2 for zeff, s in zip(charges, cfg.shells)]

    xs, fs = [], []  # the Anderson history, newest last
    E_prev = None
    eig_tol, final_tol = EIGSH_TOL_FACTOR, FINAL_TOL_FACTOR * cfg.scf.tol_orbital
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
        if eig_tol <= final_tol and delta_u < cfg.scf.tol_orbital:
            break
        near = delta_u < EXACT_SOLVE_FACTOR * cfg.scf.tol_orbital
        eig_tol = min(eig_tol, final_tol if near else EIGSH_TOL_FACTOR * delta_u)
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
