"""Self-consistent mean-field engine for spherically averaged atoms.

Everything runs on the logarithmic radial mesh from :mod:`polarscf.radial`.
The moving parts are:

* density assembly split into paired / unpaired radial densities,
* the direct (Hartree) potential of the total electron density,
* nonlocal exchange per angular channel, built from the semiseparable
  generators r^L and r^{-(L+1)} of each multipole kernel r_<^L / r_>^{L+1}
  and parity-filtered angular weights,
* one symmetric Fock matrix per occupied l-channel, diagonalized in the
  z = sqrt(r)·u coordinates where the mesh measure is flat and kept,
  read-only, in the returned state next to the field that builds any other
  channel's matrix on demand,
* a shift-invert eigensolver that asks ARPACK for exactly the occupied
  pairs of a channel, warm-started from the previous iteration's orbitals
  with a shift just below its lowest eigenvalue; a Cholesky factorization
  certifies that the shift lies below the whole spectrum, falling back to
  the bound −(Z²/2 + 2) and raising ConvergenceError if neither certifies,
* fixed-point iteration with linear mixing of the mean field, whose
  per-iteration trace (with the shifts and the eigensolver's factorizations
  and solves) is kept on the returned state, and
* trace bookkeeping that confronts the eigenvalue sum with the matrix
  quadratic form of the same converged operator.

Exchange kernels carry weight q/2 per source shell (exact for closed
shells).  Shells holding an odd electron additionally get a symmetric
rank-two correction pinning the kernel's action on its own orbital to the
monopole self-potential, so a lone electron's direct and exchange terms
cancel at the operator level, not just in expectation values.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import (
    CapacityError,
    ConsistencyError,
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
    u_to_z,
    z_to_u,
)

# The angular coupling table is tabulated exactly for s..f shells.
MAX_COUPLING_L = 3
L_LETTERS = "spdf"

DEFAULT_MAX_ITER = 200
DEFAULT_MIXING = 0.3
DEFAULT_TOL_ENERGY = 1e-8
DEFAULT_TOL_ORBITAL = 1e-6
DEFAULT_R_MAX = 50.0
DEFAULT_N_POINTS = 2000

# The shift-invert shift sits this far (hartree) below the channel's lowest
# eigenvalue of the previous iteration.
SHIFT_MARGIN = 0.1


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class ShellSpec:
    """One occupied (n, l) shell with an integer electron count."""

    n: int
    l: int
    occupation: int

    def __post_init__(self):
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


@dataclass(frozen=True)
class SCFParams:
    max_iter: int = DEFAULT_MAX_ITER
    mixing: float = DEFAULT_MIXING
    tol_energy: float = DEFAULT_TOL_ENERGY
    tol_orbital: float = DEFAULT_TOL_ORBITAL

    def __post_init__(self):
        if not (0.0 < self.mixing <= 1.0):
            raise ParameterError(f"mixing factor must lie in (0, 1], got {self.mixing}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be positive, got {self.max_iter}")
        if self.tol_energy <= 0 or self.tol_orbital <= 0:
            raise ParameterError("convergence tolerances must be positive")


@dataclass(frozen=True)
class AtomConfig:
    z: float
    shells: tuple[ShellSpec, ...]
    grid: GridParams = GridParams()
    scf: SCFParams = SCFParams()

    def __post_init__(self):
        if self.z <= 0:
            raise ParameterError(f"nuclear charge must be positive, got {self.z}")
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

    @property
    def electron_count(self) -> int:
        return sum(s.occupation for s in self.shells)

    def resolved_grid(self) -> RadialGrid:
        r_min = self.grid.r_min if self.grid.r_min is not None else 1e-6 / self.z
        return make_grid(r_min, self.grid.r_max, self.grid.n_points)


# ---------------------------------------------------------------------------
# angular coupling weights


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


@dataclass(frozen=True)
class DensityMatrix:
    """Radial density split into paired and unpaired parts.

    `diagonal` is the paired ("pair") radial density Σ_b floor(q_b/2)·u_b²,
    integrating to the pair count; `unpaired` holds the leftover odd
    electrons.
    """

    diagonal: np.ndarray
    unpaired: np.ndarray
    pair_count: int

    def total(self):
        return 2.0 * self.diagonal + self.unpaired


def build_density(orbitals, g: RadialGrid) -> DensityMatrix:
    """Assemble the radial density from occupied orbitals.

    Each orbital must be normalized on g; its `occupation` counts electrons.
    """
    diag = np.zeros(g.N)
    unpaired = np.zeros(g.N)
    pairs = 0
    for o in orbitals:
        nrm = integrate(o.u * o.u, g)
        if abs(nrm - 1.0) > 1e-6:
            raise PreconditionError(
                f"orbital {shell_label(o.n, o.l)} is not normalized: <u|u> = {nrm!r}"
            )
        q = int(round(o.occupation))
        p = q // 2
        pairs += p
        diag += p * o.u**2
        unpaired += (q - 2 * p) * o.u**2
    return DensityMatrix(diagonal=diag, unpaired=unpaired, pair_count=pairs)


def hartree_potential(rho, g: RadialGrid):
    """Direct electrostatic potential of the electron density (hartree).

    Accepts a DensityMatrix (pair part enters twice, once per electron of
    each pair, plus the unpaired remainder) or a plain sampled density.
    r·V tends to the enclosed electron charge at large r.
    """
    if isinstance(rho, DensityMatrix):
        source = rho.total()
    else:
        source = np.asarray(rho, dtype=float)
    if source.shape != g.points.shape:
        raise ShapeError(f"density has shape {source.shape}, grid has {g.points.shape}")
    return slater_potential(source, 0, g)


def weighted_trace(rho, op) -> float:
    """Trace of rho·op for dense matrices (density-matrix averaging)."""
    rho = np.asarray(rho)
    op = np.asarray(op)
    if rho.shape != op.shape or rho.ndim != 2:
        raise ShapeError(f"incompatible shapes {rho.shape} and {op.shape}")
    return float(np.einsum("ij,ji->", rho, op))


# ---------------------------------------------------------------------------
# exchange kernels


def _pair_weights(q_a: int, l_a: int, q_b: int, l_b: int) -> float:
    """Same-spin pairing count between two shells for the exchange energy."""
    w_a = min(q_a, 2 * l_a + 1)
    w_b = min(q_b, 2 * l_b + 1)
    return w_a * w_b + (q_a - w_a) * (q_b - w_b)


def _exchange_z_matrix(channel_l, orbitals, g: RadialGrid):
    """Symmetric z-space exchange matrix for one angular channel.

    orbitals: the occupied RadialOrbitals feeding the kernel, each holding
    q electrons.  The kernel r_<^L / r_>^{L+1} is semiseparable, so each
    source block is the upper triangle of Σ_L λ_L·outer(a_L, b_L) with
    a_L = h·z_b·r^L and b_L = z_b·r^{-(L+1)}, mirrored to exact symmetry and
    scaled by the end-corrected quadrature factor 0.5·(e_i + e_j).  Weight
    q/2 per source reproduces the closed-shell operator; odd shells get the
    rank-two self-action correction described in the module docstring.
    """
    if channel_l < 0:
        raise ParameterError(f"angular momentum must be nonnegative, got l={channel_l}")
    r, h = g.points, g.log_step
    e = g.weights / (h * r)  # end-corrected quadrature factors, exactly 1 inside
    ends, inner = np.flatnonzero(e != 1.0), np.flatnonzero(e == 1.0)
    # 0.5·(e_i + e_j) is 1 unless row or column touches an end: scale only those
    end_rows = 0.5 * (e[ends, None] + e[None, :])
    end_cols = 0.5 * (e[inner, None] + e[None, ends])
    upper = ~np.tri(g.N, k=-1, dtype=bool)  # r_i <= r_j
    X = np.zeros((g.N, g.N))
    for o in orbitals:
        u_b, l_b, q_b = o.u, o.l, int(round(o.occupation))
        z_b = u_to_z(u_b, g)
        terms = (
            np.outer(angular_weight(channel_l, L, l_b) * h * z_b * r**L, z_b * r ** -(L + 1))
            for L in _multipoles(channel_l, l_b)
        )
        M = next(terms)
        for term in terms:
            M += term
        M = np.where(upper, M, M.T)
        M[ends, :] *= end_rows
        M[np.ix_(inner, ends)] *= end_cols
        pinned = q_b % 2 == 1 and l_b == channel_l
        if pinned:
            Mz = M @ z_b
        # weight q/2 in place: every N×N temporary costs memory and page faults
        M *= 0.5 * q_b
        X += M
        if pinned:
            # Pin the kernel's action on its own orbital: for q=1 the target
            # is the bare monopole self-potential (so direct and exchange
            # cancel exactly); for odd q>=3 it is the energy-consistent
            # diagonal weight.
            base_action = (0.5 * q_b) * Mz
            if q_b == 1:
                t = slater_potential(u_b * u_b, 0, g) * z_b
            else:
                s_bb = _pair_weights(q_b, l_b, q_b, l_b)
                t = (s_bb / q_b) * Mz
            d = t - base_action
            znorm = float(np.linalg.norm(z_b))
            zh = z_b / znorm
            dh = d / znorm
            rho = dh - 0.5 * zh * float(zh @ dh)
            P = np.outer(rho, zh)
            P += P.T
            X += P
    return X


def exchange_apply(orbitals, target: RadialOrbital, g: RadialGrid):
    """Apply the nonlocal exchange of the occupied orbitals to a target."""
    if np.asarray(target.u).shape != g.points.shape:
        raise ShapeError("target orbital is not sampled on the given grid")
    X = _exchange_z_matrix(target.l, orbitals, g)
    return z_to_u(X @ u_to_z(target.u, g), g)


# ---------------------------------------------------------------------------
# energy bookkeeping


def _coulomb_integral(fa, fb, L, g):
    return integrate(fa * slater_potential(fb, L, g), g)


def _tridiag_apply(diag, off, z):
    out = diag * z
    out[:-1] += off * z[1:]
    out[1:] += off * z[:-1]
    return out


def _kinetic_expectation(u, l, g: RadialGrid) -> float:
    z = u_to_z(u, g)
    diag, off = kinetic_tridiagonal(g, l)
    he = g.weights / g.points
    return float(np.sum(he * z * _tridiag_apply(diag, off, z)))


def _total_energy(z_nuc, orbitals, g: RadialGrid) -> float:
    """Mean-field total energy of the current orbital set.

    orbitals: RadialOrbitals with integer occupations.  Direct term pairs
    all electrons; the exchange term weights each shell pair by its
    same-spin count, with the bare monopole for a lone electron's self term
    so one-electron systems reduce exactly to the bare Hamiltonian.
    """
    E = 0.0
    for a in orbitals:
        h_a = _kinetic_expectation(a.u, a.l, g) + integrate(
            -z_nuc / g.points * a.u**2, g
        )
        E += a.occupation * h_a
    for a in orbitals:
        for b in orbitals:
            F0 = _coulomb_integral(a.u**2, b.u**2, 0, g)
            E += 0.5 * a.occupation * b.occupation * F0
    for a in orbitals:
        for b in orbitals:
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
            E -= 0.5 * s_ab * acc
    return E


def _fock_matrix(l, z_nuc, vsc, X, g: RadialGrid):
    """Channel-l Fock matrix T_l + (−Z/r + vsc) − X, dense in z-space, read-only."""
    diag, off = kinetic_tridiagonal(g, l)
    idx = np.arange(g.N)
    C = np.zeros((g.N, g.N))
    C[idx, idx] = diag + (-z_nuc / g.points + vsc)
    C[idx[:-1], idx[1:]] += off
    C[idx[1:], idx[:-1]] += off
    C -= X
    C.flags.writeable = False
    return C


# ---------------------------------------------------------------------------
# SCF state


@dataclass
class SCFState:
    """Converged (or abandoned) mean-field solution.

    Per occupied l-channel it keeps the read-only Fock matrix the eigensolver
    last diagonalized (`_fock`); `_vsc` is the field other channels' matrices
    are built from on demand, and `_token` fingerprints orbitals and field so
    that edits made after the solve are caught.  `trace` has one row per
    iteration, the same rows a ConvergenceError carries: energy, changes,
    the shift per channel, and the eigensolver's factorizations and
    shift-invert solves summed over channels.

    epsilon0 is the eigenvalue offset constant of the trace relation; the
    plain SCF works in the gauge where it is exactly zero, and downstream
    quasiparticle bookkeeping may carry a nonzero value.
    """

    z: float
    orbitals: list
    eigenvalues: list
    total_energy: float
    converged: bool
    iterations: int
    grid: RadialGrid
    config: AtomConfig
    epsilon0: float = 0.0
    trace: list = field(default_factory=list, repr=False)
    _vsc: np.ndarray = field(default=None, repr=False)
    _fock: dict = field(default_factory=dict, repr=False)
    _token: str = field(default="", repr=False)

    def channel_matrix(self, l: int):
        """Dense, read-only z-space Fock matrix of one angular channel.

        Occupied channels return the exact matrix whose eigenvectors are
        the stored orbitals; other channels are assembled on demand from the
        converged field.
        """
        self._check_token()
        if l in self._fock:
            return self._fock[l]
        X = _exchange_z_matrix(l, self.orbitals, self.grid)
        return _fock_matrix(l, self.z, self._vsc, X, self.grid)

    def _check_token(self):
        if self._token and _orbital_token(self.orbitals, self._vsc) != self._token:
            raise ConsistencyError(
                "SCF state caches are stale: orbitals or fields were modified "
                "after the solve"
            )


def _orbital_token(orbitals, vsc) -> str:
    hsh = hashlib.sha256()
    for o in orbitals:
        hsh.update(np.ascontiguousarray(o.u).tobytes())
    if vsc is not None:
        hsh.update(np.ascontiguousarray(vsc).tobytes())
    return hsh.hexdigest()


def fock_apply(state: SCFState, target: RadialOrbital):
    """Apply the converged Fock operator (kinetic − Z/r + field) to a target."""
    g = state.grid
    if np.asarray(target.u).shape != g.points.shape:
        raise ShapeError("target orbital is not sampled on the state's grid")
    C = state.channel_matrix(target.l)
    return z_to_u(C @ u_to_z(target.u, g), g)


def trace_energy(state: SCFState):
    """Eigenvalue sum vs. density-matrix trace of the same operator.

    Returns (sum_eigen, trace_lhs) over the paired orbitals: the first from
    the solver's eigenvalues, the second from the matrix quadratic form.
    Equal up to the epsilon0·N offset convention (zero in the SCF gauge).
    """
    if not state.converged:
        raise PreconditionError("trace_energy needs a converged SCF state")
    state._check_token()
    g = state.grid
    he = g.weights / g.points
    sum_eigen = 0.0
    trace_lhs = 0.0
    for o, eps in zip(state.orbitals, state.eigenvalues):
        pairs = int(round(o.occupation)) // 2
        if pairs == 0:
            continue
        sum_eigen += pairs * (eps + state.epsilon0)
        C = state.channel_matrix(o.l)
        z = u_to_z(o.u, g)
        trace_lhs += pairs * float(np.sum(he * z * (C @ z)))
    return sum_eigen, trace_lhs


# ---------------------------------------------------------------------------
# the SCF loop


def _solve_channel(C, count, z_nuc, eps_low, v0):
    """Lowest `count` eigenpairs of a dense symmetric z-space Fock matrix.

    ARPACK shift-invert Lanczos converges at a rate set by the spacing of
    1/(λ − σ) near the wanted end, so the shift σ is put SHIFT_MARGIN below
    eps_low, the channel's lowest eigenvalue from the previous iteration.
    σ is certified below the whole spectrum by a Cholesky factorization of
    C − σI, which succeeds exactly when C − σI is positive definite.  If it
    fails, the bound −(Z²/2 + 2) is tried instead, and if that fails too a
    ConvergenceError is raised rather than returning eigenpairs that may not
    be the lowest.  The factor is handed to ARPACK as the shift-invert
    operator and exactly `count` pairs are asked for, starting from v0 (the
    channel's previous orbitals summed), which keeps runs bit-reproducible.

    Returns (values, vectors, work) with values ascending and work holding
    the shift, the number of factorizations and of shift-invert solves.
    """
    N = C.shape[0]
    A = np.empty_like(C, order="F")  # C − σI, factored in place
    sigmas = (eps_low - SHIFT_MARGIN, -(0.5 * z_nuc**2 + 2.0))
    for tries, sigma in enumerate(sigmas, start=1):
        A[...] = C
        A.flat[:: N + 1] -= sigma
        try:
            factor = sla.cho_factor(A, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            continue
        break
    else:
        raise ConvergenceError(
            f"no certified shift: C - sigma*I is indefinite for sigma in {sigmas}"
        )
    solves = 0

    def shift_invert(b):
        nonlocal solves
        solves += 1
        return sla.cho_solve(factor, b, check_finite=False)

    op = spla.LinearOperator((N, N), matvec=shift_invert, dtype=float)
    vals, vecs = spla.eigsh(C, k=count, sigma=sigma, which="LM", v0=v0, OPinv=op)
    order = np.argsort(vals)
    work = {"shift": float(sigma), "factorizations": tries, "shift_invert_solves": solves}
    return vals[order], vecs[:, order], work


def scf_solve(cfg: AtomConfig) -> SCFState:
    """Self-consistent solve of the mean-field equations for one atom.

    Fixed point of: build density → build direct/exchange field →
    diagonalize each occupied l-channel → reoccupy in eigenvalue order →
    linear field mixing.  Raises ConvergenceError (with the iteration
    trace attached) if max_iter passes without meeting both tolerances.
    """
    g = cfg.resolved_grid()
    # indices into cfg.shells per l-channel, each list in increasing n
    channels: dict[int, list[int]] = {}
    for i, s in sorted(enumerate(cfg.shells), key=lambda e: (e[1].l, e[1].n)):
        channels.setdefault(s.l, []).append(i)

    # bare-nucleus starting guess, in cfg.shells order
    orbitals = [
        replace(hydrogenic_orbital(cfg.z, s.n, s.l, g), occupation=s.occupation)
        for s in cfg.shells
    ]
    # hydrogenic levels of the start: the first iteration's warm shifts
    eigenvalues = [-0.5 * (cfg.z / s.n) ** 2 for s in cfg.shells]

    vsc_mix = None
    xz_mix: dict[int, np.ndarray] = {}
    fock: dict[int, np.ndarray] = {}
    E_prev = None
    trace = []
    alpha = cfg.scf.mixing

    for it in range(1, cfg.scf.max_iter + 1):
        fock.clear()  # last iteration's matrices must not outlive the new exchange
        vsc_new = hartree_potential(build_density(orbitals, g), g)
        if vsc_mix is None:
            vsc_mix = vsc_new
        else:
            vsc_mix = (1.0 - alpha) * vsc_mix + alpha * vsc_new
        for l in channels:
            X = _exchange_z_matrix(l, orbitals, g)
            if l in xz_mix:
                # (1 − α)·X_mix + α·X, in place
                xz_mix[l] *= 1.0 - alpha
                X *= alpha
                xz_mix[l] += X
            else:
                xz_mix[l] = X
            del X  # not alive while the next exchange matrix is built

        new_orbitals = list(orbitals)
        row = {"shift": {}, "factorizations": 0, "shift_invert_solves": 0}
        for l, members in channels.items():
            fock[l] = _fock_matrix(l, cfg.z, vsc_mix, xz_mix[l], g)
            v0 = sum(u_to_z(orbitals[i].u, g) for i in members)
            try:
                vals, vecs, work = _solve_channel(
                    fock[l], len(members), cfg.z, eigenvalues[members[0]], v0
                )
            except ConvergenceError as exc:
                raise ConvergenceError(f"iteration {it}, l={l}: {exc}", trace=trace) from None
            row["shift"][l] = work["shift"]
            row["factorizations"] += work["factorizations"]
            row["shift_invert_solves"] += work["shift_invert_solves"]
            for rank, i in enumerate(members):
                z = vecs[:, rank]
                if z[np.argmax(np.abs(z))] < 0:
                    z = -z
                u = z_to_u(z, g)
                u = u / math.sqrt(integrate(u * u, g))
                eigenvalues[i] = float(vals[rank])
                new_orbitals[i] = replace(orbitals[i], u=u)

        delta_u = max(
            float(np.max(np.abs(new.u - old.u))) for new, old in zip(new_orbitals, orbitals)
        )
        orbitals = new_orbitals

        E_new = _total_energy(cfg.z, orbitals, g)
        delta_E = abs(E_new - E_prev) if E_prev is not None else float("inf")
        trace.append(
            {
                "iteration": it,
                "total_energy": E_new,
                "delta_energy": delta_E if math.isfinite(delta_E) else None,
                "max_orbital_delta": delta_u,
                **row,
            }
        )
        E_prev = E_new
        if delta_E < cfg.scf.tol_energy and delta_u < cfg.scf.tol_orbital:
            break
    else:
        raise ConvergenceError(
            f"SCF did not converge within {cfg.scf.max_iter} iterations "
            f"(last dE = {trace[-1]['delta_energy']!r}, "
            f"last du = {trace[-1]['max_orbital_delta']:.3e})",
            trace=trace,
        )

    order = [i for members in channels.values() for i in members]
    state = SCFState(
        z=cfg.z,
        orbitals=[orbitals[i] for i in order],
        eigenvalues=[eigenvalues[i] for i in order],
        total_energy=E_prev,
        converged=True,
        iterations=it,
        grid=g,
        config=cfg,
        trace=trace,
        _vsc=vsc_mix,
        _fock=fock,
    )
    state._token = _orbital_token(state.orbitals, vsc_mix)
    return state


def state_summary(state: SCFState) -> dict:
    """Plain-data summary of a solve, in the stable field order."""
    return {
        "z": state.z,
        "shells": [
            f"{shell_label(o.n, o.l)}:{int(round(o.occupation))}"
            for o in state.orbitals
        ],
        "eigenvalues_hartree": [float(e) for e in state.eigenvalues],
        "total_energy_hartree": float(state.total_energy),
        "iterations": state.iterations,
        "converged": state.converged,
    }
