"""Logarithmic radial mesh, quadrature, analytic hydrogen-like orbitals and
the kinetic-energy stencil in the log variable.

Conventions (Hartree atomic units): orbitals are stored as the reduced radial
function u(r) = r*R(r).  The mesh is geometric, r_i = r_min * exp(i*h), so
the log variable x = ln r is uniform with step h, and the one quadrature is
∫f dr = ∫f r dx ≈ h*Σ r_i*f_i: the weights are h*r_i, for integrands that
vanish at both ends of the mesh, as bound orbitals and their products do.

The solvers work in z = sqrt(h*r)*u, where that measure is the identity:
`integrate(u*v, g)` = h*Σ r*u*v is exactly the plain dot product z·z', the
one metric of the kinetic stencil, the Fock operator and every norm and
overlap of the mean-field solve.
"""

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ParameterError, ShapeError

MIN_SOLVER_POINTS = 16


@dataclass(frozen=True)
class RadialGrid:
    points: np.ndarray
    log_step: float  # h, the step of x = ln r: r_{i+1}/r_i = exp(h)

    def __post_init__(self):
        r, h = self.points, self.log_step
        if r.ndim != 1 or len(r) < 2:
            raise ParameterError("grid needs at least 2 increasing points")
        if r[0] <= 0.0 or np.any(np.diff(r) <= 0.0):
            raise ParameterError("grid points must be positive and strictly increasing")
        ratio = math.exp(h)
        if not np.max(np.abs(r[1:] / r[:-1] - ratio)) <= 1e-12 * ratio:
            raise ParameterError(
                f"grid is not geometric with log_step {h!r} (ratio drift exceeds 1e-12)"
            )
        # the kinetic stencil's largest entries are about 1/(h*r_min)^2, and it
        # divides by r_i*r_{i+1}, which reaches r_max^2
        if (h * r[0]) ** 2 * sys.float_info.max < 1.0:
            raise ParameterError(
                f"r_min {float(r[0])!r} is too small: the kinetic stencil 1/(h*r_min)^2 overflows"
            )
        if r[-1] / sys.float_info.max * r[-1] > 1.0:
            raise ParameterError(
                f"r_max {float(r[-1])!r} is too large: the kinetic stencil's r_max^2 overflows"
            )

    @property
    def N(self):
        return len(self.points)

    @property
    def r_min(self):
        return float(self.points[0])

    @property
    def r_max(self):
        return float(self.points[-1])

    @cached_property
    def weights(self):
        """Quadrature weights h*r_i, derived from the mesh once and read-only."""
        w = self.log_step * self.points
        w.flags.writeable = False
        return w


def make_grid(r_min: float, r_max: float, N: int) -> RadialGrid:
    """Geometric mesh of N points on [r_min, r_max].

    Parameters
    ----------
    r_min, r_max : float
        Positive interval bounds in bohr, r_min < r_max.
    N : int
        Point count (>= 2; the SCF / kinetic path additionally requires
        N >= 16 and raises its own capacity error below that).
    """
    if not (0.0 < r_min < r_max):
        raise ParameterError(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    if N < 2:
        raise ParameterError(f"need N >= 2 grid points, got {N}")
    ratio = r_max / r_min
    if not math.isfinite(ratio):
        raise ParameterError(f"r_max/r_min overflows for ({r_min}, {r_max})")
    h = math.log(ratio) / (N - 1)
    r = r_min * np.exp(h * np.arange(N))
    r[-1] = r_max  # exact endpoint
    r.flags.writeable = False
    return RadialGrid(points=r, log_step=h)


def integrate(f, g: RadialGrid) -> float:
    """h*Σ r*f: the mesh quadrature of f, which is z·z' for f = u*u'."""
    f = np.asarray(f)
    if f.shape != g.points.shape:
        raise ShapeError(f"sample length {f.shape} does not match grid {g.points.shape}")
    return float(np.dot(f, g.weights))


@dataclass(frozen=True)
class RadialOrbital:
    """Sampled u(r) = r*R(r) with quantum numbers and its electron count.

    `occupation` is checked once, here: an integral float or NumPy integer
    is stored as an int, and a fractional or negative count raises.
    """

    u: np.ndarray
    n: int
    l: int
    occupation: int = 0

    def __post_init__(self):
        q = float(self.occupation)
        if not (q.is_integer() and q >= 0.0):
            raise ParameterError(f"occupation must be an integer >= 0, got {self.occupation!r}")
        object.__setattr__(self, "occupation", int(q))


def hydrogenic_orbital(Z: float, n: int, l: int, g: RadialGrid) -> RadialOrbital:
    """Analytic hydrogen-like u_{nl} sampled on the grid.

    u(r) = r * R_nl(r) with the textbook Laguerre form
    R_nl = (2Z/n)^{3/2} sqrt((n-l-1)!/(2n (n+l)!)) e^{-x/2} x^l L^{2l+1}_{n-l-1}(x),
    x = 2Zr/n.  The generalized Laguerre polynomial L^a_{n-l-1}, a = 2l+1,
    comes from the three-term recurrence
    (k+1) L^a_{k+1} = (2k+1+a-x) L^a_k - (k+a) L^a_{k-1}, L^a_0 = 1,
    L^a_1 = 1+a-x.  Renormalized on the grid, so <u|u> = z·z = 1.
    """
    if Z <= 0:
        raise ParameterError(f"Z must be positive, got {Z}")
    if n < 1 or not (0 <= l < n):
        raise ParameterError(f"invalid quantum numbers (n={n}, l={l})")
    r = g.points
    x = 2.0 * Z * r / n
    norm = (2.0 * Z / n) ** 1.5 * math.sqrt(
        math.factorial(n - l - 1) / (2.0 * n * math.factorial(n + l))
    )
    a = 2 * l + 1
    lag_prev, lag = np.zeros_like(x), np.ones_like(x)
    for k in range(n - l - 1):
        lag_prev, lag = lag, ((2 * k + 1 + a - x) * lag - (k + a) * lag_prev) / (k + 1)
    u = r * (norm * np.exp(-x / 2.0) * x**l * lag)
    nrm = math.sqrt(integrate(u * u, g))
    if nrm == 0.0:
        raise ParameterError("cannot normalize a zero orbital")
    return RadialOrbital(u=u / nrm, n=n, l=l)


def kinetic_tridiagonal(g: RadialGrid, l: int):
    """Diagonal and off-diagonal of the kinetic+centrifugal matrix in z-space.

    Through the symmetric substitution u = sqrt(r) y the operator becomes
    (1/r^2)[-1/2 d^2/dx^2 + (l+1/2)^2/2] y in the uniform log variable x,
    discretized by the three-point stencil.  z = sqrt(h r) u makes the mesh
    measure the identity, so <u|T|u> = z·(C z) with C_ij = A_ij / (r_i r_j),
    A = -1/2 D2 + (l+1/2)^2/2, symmetric tridiagonal.  Near the origin
    y ~ r^(l+1/2), so the ghost value below the mesh is
    y_{-1} = exp(-(l+1/2) h) y_0, which folds into the first diagonal entry.
    Local potentials add to the diagonal as plain V(r_i).
    """
    if g.N < MIN_SOLVER_POINTS:
        raise CapacityError(f"solver grid needs N >= {MIN_SOLVER_POINTS}, got {g.N}")
    r = g.points
    h = g.log_step
    diag = (1.0 / h**2 + 0.5 * (l + 0.5) ** 2) / r**2
    diag[0] -= 0.5 / h**2 * math.exp(-(l + 0.5) * h) / r[0] ** 2
    off = (-0.5 / h**2) / (r[:-1] * r[1:])
    return diag, off


def tridiag_apply(diag, off, z):
    """Symmetric tridiagonal matrix with diagonal diag and off-diagonal off, times z."""
    out = diag * z
    out[:-1] += off * z[1:]
    out[1:] += off * z[:-1]
    return out


def u_to_z(u, g: RadialGrid):
    """Orthonormal mesh coordinate z = sqrt(h*r)*u: h*Σ r*u*v is z·z'."""
    return np.asarray(u) * np.sqrt(g.log_step * g.points)


def z_to_u(z, g: RadialGrid):
    return np.asarray(z) / np.sqrt(g.log_step * g.points)


def node_count(u) -> int:
    """Sign changes of u over samples with magnitude above the noise floor.

    Samples no larger than 1e-8 times the peak magnitude are skipped.
    """
    u = np.asarray(u)
    s = np.sign(u[np.abs(u) > 1e-8 * np.max(np.abs(u))])
    return int(np.count_nonzero(s[1:] != s[:-1]))
