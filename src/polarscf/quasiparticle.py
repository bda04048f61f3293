"""Finite-basis quasiparticle layer: projectors, resolvents, pair gaps.

The matrix functions work on small dense matrices (basis dimension a few
hundred at most) and return plain NumPy matrices; each loads NumPy on
first use, not on import, so the sweep below runs without it.  The pieces
chain together: a hermitian single-particle matrix yields a free
resolvent, a self-energy model dresses it through the Dyson equation, and
the model's shift at k = 0 feeds the two-level pair quantities whose
half-splitting is the pairing gap.

The `qp` sweep needs no matrix: its levels are the eigenvalues of a
diagonal h and its self-energy is Σ = f(0)·I, which commutes with h, so
the Dyson resolvent (G₀⁻¹ − Σ)⁻¹ = ((E + iη − f(0))I − h)⁻¹ is diagonal
and its trace is a sum of scalar resolvents, one per level.

Sign bookkeeping for the mass operator: the self-energy eigenvalue f(k)
carries the shift with a minus sign, f(k) = −(ΔM(0) + ΔM(k)) with ΔM(0)
the k-independent part, so the shift the pair quantities take is
ΔM(0) = −f(0).
"""

import math
from collections import namedtuple

from .errors import ParameterError

DEFAULT_ETA = 1e-6
DEFAULT_BORN_TERMS = 30
LIGHT_THRESHOLD = 1e-3
HEAVY_THRESHOLD = 1.0
GAP_TOLERANCE = 1e-12

SELF_ENERGY_KINDS = ("zero", "constant_shift", "diagonal_polynomial")


def projector(m_state, n_state=None):
    """Rank-one density matrix |m⟩⟨n| (or |m⟩⟨m| when n is omitted).

    States are expected normalized; a numerically zero vector has no
    direction to project onto and is rejected.
    """
    import numpy as np

    m = np.asarray(m_state, dtype=complex)
    n = m if n_state is None else np.asarray(n_state, dtype=complex)
    if m.ndim != 1 or n.ndim != 1 or m.shape != n.shape:
        raise ParameterError("projector states must be vectors of equal length")
    for v in (m, n):
        if np.linalg.norm(v) < 1e-14:
            raise ParameterError("zero-norm state has no projector")
    return np.outer(m, n.conj())


# ---------------------------------------------------------------------------
# resolvents


def _check_hermitian(h, what: str):
    import numpy as np

    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ParameterError(f"{what} must be a square matrix")
    scale = max(1.0, float(np.max(np.abs(h))))
    dev = float(np.max(np.abs(h - h.conj().T)))
    if dev > 1e-10 * scale:
        raise ParameterError(f"{what} is not hermitian")
    return h


def green0(h, energy: float, eta: float = DEFAULT_ETA):
    """Free resolvent matrix ((E + iη)I − h)⁻¹.

    η < 0 is rejected outright.  η = 0 is allowed on the real axis as long
    as E is not an eigenvalue; hitting one there is a genuine pole.
    """
    import numpy as np

    h = _check_hermitian(h, "hamiltonian")
    if eta < 0.0:
        raise ParameterError(f"broadening eta must be non-negative, got {eta}")
    dim = h.shape[0]
    if eta == 0.0:
        eigs = np.linalg.eigvalsh(h)
        scale = max(1.0, float(np.max(np.abs(eigs))))
        if np.min(np.abs(energy - eigs)) < 1e-12 * scale:
            raise ParameterError(
                f"resolvent pole: E={energy} lies on the spectrum with eta=0"
            )
    A = (energy + 1j * eta) * np.eye(dim) - h
    try:
        return np.linalg.solve(A, np.eye(dim, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"resolvent solve failed at E={energy}") from exc


def dyson_solve(g0, sigma):
    """Dressed resolvent matrix from the closed Dyson form (G₀⁻¹ − Σ)⁻¹."""
    import numpy as np

    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape != np.shape(g0):
        raise ParameterError("self-energy shape does not match the resolvent")
    try:
        return np.linalg.inv(np.linalg.inv(g0) - sigma)
    except np.linalg.LinAlgError as exc:
        raise ParameterError("Dyson inversion hit a singular matrix") from exc


def dyson_born(g0, sigma, terms: int = DEFAULT_BORN_TERMS):
    """Born-series resolvent Σ_j (G₀Σ)ʲ G₀, the independent route to Dyson.

    Converges only for spectral radius ρ(G₀Σ) < 1; the caller owns that
    judgement, this routine just sums the requested number of terms.
    """
    import numpy as np

    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape != np.shape(g0):
        raise ParameterError("self-energy shape does not match the resolvent")
    if terms < 1:
        raise ParameterError("Born series needs at least one term")
    acc = np.array(g0, dtype=complex)
    term = acc.copy()
    step = acc @ sigma
    for _ in range(terms - 1):
        term = step @ term
        acc += term
    return acc


# ---------------------------------------------------------------------------
# self-energy models


class SelfEnergyModel(namedtuple("SelfEnergyModel", "kind shift coefficients")):
    """Self-energy Σ = f(k)·I in one of three shapes.

    kind:
      zero                 no interaction correction
      constant_shift       c·I with c = `shift`
      diagonal_polynomial  p(k)·I with p given by `coefficients` (powers of
                           k, ascending); odd powers are rejected because a
                           mass operator must be even in k
    """

    __slots__ = ()

    def __new__(cls, kind, shift=0.0, coefficients=()):
        if kind not in SELF_ENERGY_KINDS:
            raise ParameterError(
                f"unknown self-energy kind {kind!r}; expected one of "
                f"{SELF_ENERGY_KINDS}"
            )
        coefficients = tuple(float(c) for c in coefficients)
        if kind == "diagonal_polynomial":
            for p, c in enumerate(coefficients):
                if p % 2 == 1 and c != 0.0:
                    raise ParameterError(
                        f"odd power k^{p} breaks mass-operator evenness"
                    )
        return super().__new__(cls, kind, shift, coefficients)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through this: keep the checks
        return cls(*iterable)

    def eigenvalue_at(self, k: float) -> float:
        """Scalar eigenvalue branch f(k) of the model."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant_shift":
            return self.shift
        total = 0.0
        for c in reversed(self.coefficients):
            total = total * k + c
        return total


# ---------------------------------------------------------------------------
# pair quantities


class PairQuantities(namedtuple(
    "PairQuantities",
    "delta_m0 extremum extremum_tilde eps_plus eps_minus gap regime schrodinger_limit",
)):
    """Two-branch pair levels and their half-splitting gap."""

    __slots__ = ()


def pair_quantities(
    delta_m0: float,
    epsilon0: float,
    n_quanta: int,
    constant: float = 0.0,
) -> PairQuantities:
    """Pair extremum, branch energies and gap from the mass-operator shift.

    The gap is computed as (ε₊ − ε₋)/2 — from the branches, not from the
    algebraic shortcut −ΔM(0)/2 — so the identity between the two is a
    checkable consequence rather than a definition.
    """
    if n_quanta < 1:
        raise ParameterError(f"pair quantum number must be >= 1, got {n_quanta}")
    extremum = (delta_m0 + epsilon0) * n_quanta
    extremum_tilde = extremum - constant
    eps_plus = (extremum_tilde - delta_m0) / 2.0
    eps_minus = (extremum_tilde + delta_m0) / 2.0
    gap = (eps_plus - eps_minus) / 2.0
    if abs(delta_m0) < LIGHT_THRESHOLD and abs(gap) < LIGHT_THRESHOLD:
        regime = "light"
    elif delta_m0 >= HEAVY_THRESHOLD:
        regime = "heavy"
    else:
        regime = "indeterminate"
    return PairQuantities(
        delta_m0=float(delta_m0),
        extremum=float(extremum),
        extremum_tilde=float(extremum_tilde),
        eps_plus=float(eps_plus),
        eps_minus=float(eps_minus),
        gap=float(gap),
        regime=regime,
        schrodinger_limit=bool(abs(gap) < GAP_TOLERANCE),
    )


# ---------------------------------------------------------------------------
# spectral sweep (feeds the CSV report)


def resolvent_sweep(levels, energies, eta: float = DEFAULT_ETA, shift: float = 0.0):
    """Im Tr G along an energy grid, with pole estimates at the dips.

    G is the Dyson resolvent of h = diag(levels) dressed by Σ = shift·I,
    the constant part f(0) of the mass operator.  Σ commutes with h, so G
    is diagonal with entries 1/(E + iη − d_i) on the dressed levels
    d_i = ε_i + shift, and Im Tr G(E) = Σ_i Im 1/(E + iη − d_i) exactly.
    Each term is one complex division, which Python does by Smith's scaled
    method (Commun. ACM 5, 435, 1962): (E − d_i)² + η² is never formed, so
    neither a far level nor a huge η overflows.  The terms are added in
    level order by plain float addition (not `sum`, which compensates from
    Python 3.12 on), so an artifact keeps its bytes across versions.

    Returns (trace_imag, pole_estimates): the imaginary trace per energy,
    and the energies of its strict local minima — with broadening η the
    trace dips to about −1/η at each dressed level.  The checks are those
    of `green0` on the dressed levels: η < 0 is rejected, and with η = 0
    an energy on a dressed level is a pole.  A dressed level that is not
    finite is rejected before the sweep starts.
    """
    if eta < 0.0:
        raise ParameterError(f"broadening eta must be non-negative, got {eta}")
    dressed = []
    for e in levels:
        d = float(e) + shift
        if not math.isfinite(d):
            raise ParameterError(f"dressed level {e!r} + {shift!r} is not finite")
        dressed.append(d)
    energies = [float(E) for E in energies]
    if eta == 0.0:
        tol = 1e-12 * max([1.0] + [abs(d) for d in dressed])
        for E in energies:
            if any(abs(E - d) < tol for d in dressed):
                raise ParameterError(
                    f"resolvent pole: E={E} lies on the spectrum with eta=0"
                )
    trace_imag = []
    for E in energies:
        total = 0.0
        for d in dressed:
            total += (1.0 / complex(E - d, eta)).imag
        trace_imag.append(total)
    poles = [
        energies[i]
        for i in range(1, len(energies) - 1)
        if trace_imag[i] < trace_imag[i - 1] and trace_imag[i] < trace_imag[i + 1]
    ]
    return trace_imag, poles
