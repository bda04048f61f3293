"""Mean-field machinery: coupling weights, potentials, exchange, SCF."""

import copy
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from polarscf.errors import (
    CapacityError,
    ConsistencyError,
    ConvergenceError,
    ParameterError,
    PreconditionError,
)
from polarscf.hfcore import (
    AtomConfig,
    DensityMatrix,
    GridParams,
    SCFParams,
    SCFState,
    ShellSpec,
    _exchange_z_matrix,
    _solve_channel,
    angular_weight,
    build_density,
    exchange_apply,
    fock_apply,
    hartree_potential,
    scf_solve,
    shell_label,
    slater_potential,
    state_summary,
    trace_energy,
    weighted_trace,
)
from polarscf.radial import (
    RadialOrbital,
    hydrogenic_orbital,
    inner,
    integrate,
    kinetic_apply,
    make_grid,
    u_to_z,
)


# ---------------------------------------------------------------------------
# angular weights


@pytest.mark.parametrize(
    "l, L, lp, expected",
    [
        (0, 0, 0, Fraction(1)),
        (1, 0, 1, Fraction(1, 3)),
        (2, 0, 2, Fraction(1, 5)),
        (0, 1, 1, Fraction(1, 3)),
        (1, 1, 0, Fraction(1, 3)),
        (1, 2, 1, Fraction(2, 15)),
        (0, 2, 2, Fraction(1, 5)),
        (2, 2, 2, Fraction(2, 35)),
        (1, 3, 2, Fraction(3, 35)),
        (1, 1, 1, Fraction(0)),  # parity
        (0, 1, 0, Fraction(0)),  # triangle
        (1, 4, 2, Fraction(0)),  # triangle
    ],
)
def test_angular_weight_table(l, L, lp, expected):
    # reference values are squared (l L l'; 0 0 0) couplings from the
    # standard closed form, entered as exact fractions
    assert abs(angular_weight(l, L, lp) - float(expected)) < 1e-15


def test_angular_weight_capacity():
    with pytest.raises(CapacityError):
        angular_weight(4, 0, 4)
    with pytest.raises(ParameterError):
        angular_weight(-1, 0, 1)


# ---------------------------------------------------------------------------
# radial potentials


@pytest.fixture(scope="module")
def fine_grid():
    return make_grid(1e-6, 60.0, 3000)


def test_slater_monopole_closed_form(fine_grid):
    """Y0 of the 1s density against 1/r - e^{-2r}(1 + 1/r)."""
    g = fine_grid
    r = g.points
    o = hydrogenic_orbital(1.0, 1, 0, g)
    V = slater_potential(o.u**2, 0, g)
    exact = 1.0 / r - np.exp(-2.0 * r) * (1.0 + 1.0 / r)
    sel = (r > 0.05) & (r < 30.0)
    assert np.max(np.abs(V[sel] - exact[sel]) / np.abs(exact[sel])) < 1e-5


def test_slater_dipole_closed_form(fine_grid):
    # L=1 kernel on the hydrogen 2p density; both cumulants are elementary
    g = fine_grid
    r = g.points
    f = r**4 * np.exp(-r) / 24.0
    V = slater_potential(f, 1, g)
    poly = r**5 + 5 * r**4 + 20 * r**3 + 60 * r**2 + 120 * r + 120
    inner_part = (120.0 - np.exp(-r) * poly) / 24.0
    outer_part = np.exp(-r) * (r**2 + 2.0 * r + 2.0) / 24.0
    exact = inner_part / r**2 + r * outer_part
    sel = (r > 0.05) & (r < 30.0)
    assert np.max(np.abs(V[sel] - exact[sel]) / np.abs(exact[sel])) < 5e-5


def test_hartree_unit_density_origin(fine_grid):
    """A single 1s electron: V(0) = <1/r> = 1 for Z = 1."""
    g = fine_grid
    o = hydrogenic_orbital(1.0, 1, 0, g)
    orb = RadialOrbital(u=o.u, n=1, l=0, occupation=1.0)
    rho = build_density([orb], g)
    assert rho.pair_count == 0
    V = hartree_potential(rho, g)
    assert abs(V[0] - 1.0) < 1e-9


def test_hartree_charge_asymptote(fine_grid):
    g = fine_grid
    o = hydrogenic_orbital(2.0, 1, 0, g)
    orb = RadialOrbital(u=o.u, n=1, l=0, occupation=2.0)
    rho = build_density([orb], g)
    assert rho.pair_count == 1
    assert np.allclose(rho.total(), 2.0 * o.u**2, atol=1e-15)
    V = hartree_potential(rho, g)
    assert abs(g.points[-1] * V[-1] - 2.0) < 1e-8


def test_build_density_requires_normalization(fine_grid):
    g = fine_grid
    o = hydrogenic_orbital(1.0, 1, 0, g)
    bad = RadialOrbital(u=1.1 * o.u, n=1, l=0, occupation=1.0)
    with pytest.raises(PreconditionError):
        build_density([bad], g)


def test_weighted_trace_matches_einsum():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 6))
    B = rng.standard_normal((6, 6))
    assert weighted_trace(A, B) == pytest.approx(np.trace(A @ B), rel=1e-13)


# ---------------------------------------------------------------------------
# exchange


@pytest.mark.parametrize("Z", [1.0, 2.0])
def test_exchange_integral_five_eighths(Z, fine_grid):
    """Closed 1s^2 self-exchange equals the textbook 5Z/8."""
    g = fine_grid
    o = hydrogenic_orbital(Z, 1, 0, g)
    V = slater_potential(o.u**2, 0, g)
    K = integrate(o.u**2 * V, g)
    assert abs(K - 5.0 * Z / 8.0) < 1e-4


def test_exchange_cancels_direct_for_one_electron(h_run):
    """Self-interaction: direct and exchange agree exactly on the orbital."""
    state, _ = h_run
    g = state.grid
    o = state.orbitals[0]
    rho = build_density(state.orbitals, g)
    direct = hartree_potential(rho, g) * o.u
    exch = exchange_apply(state.orbitals, o, g)
    resid = np.sqrt(float(np.sum(g.weights * (direct - exch) ** 2)))
    assert resid < 1e-12


@pytest.mark.parametrize("channel_l", [0, 1, 2])
def test_exchange_matrix_matches_dense_kernel(channel_l):
    """Semiseparable assembly against the dense r_<^L / r_>^{L+1} formula.

    Only even occupations, so no odd-shell pin enters the matrix.
    """
    Z = 10.0
    g = make_grid(1e-6 / Z, 40.0, 400)
    sources = [
        replace(hydrogenic_orbital(Z, n, l, g), occupation=q)
        for n, l, q in [(1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 2, 10)]
    ]
    r, h = g.points, g.log_step
    e = g.weights / (h * r)
    e_pair = 0.5 * (e[:, None] + e[None, :])
    r_lo, r_hi = np.minimum.outer(r, r), np.maximum.outer(r, r)
    X_ref = np.zeros((g.N, g.N))
    for o in sources:
        z_b = np.sqrt(r) * o.u
        for L in range(abs(channel_l - o.l), channel_l + o.l + 1):
            lam = angular_weight(channel_l, L, o.l)
            K_L = r_lo**L / r_hi ** (L + 1)
            X_ref += (0.5 * o.occupation) * lam * h * (np.outer(z_b, z_b) * K_L) * e_pair
    X = _exchange_z_matrix(channel_l, sources, g)
    assert np.max(np.abs(X - X_ref)) <= 1e-14 * np.max(np.abs(X_ref))
    assert np.array_equal(X, X.T)


def test_negative_angular_momentum_rejected(h_run):
    state, _ = h_run
    g = state.grid
    target = RadialOrbital(state.orbitals[0].u, n=1, l=-1)
    with pytest.raises(ParameterError):
        state.channel_matrix(-1)
    with pytest.raises(ParameterError):
        exchange_apply(state.orbitals, target, g)
    with pytest.raises(ParameterError):
        fock_apply(state, target)


# ---------------------------------------------------------------------------
# configurations


def test_shell_spec_validation():
    with pytest.raises(ParameterError):
        ShellSpec(0, 0, 1)
    with pytest.raises(ParameterError):
        ShellSpec(1, 1, 1)  # l must stay below n
    with pytest.raises(ParameterError):
        ShellSpec(2, 1, 7)  # p shell holds six
    with pytest.raises(ParameterError):
        ShellSpec(1, 0, 0)
    assert ShellSpec(3, 2, 10).label == "3d"
    assert shell_label(2, 1) == "2p"


def test_atom_config_validation():
    with pytest.raises(ParameterError):
        AtomConfig(z=-1.0, shells=((1, 0, 1),))
    with pytest.raises(ParameterError):
        AtomConfig(z=1.0, shells=())
    with pytest.raises(ParameterError):
        AtomConfig(z=2.0, shells=((1, 0, 1), (1, 0, 1)))
    with pytest.raises(ParameterError):
        SCFParams(mixing=0.0)
    cfg = AtomConfig(z=3.0, shells=((1, 0, 2), (2, 0, 1)))
    assert cfg.electron_count == 3
    assert cfg.shells[0].label == "1s"


# ---------------------------------------------------------------------------
# self-consistent solutions


def test_hydrogen_eigenvalue(h_run):
    state, _ = h_run
    assert state.converged
    assert abs(state.eigenvalues[0] + 0.5) < 5e-4
    assert abs(state.total_energy + 0.5) < 5e-4


def test_helium_against_reference_values(he_run):
    state, _ = he_run
    # Hartree-Fock limit: E = -2.861680, eps_1s = -0.917956
    assert abs(state.total_energy + 2.86168) < 5e-4
    assert abs(state.eigenvalues[0] + 0.91796) < 5e-4


def test_helium_virial(he_run):
    state, _ = he_run
    g = state.grid
    T = sum(
        o.occupation * inner(o.u, kinetic_apply(o, g), g) for o in state.orbitals
    )
    V = state.total_energy - T
    assert abs(V / T + 2.0) < 1e-4


def test_lithium_levels(li_run):
    state, _ = li_run
    # restricted open-shell reference: eps_1s = -2.47774, eps_2s = -0.19632
    assert abs(state.eigenvalues[0] + 2.47774) < 5e-4
    assert abs(state.eigenvalues[1] + 0.19632) < 1e-4
    assert abs(state.total_energy + 7.43273) < 5e-4


def test_lithium_orthonormal_channel(li_run):
    state, _ = li_run
    g = state.grid
    u1, u2 = state.orbitals[0].u, state.orbitals[1].u
    assert abs(inner(u1, u1, g) - 1.0) < 1e-12
    assert abs(inner(u2, u2, g) - 1.0) < 1e-12
    assert abs(inner(u1, u2, g)) < 1e-10


@pytest.mark.parametrize("fixture", ["h_run", "he_run", "li_run", "n_run"])
def test_orbitals_solve_their_operator(fixture, request):
    state, _ = request.getfixturevalue(fixture)
    g = state.grid
    for o, eps in zip(state.orbitals, state.eigenvalues):
        resid = fock_apply(state, o) - eps * o.u
        assert np.sqrt(float(np.sum(g.weights * resid**2))) < 1e-6


def test_trace_energy_coherent(he_run):
    state, _ = he_run
    sum_eigen, trace_lhs = trace_energy(state)
    assert abs(sum_eigen - trace_lhs) < 1e-9
    assert state.epsilon0 == 0.0


def test_nitrogen_two_channel(n_run):
    """s-p exchange multipoles and the odd-shell pin of a half-filled 2p."""
    state, _ = n_run
    g = state.grid
    sum_eigen, trace_lhs = trace_energy(state)
    assert abs(sum_eigen - trace_lhs) < 1e-9
    s_orbitals = [o.u for o in state.orbitals if o.l == 0]
    gram = np.array([[inner(a, b, g) for b in s_orbitals] for a in s_orbitals])
    assert np.max(np.abs(gram - np.eye(len(s_orbitals)))) < 1e-10
    # Hartree-Fock limit E = -54.400934; the N=400 mesh sits ~6e-3 below it
    assert abs(state.total_energy + 54.400934) < 1e-2


def test_channel_matrix_read_only(h_run):
    """The stored matrix is not covered by the stale-cache token."""
    state, _ = h_run
    C = state.channel_matrix(0)
    with pytest.raises(ValueError):
        C[0, 0] = 0.0


def test_trace_energy_needs_convergence(he_run):
    state, _ = he_run
    broken = copy.deepcopy(state)
    broken.converged = False
    with pytest.raises(PreconditionError):
        trace_energy(broken)


def test_stale_caches_detected(h_run):
    state, _ = h_run
    tampered = copy.deepcopy(state)
    tampered.orbitals[0].u[100] += 1e-3
    with pytest.raises(ConsistencyError):
        tampered.channel_matrix(0)


def test_nonconvergence_reports_trace():
    cfg = AtomConfig(
        z=2.0,
        shells=((1, 0, 2),),
        grid=GridParams(n_points=600),
        scf=SCFParams(max_iter=3),
    )
    with pytest.raises(ConvergenceError) as err:
        scf_solve(cfg)
    assert len(err.value.trace) == 3
    assert "total_energy" in err.value.trace[0]
    assert err.value.trace[0]["iteration"] == 1
    assert "shift_invert_solves" in err.value.trace[0]


def test_state_summary_order(h_run):
    state, _ = h_run
    doc = state_summary(state)
    assert list(doc.keys()) == [
        "z",
        "shells",
        "eigenvalues_hartree",
        "total_energy_hartree",
        "iterations",
        "converged",
    ]
    assert doc["shells"] == ["1s:1"]
    assert doc["converged"] is True


def test_density_matrix_total_weighting():
    d = DensityMatrix(
        diagonal=np.array([1.0, 2.0]),
        unpaired=np.array([0.5, 0.0]),
        pair_count=1,
    )
    assert np.array_equal(d.total(), np.array([2.5, 4.0]))


# ---------------------------------------------------------------------------
# the channel eigensolver


@pytest.fixture(scope="module")
def li_channel():
    """Converged Li s-channel Fock matrix at N=300, its start vector and a dense oracle.

    On this mesh max|C| is about 2e15, so a dense eigh of C itself resolves
    eigenvalues only to about eps·max|C| ~ 0.5 Ha.  The oracle therefore
    diagonalizes the dense inverse of C − σ_ref·I (LU, not Cholesky) with
    σ_ref = −10 Ha, below the spectrum and apart from every shift the solver
    tries; the lowest levels of C are the top of that inverse's spectrum.
    """
    state = scf_solve(
        AtomConfig(z=3.0, shells=((1, 0, 2), (2, 0, 1)), grid=GridParams(n_points=300))
    )
    C = state.channel_matrix(0)
    sigma_ref = -10.0
    K = np.linalg.inv(C - sigma_ref * np.eye(C.shape[0]))
    nu, W = np.linalg.eigh(0.5 * (K + K.T))
    ref_vals = sigma_ref + 1.0 / nu[::-1][:2]
    v0 = sum(u_to_z(o.u, state.grid) for o in state.orbitals)
    return C, v0, ref_vals, W[:, ::-1][:, :2]


def _assert_lowest_pairs(vals, vecs, ref_vals, ref_vecs):
    assert np.max(np.abs(vals - ref_vals)) <= 1e-10
    for k in range(len(ref_vals)):
        v, w = vecs[:, k], ref_vecs[:, k]
        assert min(np.linalg.norm(v - w), np.linalg.norm(v + w)) <= 1e-8


def test_solve_channel_warm_shift_matches_dense(li_channel):
    C, v0, ref_vals, ref_vecs = li_channel
    vals, vecs, work = _solve_channel(C, 2, 3.0, ref_vals[0], v0)
    _assert_lowest_pairs(vals, vecs, ref_vals, ref_vecs)
    assert work["factorizations"] == 1
    assert work["shift"] == ref_vals[0] - 0.1


def test_solve_channel_warm_shift_too_high_falls_back(li_channel):
    """A warm eigenvalue above the true lowest puts the first shift inside the spectrum."""
    C, v0, ref_vals, ref_vecs = li_channel
    vals, vecs, work = _solve_channel(C, 2, 3.0, ref_vals[0] + 1.0, v0)
    _assert_lowest_pairs(vals, vecs, ref_vals, ref_vecs)
    assert work["factorizations"] == 2
    assert work["shift"] == -(0.5 * 3.0**2 + 2.0)


def test_solve_channel_refuses_uncertified_shift(li_channel):
    """Levels below −(Z²/2 + 2) raise instead of returning pairs near the shift."""
    C, v0, ref_vals, _ = li_channel
    shifted = C - 10.0 * np.eye(C.shape[0])  # lowest level near −12.5 Ha
    with pytest.raises(ConvergenceError):
        _solve_channel(shifted, 2, 3.0, ref_vals[0], v0)


def test_state_keeps_iteration_trace(h_run):
    state, _ = h_run
    assert len(state.trace) == state.iterations
    assert [row["iteration"] for row in state.trace] == list(range(1, state.iterations + 1))
    for row in state.trace:
        assert set(row) == {
            "iteration", "total_energy", "delta_energy", "max_orbital_delta",
            "shift", "factorizations", "shift_invert_solves",
        }
        assert list(row["shift"]) == [0]
        assert row["factorizations"] >= 1
        assert row["shift_invert_solves"] >= 1
    assert state.trace[-1]["total_energy"] == state.total_energy


def test_warm_shift_solve_count():
    """He at N=1000: a few shift-invert solves per iteration, the same on every run."""
    cfg = AtomConfig(z=2.0, shells=((1, 0, 2),), grid=GridParams(n_points=1000))
    counts = [
        [row["shift_invert_solves"] for row in scf_solve(cfg).trace] for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert sum(counts[0]) <= 30 * len(counts[0])
