"""Mean-field machinery: coupling weights, potentials, exchange, SCF."""

import copy
import warnings
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest

from polarscf.errors import (
    CapacityError,
    ConvergenceError,
    ParameterError,
    PreconditionError,
    ShapeError,
)
from polarscf.hfcore import (
    EIGSH_TOL_FACTOR,
    SHIFT_MARGIN,
    AtomConfig,
    FockOperator,
    GridParams,
    SCFParams,
    SCFState,
    ShellSpec,
    _exchange_action,
    _exchange_terms,
    _fock_operator,
    _multipoles,
    _pair_weights,
    _solve_channel,
    _total_energy,
    angular_weight,
    build_density,
    exchange_apply,
    fock_apply,
    scf_solve,
    shell_label,
    slater_potential,
    state_summary,
    trace_energy,
)
from polarscf.pseudopot import pk_solve
from polarscf.radial import (
    RadialOrbital,
    hydrogenic_orbital,
    integrate,
    kinetic_tridiagonal,
    make_grid,
    tridiag_apply,
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
    assert np.array_equal(rho, o.u**2)
    V = slater_potential(rho, 0, g)
    assert abs(V[0] - 1.0) < 1e-9


def test_hartree_charge_asymptote(fine_grid):
    g = fine_grid
    o = hydrogenic_orbital(2.0, 1, 0, g)
    orb = RadialOrbital(u=o.u, n=1, l=0, occupation=2.0)
    rho = build_density([orb], g)
    assert np.allclose(rho, 2.0 * o.u**2, atol=1e-15)
    V = slater_potential(rho, 0, g)
    assert abs(g.points[-1] * V[-1] - 2.0) < 1e-8


def test_build_density_requires_normalization(fine_grid):
    g = fine_grid
    o = hydrogenic_orbital(1.0, 1, 0, g)
    bad = RadialOrbital(u=1.1 * o.u, n=1, l=0, occupation=1.0)
    with pytest.raises(PreconditionError):
        build_density([bad], g)


def test_fractional_occupation_rejected(fine_grid):
    """A fractional or negative electron count raises when the orbital is built."""
    g = fine_grid
    o = hydrogenic_orbital(1.0, 1, 0, g)
    for q in (1.5, -1, float("nan")):
        with pytest.raises(ParameterError, match="occupation must be an integer"):
            RadialOrbital(u=o.u, n=1, l=0, occupation=q)
    for q in (1.0, np.int64(2)):
        whole = RadialOrbital(u=o.u, n=1, l=0, occupation=q)
        assert type(whole.occupation) is int and whole.occupation == q
        assert np.array_equal(build_density([whole], g), int(q) * o.u**2)
        assert np.all(np.isfinite(exchange_apply([whole], o, g)))


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
    direct = slater_potential(rho, 0, g) * o.u
    exch = exchange_apply(state.orbitals, o, g)
    z = u_to_z(direct - exch, g)
    resid = np.sqrt(float(z @ z))
    assert resid < 1e-12


def test_exchange_source_on_other_grid_rejected():
    """A source orbital sampled on another mesh raises ShapeError, not a broadcast error."""
    g = make_grid(1e-6, 50.0, 400)
    other = make_grid(1e-6, 50.0, 300)
    source = replace(hydrogenic_orbital(2.0, 1, 0, other), occupation=2)
    target = hydrogenic_orbital(2.0, 1, 0, g)
    with pytest.raises(ShapeError, match="source orbital 1s"):
        exchange_apply([source], target, g)


def _dense_exchange(channel_l, sources, g):
    """Dense z-space exchange matrix with its pins: the reference kept in the tests.

    Each source block is (q/2)·Σ_L λ_L·(z_b z_bᵀ ⊙ K_L) with z_b = √(h·r)·u_b
    and the kernel K_L = r_<^L / r_>^{L+1} written out entry by entry.  An odd
    shell adds the symmetric rank-two pin that maps its block's action on its
    own orbital to the bare monopole self-potential (q = 1) or to the
    energy-consistent weight (q >= 3).
    """
    r, h = g.points, g.log_step
    r_lo, r_hi = np.minimum.outer(r, r), np.maximum.outer(r, r)
    X = np.zeros((g.N, g.N))
    for o in sources:
        z_b = np.sqrt(h * r) * o.u
        q = int(o.occupation)
        M = np.zeros((g.N, g.N))
        for L in range(abs(channel_l - o.l), channel_l + o.l + 1):
            lam = angular_weight(channel_l, L, o.l)
            K_L = r_lo**L / r_hi ** (L + 1)
            M += lam * (np.outer(z_b, z_b) * K_L)
        X += (0.5 * q) * M
        if q % 2 == 1 and o.l == channel_l:
            Mz = M @ z_b
            if q == 1:
                target = slater_potential(o.u**2, 0, g) * z_b
            else:
                target = (_pair_weights(q, o.l, q, o.l) / q) * Mz
            zh = z_b / np.linalg.norm(z_b)
            dh = (target - (0.5 * q) * Mz) / np.linalg.norm(z_b)
            rho = dh - 0.5 * zh * (zh @ dh)
            X += np.outer(rho, zh) + np.outer(zh, rho)
    return X


@pytest.mark.parametrize("channel_l", [0, 1, 2])
def test_exchange_matrix_matches_dense_kernel(channel_l):
    """Semiseparable generators against the dense r_<^L / r_>^{L+1} formula.

    Only even occupations, so no odd-shell pin enters the matrix.
    """
    Z = 10.0
    g = make_grid(1e-6 / Z, 40.0, 400)
    sources = [
        replace(hydrogenic_orbital(Z, n, l, g), occupation=q)
        for n, l, q in [(1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 2, 10)]
    ]
    X_ref = _dense_exchange(channel_l, sources, g)
    blocks, pins = _exchange_terms(channel_l, sources, g)
    assert pins == []
    X = -FockOperator(np.zeros(g.N), np.zeros(g.N - 1), tuple(blocks), ()).to_dense()
    assert np.max(np.abs(X - X_ref)) <= 1e-14 * np.max(np.abs(X_ref))
    assert np.array_equal(X, X.T)


@pytest.mark.parametrize(
    "Z, shells, channel_l",
    [
        (3.0, ((1, 0, 2), (2, 0, 1)), 0),
        (7.0, ((1, 0, 2), (2, 0, 2), (2, 1, 3)), 1),
        (7.0, ((1, 0, 2), (2, 0, 2), (2, 1, 3)), 0),
    ],
    ids=["li-s", "n-p", "n-s"],
)
def test_operator_apply_matches_dense_oracle(Z, shells, channel_l):
    """O(N) action of the operator of one orbital set, pins included, against dense matrices.

    Li 2s holds one electron (q = 1 pin) and N 2p three (q = 3 pin, in the
    p channel only); the orbital sets are hydrogenic, for the nuclear charge
    and for 0.8 of it.
    """
    g = make_grid(1e-6 / Z, 40.0, 400)
    rng = np.random.default_rng(17)
    for zeta in (Z, 0.8 * Z):
        orbs = [replace(hydrogenic_orbital(zeta, n, l, g), occupation=q) for n, l, q in shells]
        op = _fock_operator(channel_l, Z, orbs, slater_potential(build_density(orbs, g), 0, g), g)
        assert len(op.pins) == sum(q % 2 == 1 and l == channel_l for _, l, q in shells)
        X_ref = _dense_exchange(channel_l, orbs, g)
        for x in (rng.standard_normal(g.N), u_to_z(orbs[-1].u, g)):
            ref = X_ref @ x
            got = _exchange_action(op.blocks, op.pins, x)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


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


def test_shell_spec_needs_integers():
    """A fractional count would be rounded by the density but not by the energy."""
    with pytest.raises(ParameterError, match="occupation must be an integer"):
        AtomConfig(z=2, shells=((1, 0, 1.5),))
    with pytest.raises(ParameterError, match="n must be an integer"):
        ShellSpec(2.5, 0, 1)
    with pytest.raises(ParameterError, match="l must be an integer"):
        ShellSpec(2, 0.0, 1)
    assert ShellSpec(np.int64(2), np.int64(1), np.int64(3)).label == "2p"


def test_atom_config_validation():
    with pytest.raises(ParameterError):
        AtomConfig(z=-1.0, shells=((1, 0, 1),))
    with pytest.raises(ParameterError):
        AtomConfig(z=1.0, shells=())
    with pytest.raises(ParameterError):
        AtomConfig(z=2.0, shells=((1, 0, 1), (1, 0, 1)))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="nuclear charge"):
            AtomConfig(z=bad, shells=((1, 0, 1),))
    cfg = AtomConfig(z=3.0, shells=((1, 0, 2), (2, 0, 1)))
    assert cfg.shells[0].label == "1s"
    for bad in (float("nan"), float("inf"), 0.0, -1e-6):
        with pytest.raises(ParameterError, match="tol_orbital"):
            SCFParams(tol_orbital=bad)
    for bad in (2.5, True, 0):
        with pytest.raises(ParameterError, match="max_iter"):
            SCFParams(max_iter=bad)
    assert SCFParams(max_iter=np.int64(3)).max_iter == 3
    for shell in ((True, 0, 1), (1, False, 1), (1, 0, True)):
        with pytest.raises(ParameterError, match="must be an integer"):
            AtomConfig(z=1.0, shells=(shell,))
    for bad in (200.5, True, 300.0):
        with pytest.raises(ParameterError, match="n_points"):
            GridParams(n_points=bad)
    assert GridParams(n_points=np.int64(300)).n_points == 300


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


def _richardson_energy(coarse, fine):
    """Total energy of two solves on different meshes, extrapolated in h²."""
    h1, h2 = coarse.grid.log_step, fine.grid.log_step
    return (h1**2 * fine.total_energy - h2**2 * coarse.total_energy) / (h1**2 - h2**2)


def test_helium_richardson_limit(he_run):
    """N=2000 and N=4000 extrapolated in h² land on the Hartree–Fock limit.

    The limit −2.861679995612 Ha is from Froese Fischer, The Hartree–Fock
    Method for Atoms (1977) and Bunge et al., At. Data Nucl. Data Tables 53,
    113 (1993).  The clamped inner boundary of the kinetic stencil missed it
    by about 1e-5 Ha.
    """
    state, _ = he_run
    fine = scf_solve(replace(state.config, grid=GridParams(n_points=4000)))
    assert abs(_richardson_energy(state, fine) + 2.861679995612) < 5e-9


@pytest.mark.parametrize(
    "z, shells, n_points, limit, bound",
    [
        (4.0, ((1, 0, 2), (2, 0, 2)), 1000, -14.573023168, 1e-8),
        (7.0, ((1, 0, 2), (2, 0, 2), (2, 1, 3)), 500, -54.400934210, 1e-6),
        (10.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6)), 500, -128.547098109, 1e-6),
    ],
    ids=["be", "n", "ne"],
)
def test_richardson_limit(z, shells, n_points, limit, bound):
    """Closed and half-filled shells: N and 2N extrapolated in h² land on the HF limit.

    The limits are from Bunge et al., At. Data Nucl. Data Tables 53, 113
    (1993).  What is left is the h⁴ term of the mesh and, for N and Ne,
    the coarser meshes.
    """
    coarse, fine = (
        scf_solve(AtomConfig(z=z, shells=shells, grid=GridParams(n_points=n)))
        for n in (n_points, 2 * n_points)
    )
    assert abs(_richardson_energy(coarse, fine) - limit) < bound


def test_helium_virial(he_run):
    state, _ = he_run
    g = state.grid
    T = 0.0
    for o in state.orbitals:
        z = u_to_z(o.u, g)
        T += o.occupation * float(z @ tridiag_apply(*kinetic_tridiagonal(g, o.l), z))
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
    assert abs(integrate(u1 * u1, g) - 1.0) < 1e-12
    assert abs(integrate(u2 * u2, g) - 1.0) < 1e-12
    assert abs(integrate(u1 * u2, g)) < 1e-10


@pytest.mark.parametrize("fixture", ["h_run", "he_run", "li_run", "n_run"])
def test_orbitals_solve_their_operator(fixture, request):
    state, _ = request.getfixturevalue(fixture)
    g = state.grid
    for o, eps in zip(state.orbitals, state.eigenvalues):
        resid = fock_apply(state, o) - eps * o.u
        z = u_to_z(resid, g)
        assert np.sqrt(float(z @ z)) < 1e-6


def test_trace_energy_coherent(he_run):
    state, _ = he_run
    sum_eigen, trace_lhs = trace_energy(state)
    assert abs(sum_eigen - trace_lhs) < 1e-9


def test_nitrogen_two_channel(n_run):
    """s-p exchange multipoles and the odd-shell pin of a half-filled 2p."""
    state, _ = n_run
    g = state.grid
    sum_eigen, trace_lhs = trace_energy(state)
    assert abs(sum_eigen - trace_lhs) < 1e-9
    s_orbitals = [o.u for o in state.orbitals if o.l == 0]
    gram = np.array([[integrate(a * b, g) for b in s_orbitals] for a in s_orbitals])
    assert np.max(np.abs(gram - np.eye(len(s_orbitals)))) < 1e-10
    # Hartree-Fock limit E = -54.400934; the N=400 mesh sits ~6e-3 below it
    assert abs(state.total_energy + 54.400934) < 1e-2


@pytest.mark.parametrize("fixture", ["li_run", "n_run"])
def test_snapshot_orbitals_orthonormal(fixture, request):
    """The operators are built from one orthonormal orbital set near the result.

    The inputs of the last iteration are orthonormal in each channel in the
    solver's metric, the plain dot product of z = √(h·r)·u, and the residual
    test puts them within `tol_orbital` of the returned eigenvectors.
    """
    state, _ = request.getfixturevalue(fixture)
    g = state.grid
    inputs, _ = state._snapshot
    for l in {o.l for o in inputs}:
        zs = np.column_stack([u_to_z(o.u, g) for o in inputs if o.l == l])
        assert np.max(np.abs(zs.T @ zs - np.eye(zs.shape[1]))) <= 1e-12
    for x, o in zip(inputs, state.orbitals):
        assert (x.n, x.l, x.occupation) == (o.n, o.l, o.occupation)
        assert np.max(np.abs(x.u - o.u)) < state.config.scf.tol_orbital


def test_converged_orbitals_agree_in_both_metrics(li_run, n_run):
    """`integrate(u·v)` is z·z′: the public quadrature is the solver's metric.

    Both spell h·Σ r·u·v, so they agree to round-off on every pair of
    converged orbitals of Li, N and Ne and of Li's orbitals with its 2s
    pseudo-orbital.
    """
    ne = scf_solve(
        AtomConfig(
            z=10.0, shells=((1, 0, 2), (2, 0, 2), (2, 1, 6)), grid=GridParams(n_points=500)
        )
    )
    li = li_run[0]
    sets = [(s.grid, [o.u for o in s.orbitals]) for s in (li, n_run[0], ne)]
    sets.append((li.grid, [o.u for o in li.orbitals] + [pk_solve(li, (2, 0)).u]))
    for g, us in sets:
        for u in us:
            for v in us:
                assert abs(integrate(u * v, g) - float(u_to_z(u, g) @ u_to_z(v, g))) <= 1e-12


def _pairwise_total_energy(z_nuc, orbitals, g):
    """Total energy summed over ordered shell pairs: the reference kept in the tests.

    The direct term is ½·Σ_a Σ_b q_a·q_b·F0(a, b), one Slater transform per
    ordered pair, and the exchange term runs over every ordered pair (a, b);
    a lone electron's self term is the bare monopole.
    """
    E = 0.0
    for a in orbitals:
        diag, off = kinetic_tridiagonal(g, a.l)
        z = u_to_z(a.u, g)
        E += a.occupation * float(z @ tridiag_apply(diag - z_nuc / g.points, off, z))
    for a in orbitals:
        for b in orbitals:
            F0 = integrate(a.u**2 * slater_potential(b.u**2, 0, g), g)
            E += 0.5 * a.occupation * b.occupation * F0
    for a in orbitals:
        for b in orbitals:
            s_ab = _pair_weights(a.occupation, a.l, b.occupation, b.l)
            if s_ab == 0:
                continue
            if a is b and a.occupation == 1:
                E -= 0.5 * integrate(a.u**2 * slater_potential(a.u**2, 0, g), g)
                continue
            acc = 0.0
            for L in _multipoles(a.l, b.l):
                cross = a.u * b.u
                acc += angular_weight(a.l, L, b.l) * integrate(
                    cross * slater_potential(cross, L, g), g
                )
            E -= 0.5 * s_ab * acc
    return E


@pytest.mark.parametrize(
    "z, shells, n_points",
    [
        (2.0, ((1, 0, 2),), 600),
        (3.0, ((1, 0, 2), (2, 0, 1)), 600),
        (7.0, ((1, 0, 2), (2, 0, 2), (2, 1, 3)), 600),
        (10.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6)), 600),
        (19.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 2), (3, 1, 6), (4, 0, 1)), 400),
    ],
    ids=["he", "li", "n", "ne", "k"],
)
def test_total_energy_matches_pairwise_oracle(z, shells, n_points):
    """One direct transform of the total density and a ≤ b exchange pairs, against all pairs."""
    state = scf_solve(AtomConfig(z=z, shells=shells, grid=GridParams(n_points=n_points)))
    ref = _pairwise_total_energy(state.config.z, state.orbitals, state.grid)
    assert _total_energy(state.config.z, state.orbitals, state.grid) == state.total_energy
    assert abs(state.total_energy - ref) <= 1e-12 * abs(ref)


def test_total_energy_one_electron(h_run):
    """H: the one-transform direct term still cancels the lone electron's self term exactly."""
    state, _ = h_run
    g = state.grid
    diag, off = kinetic_tridiagonal(g, 0)
    z = u_to_z(state.orbitals[0].u, g)
    bare = float(z @ tridiag_apply(diag - 1.0 / g.points, off, z))
    assert abs(state.total_energy - bare) <= 1e-14


@pytest.mark.parametrize(
    "z, shells",
    [(2.0, ((1, 0, 2),)), (3.0, ((1, 0, 2), (2, 0, 1))), (4.0, ((1, 0, 2), (2, 0, 2)))],
    ids=["he", "li", "be"],
)
def test_anderson_iteration_count(z, shells):
    """He, Li and Be at N=1000 converge within 15 iterations, with the same solves every run."""
    cfg = AtomConfig(z=z, shells=shells, grid=GridParams(n_points=1000))
    runs = [scf_solve(cfg) for _ in range(2)]
    assert runs[0].iterations <= 15
    counts = [[row["shift_invert_solves"] for row in state.trace] for state in runs]
    assert counts[0] == counts[1]


@pytest.mark.parametrize(
    "z, shells, n_points",
    [
        (3.0, ((1, 0, 2), (2, 0, 1)), 600),
        (7.0, ((1, 0, 2), (2, 0, 2), (2, 1, 3)), 400),
    ],
    ids=["li", "n"],
)
def test_shell_order_does_not_matter(z, shells, n_points):
    """Listing the shells backwards gives the same solve, bit for bit."""
    grid = GridParams(n_points=n_points)
    a = scf_solve(AtomConfig(z=z, shells=shells, grid=grid))
    b = scf_solve(AtomConfig(z=z, shells=shells[::-1], grid=grid))
    assert a.config == b.config
    assert a.total_energy == b.total_energy
    assert a.eigenvalues == b.eigenvalues
    for oa, ob in zip(a.orbitals, b.orbitals):
        assert (oa.n, oa.l) == (ob.n, ob.l)
        assert np.array_equal(oa.u, ob.u)


def test_channel_matrix_read_only(h_run):
    """The dense matrix of the operator is handed out read-only."""
    state, _ = h_run
    C = state.channel_matrix(0)
    with pytest.raises(ValueError):
        C[0, 0] = 0.0


def test_trace_energy_needs_convergence(he_run):
    state, _ = he_run
    broken = replace(state, converged=False)
    with pytest.raises(PreconditionError):
        trace_energy(broken)


def test_stale_caches_detected(h_run):
    """A stale cache cannot arise: the edit that would make one raises."""
    state, _ = h_run
    with pytest.raises(ValueError, match="read-only"):
        state.orbitals[0].u[100] += 1e-3


def test_channel_operator_built_once(n_run):
    """Each channel's operator is built once per state; edits still raise."""
    state = n_run[0]
    for l in (0, 1, 2):
        op = state.channel_operator(l)
        assert state.channel_operator(l) is op
        fresh = _fock_operator(l, state.config.z, *state._snapshot, state.grid)
        assert np.array_equal(op.diag, fresh.diag)
        x = np.linspace(1.0, 2.0, state.grid.N)
        assert np.array_equal(op.apply(x), fresh.apply(x))
    with pytest.raises(ValueError, match="read-only"):
        state._snapshot[0][0].u[100] += 1e-3


def test_state_refuses_every_edit(li_run):
    """Every route to a stale operator cache raises at the edit itself."""
    state, _ = li_run
    before = trace_energy(state)
    snap_orbitals, snap_field = state._snapshot
    copied = copy.deepcopy(state)
    for array in (
        state.orbitals[0].u,
        snap_orbitals[1].u,
        snap_field,
        state.grid.points,
        copied.orbitals[1].u,
        copied._snapshot[1],
    ):
        with pytest.raises(ValueError, match="read-only"):
            array[:] *= 1.5
    with pytest.raises(TypeError):
        state.eigenvalues[0] = 99.0
    with pytest.raises(TypeError):
        state.orbitals[0] = state.orbitals[1]
    with pytest.raises(TypeError):
        snap_orbitals[0] = snap_orbitals[1]
    for name, value in (
        ("eigenvalues", (99.0, -0.2)),
        ("converged", False),
        ("grid", make_grid(1e-6, 50.0, 2000)),
        ("_snapshot", ()),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(state, name, value)
    with pytest.raises(FrozenInstanceError):
        state.orbitals[0].u = np.zeros(state.grid.N)
    assert copied is state
    after = trace_energy(state)
    assert after == before
    assert abs(after[0] - after[1]) <= 1e-9


def test_cached_operator_refuses_edits(li_run):
    """The cached operator's diagonal, off-diagonal, block and pin arrays are read-only."""
    state, _ = li_run
    before = trace_energy(state)
    op = state.channel_operator(0)
    assert op.blocks and op.pins
    arrays = [op.diag, op.off]
    arrays += [a for _, gv, c in op.blocks for a in (gv, c)]
    arrays += [a for pin in op.pins for a in pin]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[:] += 1.0
    assert trace_energy(state) == before


def test_exchange_kernel_overflow_rejected():
    """r^(2L+1) of the largest multipole must fit a float at r_max: else ParameterError.

    He's s channel needs only L = 0, so it solves at r_max = 1e70; a 3d
    target couples to 1s through L = 2, whose r^5 would overflow.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = scf_solve(
            AtomConfig(z=2.0, shells=((1, 0, 2),), grid=GridParams(r_max=1e70, n_points=2000))
        )
        assert state.converged
        target = hydrogenic_orbital(2.0, 3, 2, state.grid)
        with pytest.raises(ParameterError, match="r_max"):
            fock_apply(state, target)


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
    assert err.value.trace[0]["eigensolve_tol"] == EIGSH_TOL_FACTOR


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


# ---------------------------------------------------------------------------
# the channel eigensolver


@pytest.fixture(scope="module")
def li_channel():
    """Converged Li s-channel operator at N=300, its start vector and a dense oracle.

    On this mesh max|C| is about 2e15 for the dense matrix C of the
    operator, so a dense eigh of C itself resolves eigenvalues only to about
    eps·max|C| ~ 0.5 Ha.  The oracle therefore diagonalizes the dense inverse
    of C − σ_ref·I (LU, not Cholesky) with σ_ref = −10 Ha, below the spectrum
    and apart from every shift the solver tries; the lowest levels of C are
    the top of that inverse's spectrum.
    """
    state = scf_solve(
        AtomConfig(z=3.0, shells=((1, 0, 2), (2, 0, 1)), grid=GridParams(n_points=300))
    )
    op = state.channel_operator(0)
    C = op.to_dense()
    sigma_ref = -10.0
    K = np.linalg.inv(C - sigma_ref * np.eye(C.shape[0]))
    nu, W = np.linalg.eigh(0.5 * (K + K.T))
    ref_vals = sigma_ref + 1.0 / nu[::-1][:2]
    v0 = sum(u_to_z(o.u, state.grid) for o in state.orbitals)
    return op, C, v0, ref_vals, W[:, ::-1][:, :2]


def _assert_lowest_pairs(vals, vecs, ref_vals, ref_vecs):
    assert np.max(np.abs(vals - ref_vals)) <= 1e-10
    for k in range(len(ref_vals)):
        v, w = vecs[:, k], ref_vecs[:, k]
        assert min(np.linalg.norm(v - w), np.linalg.norm(v + w)) <= 1e-8


def test_shifted_solve_matches_dense_lu(li_channel):
    """Banded Cholesky plus the Woodbury pin correction against a dense LU solve."""
    op, C, _, ref_vals, _ = li_channel
    assert len(op.pins) == 1  # the 2s pin
    rng = np.random.default_rng(23)
    for sigma in (ref_vals[0] - 0.1, -(0.5 * 3.0**2 + 2.0)):
        b = rng.standard_normal(C.shape[0])
        x = op.shifted_solver(sigma)(b)
        x_ref = np.linalg.solve(C - sigma * np.eye(C.shape[0]), b)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_solve_channel_warm_shift_matches_dense(li_channel):
    op, _, v0, ref_vals, ref_vecs = li_channel
    vals, vecs, work = _solve_channel(op, 2, 3.0, ref_vals[0], v0)
    _assert_lowest_pairs(vals, vecs, ref_vals, ref_vecs)
    assert work["factorizations"] == 1
    assert work["shift"] == ref_vals[0] - 0.1


def test_solve_channel_warm_shift_too_high_falls_back(li_channel):
    """A warm eigenvalue above the true lowest puts the first shift inside the spectrum.

    The ladder then steps down from the lower of that eigenvalue and v0's
    Rayleigh quotient by SHIFT_MARGIN·4^j and keeps the first rung that
    certifies, above the bound −(Z²/2 + 2) and below the rung before it.
    """
    op, _, v0, ref_vals, ref_vecs = li_channel
    eps_low = ref_vals[0] + 1.0
    vals, vecs, work = _solve_channel(op, 2, 3.0, eps_low, v0)
    _assert_lowest_pairs(vals, vecs, ref_vals, ref_vecs)
    top = min(eps_low, float(v0 @ op.apply(v0)) / float(v0 @ v0))
    tries = work["factorizations"]
    assert tries >= 2
    assert work["shift"] == top - SHIFT_MARGIN * 4.0 ** (tries - 1)
    previous = top - SHIFT_MARGIN * 4.0 ** (tries - 2)
    assert previous > ref_vals[0] > work["shift"] > -(0.5 * 3.0**2 + 2.0)


def test_solve_channel_refuses_uncertified_shift(li_channel):
    """Levels below −(Z²/2 + 2) raise instead of returning pairs near the shift."""
    op, _, v0, ref_vals, _ = li_channel
    shifted = replace(op, diag=op.diag - 10.0)  # lowest level near −12.5 Ha
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        shifted.shifted_solver(-(0.5 * 3.0**2 + 2.0))
    with pytest.raises(ConvergenceError):
        _solve_channel(shifted, 2, 3.0, ref_vals[0], v0)


def test_solve_channel_refuses_indefinite_capacitance(li_channel):
    """A pin that pulls a level below both shifts is caught by the capacitance inertia.

    Without its pins the operator still factors, so the banded Cholesky alone
    would certify the shift; the Rayleigh quotient along the pin's most
    negative direction shows that F − σ is indefinite all the same.
    """
    op, _, v0, ref_vals, _ = li_channel
    strong = replace(op, pins=tuple((1e3 * rho, zh) for rho, zh in op.pins))
    sigma = -(0.5 * 3.0**2 + 2.0)
    rho, zh = strong.pins[0]
    v = rho / np.linalg.norm(rho) + zh
    assert v @ strong.apply(v) < sigma * (v @ v)
    replace(strong, pins=()).shifted_solver(sigma)
    with pytest.raises(np.linalg.LinAlgError, match="capacitance inertia"):
        strong.shifted_solver(sigma)
    with pytest.raises(ConvergenceError):
        _solve_channel(strong, 2, 3.0, ref_vals[0], v0)


def test_solve_channel_refuses_non_finite_block(li_channel):
    """A zero step in an exchange block's c makes M infinite; no shift is certified.

    With r^{2L+1} underflowing to 0 at a tiny r_min, C⁻¹ has 1/0 on its
    diagonal, and the banded Cholesky would pass the NaN pivots it makes.
    """
    op, _, v0, ref_vals, _ = li_channel
    gamma, gv, c = op.blocks[0]
    flat = c.copy()
    flat[1] = flat[0]
    broken = replace(op, blocks=((gamma, gv, flat),) + op.blocks[1:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy warning on the way
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            broken.shifted_solver(-(0.5 * 3.0**2 + 2.0))
        with pytest.raises(ConvergenceError, match="no certified shift"):
            _solve_channel(broken, 2, 3.0, ref_vals[0], v0)


def test_solve_channel_reports_arpack_failure(li_channel, monkeypatch):
    import scipy.sparse.linalg as spla

    def failing_eigsh(*args, **kwargs):
        raise spla.ArpackError(-9999)

    monkeypatch.setattr(spla, "eigsh", failing_eigsh)
    op, _, v0, ref_vals, _ = li_channel
    with pytest.raises(ConvergenceError, match="ARPACK"):
        _solve_channel(op, 2, 3.0, ref_vals[0], v0)


def test_state_keeps_iteration_trace(h_run):
    state, _ = h_run
    assert len(state.trace) == state.iterations
    assert [row["iteration"] for row in state.trace] == list(range(1, state.iterations + 1))
    for row in state.trace:
        assert set(row) == {
            "iteration", "total_energy", "delta_energy", "max_orbital_delta",
            "eigensolve_tol", "shift", "factorizations", "shift_invert_solves",
            "field_s", "operator_s", "eigensolve_s", "energy_s",
        }
        assert min(row[k] for k in ("field_s", "operator_s", "eigensolve_s", "energy_s")) >= 0.0
        assert list(row["shift"]) == [0]
        assert row["factorizations"] >= 1
        assert row["shift_invert_solves"] >= 1
    assert state.trace[-1]["total_energy"] == state.total_energy


@pytest.mark.parametrize(
    "z, shells",
    [
        (2.0, ((1, 0, 2),)),
        (3.0, ((1, 0, 2), (2, 0, 1))),
        (11.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 1))),
    ],
    ids=["he", "li", "na"],
)
def test_eigensolve_tol_schedule(z, shells):
    """ARPACK's tolerance never grows, starts loose and ends at full precision."""
    state = scf_solve(AtomConfig(z=z, shells=shells, grid=GridParams(n_points=400)))
    tols = [row["eigensolve_tol"] for row in state.trace]
    assert tols[0] == EIGSH_TOL_FACTOR
    assert all(b <= a for a, b in zip(tols, tols[1:]))
    assert max(tols) <= 1e-2
    assert tols[-1] == 0.0


def test_inexact_convergence_buys_one_exact_iteration():
    """Tolerances first met at a nonzero ARPACK tol: one more, full-precision iteration.

    With this loose tolerance He at N=400 meets it in iteration 4, whose
    eigensolve ran at about 1e-6; the solve goes on to iteration 5 at tol 0.
    """
    scf = SCFParams(tol_orbital=1e-4)
    cfg = AtomConfig(z=2.0, shells=((1, 0, 2),), grid=GridParams(n_points=400), scf=scf)
    state = scf_solve(cfg)
    met = [row["max_orbital_delta"] < scf.tol_orbital for row in state.trace]
    first = met.index(True)
    assert state.trace[first]["eigensolve_tol"] > 0.0
    assert state.iterations == first + 2
    assert met[-1] and state.trace[-1]["eigensolve_tol"] == 0.0


@pytest.mark.parametrize(
    "z, shells",
    [
        (2.0, ((1, 0, 2),)),
        (3.0, ((1, 0, 2), (2, 0, 1))),
        (7.0, ((1, 0, 2), (2, 0, 2), (2, 1, 3))),
        (10.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6))),
    ],
    ids=["he", "li", "n", "ne"],
)
def test_residual_alone_stops_the_solve(z, shells):
    """N=600: the solve ends at the first full-precision iteration with residual < tol_orbital.

    The energy change is traced but not tested; in that last iteration it
    read 8.9e-12 (He, iteration 6), 5.7e-11 (Li, 9), 4.2e-11 (N, 9) and
    3.3e-11 Ha (Ne, 9), far below the 1e-8 Ha a second test once asked for.
    """
    state = scf_solve(AtomConfig(z=z, shells=shells, grid=GridParams(n_points=600)))
    tol = state.config.scf.tol_orbital
    first = next(
        row["iteration"]
        for row in state.trace
        if row["eigensolve_tol"] == 0.0 and row["max_orbital_delta"] < tol
    )
    assert state.iterations == first
    assert state.trace[-1]["delta_energy"] <= 1e-8


def test_tight_run_stops_on_its_residual():
    """Ca at N=400 with tol_orbital=1e-10 stops in 18 iterations.

    The residual is 2.2e-11 there, while the energy change sits near its
    round-off floor; a stop that also waited for |dE| < 1e-12 took 46.
    """
    shells = ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 2), (3, 1, 6), (4, 0, 2))
    scf = SCFParams(tol_orbital=1e-10)
    state = scf_solve(AtomConfig(z=20.0, shells=shells, grid=GridParams(n_points=400), scf=scf))
    assert state.iterations <= 20


HEAVY_ATOMS = {
    "na": (11.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 1)), 1500),
    "ar": (18.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 2), (3, 1, 6)), 1100),
    "k": (19.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 2), (3, 1, 6), (4, 0, 1)), 2500),
}


@pytest.mark.parametrize("atom", sorted(HEAVY_ATOMS))
def test_heavy_atom_against_tight_run(atom):
    """Na, Ar and K at N=400: default tolerances against a tight run of the same code.

    With machine-precision eigensolves in every iteration these solves made
    5328, 11282 and 16040 shift-invert solves.
    """
    z, shells, max_solves = HEAVY_ATOMS[atom]
    grid = GridParams(n_points=400)
    state = scf_solve(AtomConfig(z=z, shells=shells, grid=grid))
    tight_scf = SCFParams(tol_orbital=1e-10)
    tight = scf_solve(AtomConfig(z=z, shells=shells, grid=grid, scf=tight_scf))
    assert abs(state.total_energy - tight.total_energy) <= 1e-10
    assert np.max(np.abs(np.subtract(state.eigenvalues, tight.eigenvalues))) <= 1e-5
    assert sum(row["shift_invert_solves"] for row in state.trace) <= max_solves
    assert state.trace[-1]["eigensolve_tol"] == 0.0


def test_shift_ladder_solve_count():
    """C at N=400: the shift ladder stays above −(Z²/2 + 2) and saves solves.

    With a single fallback to −(Z²/2 + 2) the same solve made 1423
    shift-invert solves in 11 iterations.
    """
    z = 6.0
    state = scf_solve(
        AtomConfig(z=z, shells=((1, 0, 2), (2, 0, 2), (2, 1, 2)), grid=GridParams(n_points=400))
    )
    assert sum(row["shift_invert_solves"] for row in state.trace) < 1423
    for row in state.trace:
        assert min(row["shift"].values()) >= -(0.5 * z**2 + 2.0)


def _solve_counts(cfg):
    """Shift-invert solves per iteration of two runs of one configuration."""
    return [[row["shift_invert_solves"] for row in scf_solve(cfg).trace] for _ in range(2)]


def test_warm_shift_solve_count():
    """He at N=1000: a few shift-invert solves per iteration, the same on every run.

    Each warm call makes ARPACK's least work, ncv + 1 = 9 solves; with
    SciPy's default ncv of 20 it made 21.
    """
    counts = _solve_counts(AtomConfig(z=2.0, shells=((1, 0, 2),), grid=GridParams(n_points=1000)))
    assert counts[0] == counts[1]
    assert sum(counts[0]) <= 10 * len(counts[0])


def test_warm_shift_solve_count_lithium():
    """Li at N=1000: 131 solves in 9 iterations, the same on every run (206 with ncv = 20)."""
    counts = _solve_counts(
        AtomConfig(z=3.0, shells=((1, 0, 2), (2, 0, 1)), grid=GridParams(n_points=1000))
    )
    assert counts[0] == counts[1]
    assert sum(counts[0]) <= 140


@pytest.mark.parametrize("count", [5, 15])
def test_solve_channel_krylov_clipped_to_mesh(count):
    """On the smallest solver mesh, 4·count Krylov vectors exceed N = 16 and are clipped to N.

    ARPACK takes at most N Krylov vectors, and with ncv = N its first
    factorization spans the whole space: exactly N + 1 solves, with every
    pair matching a dense eigensolve.
    """
    g = make_grid(0.02, 30.0, 16)
    orbs = [replace(hydrogenic_orbital(3.0, n, 0, g), occupation=q) for n, q in ((1, 2), (2, 1))]
    field = slater_potential(sum(o.occupation * o.u**2 for o in orbs), 0, g)
    op = _fock_operator(0, 3.0, orbs, field, g)
    ref_vals, ref_vecs = np.linalg.eigh(op.to_dense())
    v0 = sum(u_to_z(o.u, g) for o in orbs)
    vals, vecs, work = _solve_channel(op, count, 3.0, ref_vals[0] + 0.05, v0)
    assert work["shift_invert_solves"] == g.N + 1
    assert np.max(np.abs(vals - ref_vals[:count])) <= 1e-12 * np.max(np.abs(ref_vals))
    overlap = np.abs(vecs.T @ ref_vecs[:, :count])
    assert np.max(np.abs(overlap - np.eye(count))) <= 1e-12
