"""Projectors, resolvents, self-energy models, and pair quantities."""

import numpy as np
import pytest

from polarscf.errors import (
    ParameterError,
    ShapeError,
    SingularityError,
    SymmetryViolationError,
)
from polarscf.quasiparticle import (
    SelfEnergyModel,
    dyson_born,
    dyson_solve,
    green0,
    pair_quantities,
    projector,
    resolvent_sweep,
)


def random_hermitian(rng, d):
    h = rng.standard_normal((d, d))
    return 0.5 * (h + h.T)


# ---------------------------------------------------------------------------
# projectors


def test_projector_diagonal_invariants():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    v /= np.linalg.norm(v)
    P = projector(v)
    assert np.max(np.abs(P @ P - P)) < 1e-12
    assert np.max(np.abs(P - P.conj().T)) < 1e-12
    assert abs(np.trace(P) - 1.0) < 1e-12


def test_projector_offdiagonal_composition():
    rng = np.random.default_rng(8)
    m = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    n = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    m, n = m / np.linalg.norm(m), n / np.linalg.norm(n)
    P = projector(m, n)
    # |m><n| |n><m| = |m><m|
    assert np.max(np.abs(P @ P.conj().T - projector(m))) < 1e-12
    assert abs(np.trace(P) - np.vdot(n, m)) < 1e-12


def test_projector_rejects_zero_state():
    with pytest.raises(ParameterError):
        projector(np.zeros(4))
    with pytest.raises(ShapeError):
        projector(np.ones(3), np.ones(4))


# ---------------------------------------------------------------------------
# free resolvent


def test_green0_scalar_value():
    # single level at 0.5 probed at E = 0 on the real axis
    G = green0(np.array([[0.5]]), 0.0, eta=0.0)
    assert G[0, 0] == pytest.approx(-2.0, abs=1e-14)


def test_green0_pole_detection():
    with pytest.raises(SingularityError):
        green0(np.array([[0.5]]), 0.5, eta=0.0)


def test_green0_eta_domain():
    with pytest.raises(ParameterError):
        green0(np.eye(2), 0.0, eta=-1e-3)
    with pytest.raises(SymmetryViolationError):
        green0(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.3)


def test_green0_default_broadening():
    h = np.diag([1.0, -1.0])
    G = green0(h, 0.0)
    assert np.array_equal(G, green0(h, 0.0, eta=1e-6))
    assert isinstance(G, np.ndarray)


def test_resolvent_identity():
    rng = np.random.default_rng(12)
    h = random_hermitian(rng, 15)
    G1 = green0(h, 0.3, 1e-3)
    G2 = green0(h, -0.7, 1e-3)
    lhs = G1 - G2
    rhs = (-0.7 - 0.3) * (G1 @ G2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_green0_hermitian_conjugation():
    rng = np.random.default_rng(13)
    h = random_hermitian(rng, 9)
    G = green0(h, 0.2, 1e-2)
    # (E + i eta - h)^dag = (E - i eta - h): conjugate transpose flips eta
    explicit = np.linalg.inv((0.2 - 1e-2j) * np.eye(9) - h)
    assert np.max(np.abs(G.conj().T - explicit)) < 1e-12


# ---------------------------------------------------------------------------
# Dyson


def test_dyson_closed_vs_born():
    rng = np.random.default_rng(21)
    h = np.diag(np.linspace(-2.0, 2.0, 50))
    g0 = green0(h, 5.0, 1e-3)
    sigma = random_hermitian(rng, 50)
    rho = max(abs(np.linalg.eigvals(g0 @ sigma)))
    sigma *= 0.45 / rho
    closed = dyson_solve(g0, sigma)
    born = dyson_born(g0, sigma, terms=30)
    assert np.max(np.abs(closed - born)) < 1e-8


def test_dyson_constant_shift_moves_poles():
    h = np.diag([0.0, 1.0])
    g0 = green0(h, 2.0, 1e-6)
    shifted = dyson_solve(g0, 0.5 * np.eye(2))
    direct = green0(h + 0.5 * np.eye(2), 2.0, 1e-6)
    assert np.max(np.abs(shifted - direct)) < 1e-10


def test_dyson_shape_check():
    g0 = green0(np.eye(3), 2.0)
    with pytest.raises(ShapeError):
        dyson_solve(g0, np.eye(4))
    with pytest.raises(ParameterError):
        dyson_born(g0, np.zeros((3, 3)), terms=0)


def test_born_truncation_error_shrinks():
    rng = np.random.default_rng(22)
    h = np.diag([0.0, 1.0, 2.0])
    g0 = green0(h, 5.0, 1e-3)
    sigma = random_hermitian(rng, 3)
    sigma *= 0.4 / max(abs(np.linalg.eigvals(g0 @ sigma)))
    closed = dyson_solve(g0, sigma)
    e5 = np.max(np.abs(dyson_born(g0, sigma, 5) - closed))
    e15 = np.max(np.abs(dyson_born(g0, sigma, 15) - closed))
    assert e15 < e5 * 1e-3


# ---------------------------------------------------------------------------
# self-energy models


def test_self_energy_kinds():
    assert SelfEnergyModel("zero").eigenvalue_at(2.0) == 0.0
    assert SelfEnergyModel("constant_shift", shift=0.3).eigenvalue_at(1.0) == 0.3
    poly = SelfEnergyModel("diagonal_polynomial", coefficients=(-0.3, 0.0, -0.01))
    assert poly.eigenvalue_at(2.0) == pytest.approx(-0.34)
    with pytest.raises(ParameterError):
        SelfEnergyModel("bogus")
    with pytest.raises(ParameterError):
        SelfEnergyModel("diagonal_polynomial", coefficients=(0.0, 1.0))  # odd power
    with pytest.raises(ParameterError):
        SelfEnergyModel("user_matrix")


def test_self_energy_matrix_rendering():
    m = SelfEnergyModel("constant_shift", shift=0.25).matrix_at(3)
    assert np.array_equal(m, 0.25 * np.eye(3))


def test_mass_operator_worked_example():
    """f(k) = -(0.3 + 0.01 k^2): ΔM(0) = -f(0) and ΔM(k) separate exactly."""
    model = SelfEnergyModel("diagonal_polynomial", coefficients=(-0.3, 0.0, -0.01))
    delta_m0 = -model.eigenvalue_at(0.0)
    assert delta_m0 == pytest.approx(0.3, abs=1e-15)
    k = np.linspace(-2.0, 2.0, 129)
    delta_m = -np.array([model.eigenvalue_at(ki) for ki in k]) - delta_m0
    assert np.max(np.abs(delta_m - 0.01 * k**2)) < 1e-14
    assert 0.5 * np.max(np.abs(delta_m - delta_m[::-1])) < 1e-14  # even in k


# ---------------------------------------------------------------------------
# pair quantities


def test_pair_worked_example():
    """Extremum tilde 0, shift 1: branches at -1/2 and +1/2, gap -1/2."""
    pq = pair_quantities(1.0, 0.0, 1, constant=1.0)
    assert pq.extremum == 1.0
    assert pq.extremum_tilde == 0.0
    assert pq.eps_plus == -0.5
    assert pq.eps_minus == 0.5
    assert pq.gap == -0.5
    assert pq.regime == "heavy"
    assert not pq.schrodinger_limit


def test_pair_gap_identity_random():
    rng = np.random.default_rng(30)
    for _ in range(500):
        dm = float(rng.uniform(-2.0, 2.0))
        e0 = float(rng.uniform(-2.0, 2.0))
        C = float(rng.uniform(-2.0, 2.0))
        N = int(rng.integers(1, 9))
        pq = pair_quantities(dm, e0, N, C)
        assert abs(pq.gap - (-dm / 2.0)) < 1e-15
        assert pq.gap == (pq.eps_plus - pq.eps_minus) / 2.0


def test_pair_regimes():
    assert pair_quantities(0.0, 0.0, 3).regime == "light"
    assert pair_quantities(0.0, 0.0, 3).schrodinger_limit
    assert pair_quantities(5e-4, 0.1, 2).regime == "light"
    assert pair_quantities(1.0, 0.0, 1).regime == "heavy"
    assert pair_quantities(2.5, -1.0, 4).regime == "heavy"
    assert pair_quantities(0.1, 0.0, 1).regime == "indeterminate"
    assert pair_quantities(-1.5, 0.0, 1).regime == "indeterminate"


def test_pair_quantum_number_domain():
    with pytest.raises(ParameterError):
        pair_quantities(0.5, 0.0, 0)


# ---------------------------------------------------------------------------
# sweep


def test_resolvent_sweep_locates_levels():
    h = np.diag([-1.0, 0.0, 0.5])
    energies = np.linspace(-1.5, 1.0, 251)
    trace_imag, poles = resolvent_sweep(h, energies, eta=1e-2)
    assert len(poles) == 3
    assert np.allclose(poles, [-1.0, 0.0, 0.5], atol=1e-9)
    assert np.all(trace_imag < 0.0)  # retarded side


def test_resolvent_sweep_with_self_energy():
    h = np.diag([0.0, 1.0])
    energies = np.linspace(-1.0, 2.0, 301)
    _, poles = resolvent_sweep(h, energies, eta=1e-2, sigma=0.5 * np.eye(2))
    assert len(poles) == 2
    assert np.allclose(poles, [0.5, 1.5], atol=1e-9)
