"""Log-radial grid, quadrature, and the shifted kinetic stencil."""

import numpy as np
import pytest

from polarscf.errors import ParameterError
from polarscf.radial import (
    RadialGrid,
    hydrogenic_orbital,
    integrate,
    kinetic_tridiagonal,
    make_grid,
    node_count,
    tridiag_apply,
    u_to_z,
    z_to_u,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(1e-6, 50.0, 2000)


def test_grid_is_geometric(grid):
    ratios = grid.points[1:] / grid.points[:-1]
    spacing = np.exp(grid.log_step)
    assert np.max(np.abs(ratios - spacing)) < 1e-13 * spacing
    assert grid.N == 2000
    assert grid.r_min == pytest.approx(1e-6)
    assert grid.r_max == pytest.approx(50.0)
    assert np.all(grid.weights > 0)
    with pytest.raises(ValueError, match="read-only"):
        grid.points[0] = 2e-6


def test_make_grid_validation():
    with pytest.raises(ParameterError):
        make_grid(-1.0, 50.0, 100)
    with pytest.raises(ParameterError):
        make_grid(1e-6, 1e-6, 100)
    with pytest.raises(ParameterError):
        make_grid(1e-6, 50.0, 1)
    with pytest.raises(ParameterError, match="r_min"):
        make_grid(1e-160, 50.0, 2000)  # 1/(h*r_min)^2 overflows
    with pytest.raises(ParameterError, match="r_max"):
        make_grid(1e-6, 1e300, 400)  # r_max^2 overflows
    assert make_grid(1e-6, 1e150, 200).r_max == 1e150  # r_max^2 = 1e300 does not


def test_grid_log_step_checked(grid):
    """z = sqrt(h*r)*u and the kinetic stencil need h = ln(r_{i+1}/r_i) itself."""
    for h in (0.0, 2.0 * grid.log_step, float("nan")):
        with pytest.raises(ParameterError, match="log_step"):
            RadialGrid(grid.points, log_step=h)


def test_quadrature_constant(grid):
    """A constant does not vanish at r_max, so the rule h*Σr*f is not built for it.

    It sums to the geometric series h*(r_max*e^h - r_min)/(e^h - 1), which
    pins the weights to h*r_i at every point, ends included.
    """
    h = grid.log_step
    series = h * (grid.r_max * np.exp(h) - grid.r_min) / np.expm1(h)
    got = integrate(np.ones(grid.N), grid)
    assert abs(got - series) / series < 1e-7


def test_quadrature_exponentials(grid):
    """Integrands that vanish at both ends: ∫r^k e^{-r} dr = k!."""
    r = grid.points
    assert abs(integrate(r * np.exp(-r), grid) - 1.0) < 1e-11
    assert abs(integrate(r**2 * np.exp(-r), grid) - 2.0) < 1e-11


@pytest.mark.parametrize(
    "Z, n, l",
    [(1.0, 1, 0), (1.0, 2, 0), (1.0, 2, 1), (2.0, 1, 0), (1.0, 3, 2)],
)
def test_hydrogenic_orbitals(Z, n, l, grid):
    o = hydrogenic_orbital(Z, n, l, grid)
    assert integrate(o.u * o.u, grid) == pytest.approx(1.0, abs=1e-12)
    assert node_count(o.u) == n - l - 1
    # virial: <T> = Z^2 / (2 n^2) for the pure Coulomb problem
    z = u_to_z(o.u, grid)
    T = z @ tridiag_apply(*kinetic_tridiagonal(grid, l), z)
    assert abs(T - Z**2 / (2.0 * n**2)) < 5e-5


@pytest.mark.parametrize("Z", [1.0, 1.7])
def test_hydrogenic_matches_closed_form(Z, grid):
    """The Laguerre recurrence against SciPy's eval_genlaguerre, n <= 7, l <= 3."""
    from scipy.special import eval_genlaguerre

    r = grid.points
    for n in range(1, 8):
        for l in range(min(n - 1, 3) + 1):
            x = 2.0 * Z * r / n
            ref = r * np.exp(-x / 2.0) * x**l * eval_genlaguerre(n - l - 1, 2 * l + 1, x)
            ref = ref / np.sqrt(integrate(ref * ref, grid))
            got = hydrogenic_orbital(Z, n, l, grid).u
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (n, l)


def test_hydrogenic_validation(grid):
    with pytest.raises(ParameterError):
        hydrogenic_orbital(0.0, 1, 0, grid)
    with pytest.raises(ParameterError):
        hydrogenic_orbital(1.0, 1, 1, grid)


def test_kinetic_hermitian(grid):
    r = grid.points
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = np.exp(-r) * r * (1.0 + 0.2 * np.sin(rng.uniform(0, 3) * np.log(r)))
        b = np.exp(-0.7 * r) * r**2
        za, zb = (u_to_z(u, grid) for u in (a, b))
        za, zb = za / np.linalg.norm(za), zb / np.linalg.norm(zb)
        diag, off = kinetic_tridiagonal(grid, 0)
        lhs = za @ tridiag_apply(diag, off, zb)
        rhs = tridiag_apply(diag, off, za) @ zb
        assert abs(lhs - rhs) < 1e-10


def test_kinetic_tridiagonal_centrifugal(grid):
    d0, _ = kinetic_tridiagonal(grid, 0)
    d1, off1 = kinetic_tridiagonal(grid, 1)
    # the centrifugal barrier only touches the diagonal
    assert np.all(d1 > d0)
    _, off0 = kinetic_tridiagonal(grid, 0)
    assert np.array_equal(off0, off1)
    assert np.all(off0 < 0)


def test_uz_roundtrip(grid):
    u = grid.points * np.exp(-grid.points)
    back = z_to_u(u_to_z(u, grid), grid)
    assert np.max(np.abs(back - u)) < 1e-14


@pytest.mark.parametrize(
    "u, expected",
    [
        ([1.0, 2.0, 3.0], 0),
        ([1.0, -1.0, 2.0], 2),
        ([1.0, 1e-14, -1.0], 1),
        ([0.0, 1.0, 2.0], 0),
        ([1.0, -1.0, 1.0, -1.0], 3),
    ],
)
def test_node_count(u, expected):
    assert node_count(np.asarray(u)) == expected


def test_node_count_skips_noise():
    """Flips are counted between live samples only; noise and zeros are skipped."""
    u = np.array([0.0, 1.0, 1e-14, -1.0, -2.0, 3.0, 0.0])
    assert node_count(u) == 2
    assert node_count(np.zeros(4)) == 0
