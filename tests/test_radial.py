"""Log-radial grid, quadrature, and the shifted kinetic stencil."""

import math
import sys

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


def test_grid_keeps_a_read_only_copy_of_writable_points():
    """Editing the array a grid was built from moves neither its points nor the arrays of them."""
    ref = make_grid(1e-6, 50.0, 400)
    r = np.array(ref.points)  # writable
    g = RadialGrid(r, log_step=ref.log_step)
    weights = g.weights
    r *= 2.0
    h = g.log_step
    np.testing.assert_array_equal(g.points, ref.points)
    np.testing.assert_array_equal(g.weights, h * g.points)
    np.testing.assert_array_equal(g.z_scale, np.sqrt(h * g.points))
    assert g.weights is weights
    with pytest.raises(ValueError, match="read-only"):
        g.points[0] = 1.0
    assert not np.shares_memory(RadialGrid(ref.points, log_step=h).points, ref.points)


def test_grid_points_cannot_move_through_an_earlier_view():
    """A writable view taken before its base was frozen moves neither points nor weights."""
    ref = make_grid(1e-6, 50.0, 400)
    r = np.array(ref.points)
    view = r[:]
    r.flags.writeable = False  # a read-only float array that owns its data
    g = RadialGrid(r, log_step=ref.log_step)
    view[5] *= 2.0
    np.testing.assert_array_equal(g.points, ref.points)
    np.testing.assert_array_equal(g.weights, g.log_step * g.points)


def _assert_built_once(first, second, closed_form):
    for a, b, ref in zip(first, second, closed_form):
        assert a is b
        np.testing.assert_array_equal(a, ref)
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


@pytest.mark.parametrize("l", [0, 1, 3])
def test_kinetic_stencil_built_once_per_l(l):
    g = make_grid(1e-6, 50.0, 400)
    r, h = g.points, g.log_step
    diag = (1.0 / h**2 + 0.5 * (l + 0.5) ** 2) / r**2
    diag[0] -= 0.5 / h**2 * math.exp(-(l + 0.5) * h) / r[0] ** 2
    off = (-0.5 / h**2) / (r[:-1] * r[1:])
    _assert_built_once(kinetic_tridiagonal(g, l), kinetic_tridiagonal(g, l), (diag, off))


def test_z_scale_built_once():
    g = make_grid(1e-6, 50.0, 400)
    _assert_built_once((g.z_scale,), (g.z_scale,), (np.sqrt(g.log_step * g.points),))
    u = g.points * np.exp(-g.points)
    np.testing.assert_array_equal(u_to_z(u, g), u * np.sqrt(g.log_step * g.points))


@pytest.mark.parametrize("L", range(7))
def test_multipole_powers_built_once_per_L(L):
    g = make_grid(1e-6, 50.0, 400)
    r = g.points
    powers = (r ** -(L + 1), r ** (2 * L + 1))
    _assert_built_once(g.multipole_powers(L), g.multipole_powers(L), powers)


def _largest_normal_L(g, end):
    """The largest L for which the float c = x**(2L+1) at that end x of g is normal
    (finite and >= float_info.min), and at r_min its first step x**(2L+1)·(e^((2L+1)h) − 1) too."""
    x, normal = np.float64(getattr(g, end)), []
    with np.errstate(all="ignore"):
        for L in range(40):
            p = 2 * L + 1
            c = [x**p] if end == "r_max" else [x**p, x**p * np.expm1(p * g.log_step)]
            normal.append(all(sys.float_info.min <= v <= sys.float_info.max for v in c))
    return normal.index(False) - 1


@pytest.mark.parametrize(
    "r_min, r_max, n_points, end, top",
    [
        (1e-62, 50.0, 400, "r_min", 1),  # r_min^5 = 1e-310 is subnormal, not 0: refused too
        (1e-6, 1e61, 400, "r_max", 2),  # r_max^5 = 1e305 fits, r_max^7 overflows
        # r_min^5 = 1.0e-307 is normal, but on the fine mesh its first step 3.8e-309 is not
        (4e-62, 50.0, 20000, "r_min", 1),
        (4e-62, 50.0, 400, "r_min", 2),  # the coarse mesh's first step, 5e-307, is normal
    ],
    ids=["1e-62-50.0-r_min-1", "1e-06-1e+61-r_max-2", "4e-62-50.0-20000-r_min-1",
         "4e-62-50.0-400-r_min-2"],
)
def test_multipole_powers_refuse_what_the_mesh_cannot_hold(r_min, r_max, n_points, end, top):
    """The largest L whose r^(2L+1), and its first step, are normal floats at that end builds;
    L + 1 raises."""
    g = make_grid(r_min, r_max, n_points)
    L = _largest_normal_L(g, end)
    assert L == top
    w, c = g.multipole_powers(L)
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(c))
    assert min(c[0], c[1] - c[0]) >= sys.float_info.min
    with pytest.raises(ParameterError, match=f"{end} .* the L={L + 1} kernel's r\\^{2 * L + 3}"):
        g.multipole_powers(L + 1)


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


def test_tridiag_apply_block_matches_columns(grid):
    """An (N, k) block gives, column by column, the bits of each column applied alone."""
    diag, off = kinetic_tridiagonal(grid, 1)
    rng = np.random.default_rng(11)
    for k in (1, 2, 4):
        Z = rng.standard_normal((grid.N, k))
        ref = np.column_stack([tridiag_apply(diag, off, z) for z in Z.T])
        np.testing.assert_array_equal(tridiag_apply(diag, off, Z), ref)


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
