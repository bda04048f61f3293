"""Exact fermionic algebra on small occupation-number spaces."""

import functools
import itertools

import numpy as np
import pytest

from polarscf import fockspace
from polarscf.errors import ParameterError
from polarscf.fockspace import (
    anticommutator_table,
    antisymmetrize,
    cycle_sum_residual,
    ladder_apply,
    parity,
)


def mask(bits):
    """The basis mask of an occupation pattern: slot s is bit s."""
    return sum(b << s for s, b in enumerate(bits))


def act(kind, slot, m, modes=5):
    """(new mask, amplitude) of one ladder operator on one basis mask; (None, 0) if killed."""
    plus, minus = ladder_apply(kind, slot, (1 << m, 0), modes)
    assert not plus & minus and (plus | minus).bit_count() <= 1
    if not plus | minus:
        return None, 0
    return (plus | minus).bit_length() - 1, 1 if plus else -1


def signed_set(amplitudes):
    """The (plus, minus) pair of a {mask: amplitude in {-1, 0, +1}} mapping."""
    plus = sum(1 << m for m, a in amplitudes.items() if a == 1)
    minus = sum(1 << m for m, a in amplitudes.items() if a == -1)
    return plus, minus


def jordan_wigner(M, signed=True):
    """Dense a_s for s < M: Z x ... x Z x |0><1| x I x ... x I, slot 0 leftmost.

    With signed=False the Z strings become identities: hard-core bosons.
    A basis state's index is then its bits read as binary, slot 0 first.
    """
    z = np.diag([1.0, -1.0]) if signed else np.eye(2)
    lower, eye = np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)
    return [functools.reduce(np.kron, [z] * s + [lower] + [eye] * (M - s - 1))
            for s in range(M)]


def transposition(n, i, j):
    """The image tuple of the permutation of 1..n exchanging positions i and j."""
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return tuple(images)


def cycle_parity(images):
    """Independent parity oracle: (-1)^(n - number of cycles)."""
    n = len(images)
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j] - 1
    return -1 if (n - cycles) % 2 else +1


@pytest.mark.parametrize(
    "images, expected",
    [
        ((1,), +1),
        ((1, 2, 3), +1),
        ((2, 1, 3), -1),
        ((2, 3, 1), +1),
        ((3, 2, 1), -1),
        ((4, 3, 2, 1), +1),
        ((2, 1, 4, 3), +1),
        ((5, 1, 2, 3, 4), +1),
        ((1, 3, 2, 5, 4), +1),
    ],
)
def test_parity_table(images, expected):
    assert parity(images) == expected
    assert cycle_parity(images) == expected


def test_parity_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = tuple(rng.permutation(5) + 1)
        b = tuple(rng.permutation(5) + 1)
        a_after_b = tuple(a[i - 1] for i in b)
        a_inverse = tuple(np.argsort(a) + 1)
        assert parity(a_after_b) == parity(a) * parity(b)
        assert parity(a_inverse) == parity(a)


def test_invalid_permutation_rejected():
    with pytest.raises(ParameterError, match=r"images \(1, 1, 3\) are not a bijection"):
        parity((1, 1, 3))
    with pytest.raises(ParameterError, match=r"images \(0, 1, 2\) are not a bijection"):
        parity((0, 1, 2))


def test_antisymmetrize_swap_antisymmetry():
    # the permutation sum visits addends in a different order per entry, so
    # near-cancelling entries agree only to rounding, not bitwise
    rng = np.random.default_rng(3)
    t = antisymmetrize(rng.standard_normal((5, 5, 5)))
    for i, j in itertools.combinations(range(1, 4), 2):
        swapped = np.transpose(t, [k - 1 for k in transposition(3, i, j)])
        assert np.allclose(swapped, -t, rtol=0.0, atol=1e-14)


def test_antisymmetrize_idempotent_direction():
    # projecting twice only rescales: the direction is already fixed
    rng = np.random.default_rng(4)
    t = antisymmetrize(rng.standard_normal((4, 4, 4, 4)))
    again = antisymmetrize(t)
    assert np.allclose(again, t / np.linalg.norm(t), atol=1e-14)


@pytest.mark.parametrize("n, dim", [(2, 4), (2, 5), (3, 4), (3, 5), (4, 4), (4, 5)])
def test_cyclic_residual_vanishes(n, dim):
    rng = np.random.default_rng(100 * n + dim)
    for trial in range(5):
        t = antisymmetrize(rng.standard_normal((dim,) * n))
        assert cycle_sum_residual(t) < 1e-12


# ---------------------------------------------------------------------------
# ladder operators


def test_ladder_sign_convention():
    # |0110> : annihilating slot 2 crosses one occupied slot -> sign -1
    v = mask((0, 1, 1, 0))
    assert act("annihilate", 2, v) == (mask((0, 1, 0, 0)), -1)
    # creating on slot 0 crosses nothing
    assert act("create", 0, v) == (mask((1, 1, 1, 0)), 1)
    # double creation on an occupied slot kills the term
    assert act("create", 1, v)[1] == 0
    assert act("annihilate", 0, v)[1] == 0


def test_nilpotency():
    v = mask((0, 0, 1, 0))
    once, first = act("create", 1, v)
    assert first == 1 and act("create", 1, once)[1] == 0
    once, first = act("annihilate", 2, v)
    assert first == 1 and act("annihilate", 2, once)[1] == 0
    # on every basis state of M=4: a_s·a_s = a†_s·a†_s = 0
    basis = ((1 << 16) - 1, 0)
    for kind in ("create", "annihilate"):
        for s in range(4):
            assert ladder_apply(kind, s, ladder_apply(kind, s, basis, 4), 4) == (0, 0)


def test_product_state_ordering():
    # a+_0 a+_2 |0> has positive amplitude; swapping the order flips the sign
    vacuum = mask((0, 0, 0, 0))
    m, inner = act("create", 2, vacuum)
    assert act("create", 0, m) == (mask((1, 0, 1, 0)), 1) and inner == 1
    m, inner = act("create", 0, vacuum)
    assert act("create", 2, m) == (mask((1, 0, 1, 0)), -1) and inner == 1


def test_ladder_matches_jordan_wigner():
    """Every ladder action on M=5 equals the Jordan-Wigner matrix column."""
    M = 5

    def index(bits):
        return int("".join(map(str, bits)), 2)

    for s, a in enumerate(jordan_wigner(M)):
        for kind, matrix in (("annihilate", a), ("create", a.T)):
            for bits in itertools.product((0, 1), repeat=M):
                column = np.zeros(2**M)
                new, amp = act(kind, s, mask(bits), M)
                if amp:
                    column[index([new >> t & 1 for t in range(M)])] += amp
                assert np.array_equal(column, matrix[:, index(bits)]), (kind, s, bits)


def test_ladder_is_linear_on_signed_sets():
    """On a signed set with both signs, each mask moves as it would alone."""
    rng = np.random.default_rng(26)
    M = 6
    for trial in range(20):
        amplitudes = dict(enumerate(rng.integers(-1, 2, 2**M).tolist()))
        for kind, s in itertools.product(("create", "annihilate"), range(M)):
            expected = {}
            for m, a in amplitudes.items():
                new, amp = act(kind, s, m, M)
                if a and amp:
                    expected[new] = a * amp
            got = ladder_apply(kind, s, signed_set(amplitudes), M)
            assert got == signed_set(expected), (trial, kind, s)


@pytest.mark.parametrize("M", [1, 2, 3, 4, 8, 16])
def test_anticommutators_exact(M):
    tables = anticommutator_table(M)
    assert tables.max_deviation() == 0.0


def dropped_sign(kind, slot, state, modes):
    """`ladder_apply` with every sign forced to +1."""
    plus, minus = ladder_apply(kind, slot, state, modes)
    return plus | minus, 0


def test_anticommutator_table_detects_dropped_sign(monkeypatch):
    # with every sign forced to +1 the operators commute instead, and
    # {a_i, a†_j}|b> = 2|b'> on states with slot i filled and slot j empty
    monkeypatch.setattr(fockspace, "ladder_apply", dropped_sign)
    assert anticommutator_table(4).max_deviation() == 2.0


@pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
def test_dropped_sign_gives_hard_core_bosons(monkeypatch, M):
    """Unsigned ladders are hard-core bosons: every i != j entry reads 2, i = j reads 0."""
    monkeypatch.setattr(fockspace, "ladder_apply", dropped_sign)
    tables = anticommutator_table(M)
    expected = tuple(tuple(2.0 * (i != j) for j in range(M)) for i in range(M))
    assert tables.create_annihilate == expected
    assert tables.annihilate_annihilate == expected


def dense_tables(M, signed):
    """The worst column norms of {a_i, a†_j} - δ_ij I and {a_i, a_j} from dense matrices."""
    a = jordan_wigner(M, signed)
    eye = np.eye(2**M)

    def worst(x):
        return float(np.sqrt(np.max(np.sum(x * x, axis=0))))

    mixed = tuple(tuple(worst(a[i] @ a[j].T + a[j].T @ a[i] - (i == j) * eye)
                        for j in range(M)) for i in range(M))
    same = tuple(tuple(worst(a[i] @ a[j] + a[j] @ a[i]) for j in range(M))
                 for i in range(M))
    return mixed, same


@pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
def test_anticommutator_table_matches_dense_jordan_wigner(monkeypatch, M):
    """Both tables equal a dense Kronecker-product reference, signed and unsigned."""
    tables = anticommutator_table(M)
    assert (tables.create_annihilate, tables.annihilate_annihilate) == dense_tables(M, True)
    monkeypatch.setattr(fockspace, "ladder_apply", dropped_sign)
    tables = anticommutator_table(M)
    assert (tables.create_annihilate, tables.annihilate_annihilate) == dense_tables(M, False)


def test_anticommutator_table_entries_are_floats():
    tables = anticommutator_table(3)
    for table in (tables.create_annihilate, tables.annihilate_annihilate):
        assert type(table) is tuple and len(table) == 3
        assert all(type(row) is tuple and len(row) == 3 for row in table)
        assert all(type(x) is float for row in table for x in row)
    assert type(tables.max_deviation()) is float


def test_anticommutator_capacity():
    with pytest.raises(ParameterError, match="M=17 exceeds mode cap 16"):
        anticommutator_table(17)
    with pytest.raises(ParameterError, match="slot 16 is outside 0..15"):
        ladder_apply("create", 16, (1, 0), 16)
    with pytest.raises(ParameterError, match="slot -1 is outside 0..15"):
        ladder_apply("annihilate", -1, (1, 0), 16)
    with pytest.raises(ParameterError, match="kind must be create/annihilate, got 'destroy'"):
        ladder_apply("destroy", 0, (1, 0), 16)
    with pytest.raises(ParameterError):
        anticommutator_table(0)
    with pytest.raises(ParameterError, match="slot 4 is outside 0..3"):
        ladder_apply("create", 4, (1, 0), 4)
    with pytest.raises(ParameterError, match=r"modes=17 is outside 1..16"):
        ladder_apply("create", 0, (1, 0), 17)
