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


def act(kind, slot, m):
    """(new mask, amplitude) of one ladder operator on one basis mask."""
    (new,), (amp,) = ladder_apply(kind, slot, [m])
    return int(new), int(amp)


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
    basis = np.arange(16)
    for kind in ("create", "annihilate"):
        for s in range(4):
            masks, inner = ladder_apply(kind, s, basis)
            assert not np.any(inner * ladder_apply(kind, s, masks)[1])


def test_product_state_ordering():
    # a+_0 a+_2 |0> has positive amplitude; swapping the order flips the sign
    vacuum = mask((0, 0, 0, 0))
    m, inner = act("create", 2, vacuum)
    assert act("create", 0, m) == (mask((1, 0, 1, 0)), 1) and inner == 1
    m, inner = act("create", 0, vacuum)
    assert act("create", 2, m) == (mask((1, 0, 1, 0)), -1) and inner == 1


def test_ladder_matches_jordan_wigner():
    """Every ladder action on M=5 equals the Jordan-Wigner matrix column.

    a_s = Z x ... x Z x |0><1| x I x ... x I with slot 0 the leftmost
    Kronecker factor, so a basis state's index is its bits read as binary.
    """
    M = 5
    z, lower, eye = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)

    def index(bits):
        return int("".join(map(str, bits)), 2)

    for s in range(M):
        a = functools.reduce(np.kron, [z] * s + [lower] + [eye] * (M - s - 1))
        for kind, matrix in (("annihilate", a), ("create", a.T)):
            for bits in itertools.product((0, 1), repeat=M):
                column = np.zeros(2**M)
                new, amp = act(kind, s, mask(bits))
                if amp:
                    column[index([new >> t & 1 for t in range(M)])] += amp
                assert np.array_equal(column, matrix[:, index(bits)]), (kind, s, bits)


@pytest.mark.parametrize("M", [1, 2, 3, 4, 8, 16])
def test_anticommutators_exact(M):
    tables = anticommutator_table(M)
    assert tables.max_deviation() == 0.0


def test_anticommutator_table_detects_dropped_sign(monkeypatch):
    # with every sign forced to +1 the operators commute instead, and
    # {a_i, a†_j}|b> = 2|b'> on states with slot i filled and slot j empty
    signed = fockspace.ladder_apply

    def unsigned(kind, slot, masks):
        new_masks, amplitudes = signed(kind, slot, masks)
        return new_masks, np.abs(amplitudes)

    monkeypatch.setattr(fockspace, "ladder_apply", unsigned)
    assert anticommutator_table(4).max_deviation() == 2.0


def test_anticommutator_capacity():
    with pytest.raises(ParameterError, match="M=17 exceeds mode cap 16"):
        anticommutator_table(17)
    with pytest.raises(ParameterError, match="slot 16 is outside 0..15"):
        ladder_apply("create", 16, [0])
    with pytest.raises(ParameterError, match="slot -1 is outside 0..15"):
        ladder_apply("annihilate", -1, [0])
    with pytest.raises(ParameterError, match="kind must be create/annihilate, got 'destroy'"):
        ladder_apply("destroy", 0, [0])
    with pytest.raises(ParameterError):
        anticommutator_table(0)
