"""Exact fermionic algebra on small occupation-number spaces."""

import functools
import itertools

import numpy as np
import pytest

from polarscf import fockspace
from polarscf.errors import CapacityError, InvalidPermutationError, ParameterError
from polarscf.fockspace import (
    FockVector,
    LadderOperator,
    OccupationVector,
    anticommutator_table,
    antisymmetrize,
    cycle_sum_residual,
    ladder_apply,
    parity,
)


def create(slot):
    return LadderOperator("create", slot)


def annihilate(slot):
    return LadderOperator("annihilate", slot)


def basis_state(bits):
    return FockVector({OccupationVector(bits): 1.0})


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
    with pytest.raises(InvalidPermutationError):
        parity((1, 1, 3))
    with pytest.raises(InvalidPermutationError):
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
    v = basis_state((0, 1, 1, 0))
    out = ladder_apply(annihilate(2), v)
    assert out.terms == {OccupationVector((0, 1, 0, 0)): -1.0}
    # creating on slot 0 crosses nothing
    out = ladder_apply(create(0), v)
    assert out.terms == {OccupationVector((1, 1, 1, 0)): 1.0}
    # double creation on an occupied slot kills the term
    assert ladder_apply(create(1), v).terms == {}
    assert ladder_apply(annihilate(0), v).terms == {}


def test_nilpotency():
    v = basis_state((0, 0, 1, 0))
    assert ladder_apply(create(1), ladder_apply(create(1), v)).terms == {}
    assert ladder_apply(annihilate(2), ladder_apply(annihilate(2), v)).terms == {}


def test_product_state_ordering():
    # a+_0 a+_2 |0> has positive amplitude; swapping the order flips the sign
    vacuum = basis_state((0, 0, 0, 0))
    v = ladder_apply(create(0), ladder_apply(create(2), vacuum))
    assert v.terms == {OccupationVector((1, 0, 1, 0)): 1.0}
    w = ladder_apply(create(2), ladder_apply(create(0), vacuum))
    assert w.terms == {OccupationVector((1, 0, 1, 0)): -1.0}


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
        for op, matrix in ((annihilate(s), a), (create(s), a.T)):
            for bits in itertools.product((0, 1), repeat=M):
                column = np.zeros(2**M, dtype=complex)
                for occ, amp in ladder_apply(op, basis_state(bits)).terms.items():
                    column[index(occ.bits)] += amp
                assert np.array_equal(column, matrix[:, index(bits)]), (op, bits)


@pytest.mark.parametrize("M", [1, 2, 3, 4, 8, 16])
def test_anticommutators_exact(M):
    tables = anticommutator_table(M)
    assert tables.max_deviation() == 0.0


def test_anticommutator_table_detects_dropped_sign(monkeypatch):
    # with every sign forced to +1 the operators commute instead, and
    # {a_i, a†_j}|b> = 2|b'> on states with slot i filled and slot j empty
    signed = fockspace._ladder

    def unsigned(kind, slot, masks):
        new_masks, amplitudes = signed(kind, slot, masks)
        return new_masks, np.abs(amplitudes)

    monkeypatch.setattr(fockspace, "_ladder", unsigned)
    assert anticommutator_table(4).max_deviation() == 2.0


def test_anticommutator_capacity():
    with pytest.raises(CapacityError):
        anticommutator_table(17)
    with pytest.raises(CapacityError):
        OccupationVector((0,) * 17)
    with pytest.raises(ParameterError):
        anticommutator_table(0)
