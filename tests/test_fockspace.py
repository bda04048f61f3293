"""Exact fermionic algebra on small occupation-number spaces."""

import functools
import itertools

import numpy as np
import pytest

from polarscf import fockspace
from polarscf.errors import (
    CapacityError,
    InvalidPermutationError,
    ParameterError,
    PreconditionError,
)
from polarscf.fockspace import (
    AntisymTensor,
    FockVector,
    OccupationVector,
    Permutation,
    annihilate,
    anticommutator_table,
    antisymmetrize,
    create,
    cycle_sum_residual,
    cyclic_residual,
    hole_create,
    ladder_apply,
    parity,
    permute_tensor,
    product_state,
    slot_index,
    slot_label,
)


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
    p = Permutation(images)
    assert parity(p) == expected
    assert cycle_parity(images) == expected


def test_parity_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = Permutation(tuple(rng.permutation(5) + 1))
        b = Permutation(tuple(rng.permutation(5) + 1))
        assert parity(a.compose(b)) == parity(a) * parity(b)
        assert parity(a.inverse()) == parity(a)


def test_invalid_permutation_rejected():
    with pytest.raises(InvalidPermutationError):
        Permutation((1, 1, 3))
    with pytest.raises(InvalidPermutationError):
        Permutation((0, 1, 2))


def test_antisymmetrize_swap_antisymmetry():
    # the permutation sum visits addends in a different order per entry, so
    # near-cancelling entries agree only to rounding, not bitwise
    rng = np.random.default_rng(3)
    t = antisymmetrize(rng.standard_normal((5, 5, 5)))
    for i, j in itertools.combinations(range(1, 4), 2):
        swapped = permute_tensor(t.amplitudes, Permutation.transposition(3, i, j))
        assert np.allclose(swapped, -t.amplitudes, rtol=0.0, atol=1e-14)


def test_antisymmetrize_idempotent_direction():
    # projecting twice only rescales: the direction is already fixed
    rng = np.random.default_rng(4)
    t = antisymmetrize(rng.standard_normal((4, 4, 4, 4)))
    again = antisymmetrize(t.amplitudes)
    assert np.allclose(again.amplitudes, t.amplitudes / t.norm(), atol=1e-14)


@pytest.mark.parametrize("n, dim", [(2, 4), (2, 5), (3, 4), (3, 5), (4, 4), (4, 5)])
def test_cyclic_residual_vanishes(n, dim):
    rng = np.random.default_rng(100 * n + dim)
    for trial in range(5):
        t = antisymmetrize(rng.standard_normal((dim,) * n))
        for k in range(1, n):
            assert cyclic_residual(t, k) < 1e-12
        assert cycle_sum_residual(t) < 1e-12


def test_cyclic_residual_rejects_non_antisymmetric():
    sym = np.ones((4, 4))
    t = AntisymTensor(n=2, dim=4, amplitudes=sym)
    with pytest.raises(PreconditionError):
        cyclic_residual(t, 1)


def test_cyclic_residual_split_range():
    rng = np.random.default_rng(9)
    t = antisymmetrize(rng.standard_normal((4, 4, 4)))
    with pytest.raises(ParameterError):
        cyclic_residual(t, 0)
    with pytest.raises(ParameterError):
        cyclic_residual(t, 3)


# ---------------------------------------------------------------------------
# ladder operators


def test_slot_layout():
    assert slot_index(1, "up") == 0
    assert slot_index(1, "down") == 1
    assert slot_index(3, "down") == 5
    assert slot_label(6) == (4, "up")
    with pytest.raises(ParameterError):
        slot_index(0, "up")
    with pytest.raises(ParameterError):
        slot_index(1, "sideways")


def test_ladder_sign_convention():
    # |0110> : annihilating slot 2 crosses one occupied slot -> sign -1
    v = FockVector.basis_state((0, 1, 1, 0))
    out = ladder_apply(annihilate(2), v)
    assert out.terms == {OccupationVector((0, 1, 0, 0)): -1.0}
    # creating on slot 0 crosses nothing
    out = ladder_apply(create(0), v)
    assert out.terms == {OccupationVector((1, 1, 1, 0)): 1.0}
    # double creation on an occupied slot kills the term
    assert ladder_apply(create(1), v).is_zero()
    assert ladder_apply(annihilate(0), v).is_zero()


def test_nilpotency():
    v = FockVector.basis_state((0, 0, 1, 0))
    assert ladder_apply(create(1), ladder_apply(create(1), v)).is_zero()
    assert ladder_apply(annihilate(2), ladder_apply(annihilate(2), v)).is_zero()


def test_product_state_ordering():
    # a+_0 a+_2 |0> has positive amplitude; swapping the list flips the sign
    v = product_state([0, 2], 4)
    assert v.terms == {OccupationVector((1, 0, 1, 0)): 1.0}
    w = product_state([2, 0], 4)
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
                for occ, amp in ladder_apply(op, FockVector.basis_state(bits)).terms.items():
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


def test_basis_state_accepts_raw_bits():
    v = FockVector.basis_state((1, 0, 1))
    assert v.populations() == {2}


# ---------------------------------------------------------------------------
# hole creation


def test_hole_create_reference():
    """Four-electron reference, one hole: coherent two-term result.

    Reference occupies slots (1,up), (2,down), (3,down), (4,up).  Removing
    (3,down) crosses two occupied slots (+), removing (4,up) crosses
    three (-).
    """
    ref = product_state([0, 3, 5, 6], 8)
    out = hole_create(ref, 3, (1, 2))
    expect = {
        OccupationVector((1, 0, 0, 1, 0, 0, 1, 0)): 1.0,
        OccupationVector((1, 0, 0, 1, 0, 1, 0, 0)): -1.0,
    }
    assert out.terms == expect
    assert out.populations() == {3}


def test_hole_create_validates_configuration():
    ref = product_state([0, 3, 5, 6], 8)
    with pytest.raises(ParameterError):
        hole_create(ref, 4, (1, 2))  # n must be 2k+1
    with pytest.raises(ParameterError):
        hole_create(ref, 3, (1, 1))  # counts must add to n
    mixed = ref + product_state([0], 8)
    with pytest.raises(ParameterError):
        hole_create(mixed, 3, (1, 2))


def test_hole_create_norm():
    ref = product_state([0, 3, 5, 6], 8)
    out = hole_create(ref, 3, (1, 2))
    assert out.norm() == pytest.approx(np.sqrt(2.0), abs=0.0)
