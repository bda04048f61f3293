"""Exact enumeration-based fermionic algebra on small Fock spaces.

Everything here is brute force on purpose: tensors are dense rank-n arrays,
basis states are int64 bit masks (slot s is bit s), and identities are
checked by exhausting the full 2^M basis.  Every fermionic sign comes from
one rule, `ladder_apply`, applied to whole arrays of masks at once.  That
makes this module the trusted oracle the rest of the package is tested
against.

Slots are numbered 0..M-1, and all fermionic signs follow from this
order: a ladder operator on slot s picks up one factor -1 per occupied
slot below s.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

RANK_CAP = 8  # antisymmetrize sums over n! permutations
MODE_CAP = 16  # occupation-number spaces: 2^16 basis masks, each fits in int64


# ---------------------------------------------------------------------------
# permutations


def parity(images) -> int:
    """Sign of the permutation of {1..n} with the given image tuple (bottom row).

    +1 for even, -1 for odd, counted as (-1)^(number of inversions);
    multiplicative under composition.  Images that are not a bijection on
    1..n raise ParameterError.
    """
    imgs = tuple(int(i) for i in images)
    if sorted(imgs) != list(range(1, len(imgs) + 1)):
        raise ParameterError(f"images {imgs} are not a bijection on 1..{len(imgs)}")
    inversions = 0
    for a in range(len(imgs)):
        for b in range(a + 1, len(imgs)):
            if imgs[a] > imgs[b]:
                inversions += 1
    return -1 if inversions % 2 else +1


# ---------------------------------------------------------------------------
# antisymmetric tensors


def antisymmetrize(amplitudes: np.ndarray) -> np.ndarray:
    """Project a dense rank-n tensor onto its antisymmetric part and normalize.

    Returns (1/n!) Σ_P sign(P)·np.transpose(t, P) over the permutations P
    of the n axes, rescaled to unit norm when the projection is nonzero.  A
    symmetric input (e.g. e1⊗e1) projects to zero and is returned as the
    zero tensor.
    """
    t = np.asarray(amplitudes, dtype=complex)
    n = t.ndim
    if n > RANK_CAP:
        raise ParameterError(f"rank {n} exceeds enumeration cap {RANK_CAP}")
    if t.shape != (t.shape[0],) * n:
        raise ParameterError(f"tensor shape {t.shape} is not cubic")
    if not np.all(np.isfinite(t)):
        raise ParameterError("tensor amplitudes must be finite")
    acc = np.zeros_like(t)
    for axes in itertools.permutations(range(n)):
        acc += parity([a + 1 for a in axes]) * np.transpose(t, axes)
    acc /= math.factorial(n)
    nrm = np.linalg.norm(acc.ravel())
    if nrm > 0.0:
        acc = acc / nrm
    return acc


def cycle_sum_residual(t: np.ndarray) -> float:
    """Max-norm of the unsigned sum of a tensor over all argument permutations.

    Transposition pairs cancel on antisymmetric input, so this vanishes.
    """
    acc = np.zeros_like(t)
    for axes in itertools.permutations(range(t.ndim)):
        acc += np.transpose(t, axes)
    return float(np.max(np.abs(acc)))


# ---------------------------------------------------------------------------
# ladder operators


def ladder_apply(kind, slot, masks):
    """a†_slot ("create") or a_slot ("annihilate") on an array of basis masks.

    Slot s is bit s of a mask.  Returns (new_masks, amplitudes): the
    amplitude is (-1)^(number of occupied slots below `slot`), or 0 where
    creating on an occupied slot or annihilating an empty one kills the term.
    This is the only place a fermionic sign is formed.
    """
    if kind not in ("create", "annihilate"):
        raise ParameterError(f"kind must be create/annihilate, got {kind!r}")
    if not 0 <= slot < MODE_CAP:
        raise ParameterError(f"slot {slot} is outside 0..{MODE_CAP - 1}")
    masks = np.asarray(masks, dtype=np.int64)
    bit = 1 << slot
    alive = ((masks & bit) == 0) == (kind == "create")
    # bitwise_count returns uint8, where 1 - 2*1 would wrap to 255
    below = np.bitwise_count(masks & (bit - 1)).astype(np.int64)
    return masks ^ bit, np.where(alive, 1 - 2 * (below & 1), 0)


# ---------------------------------------------------------------------------
# exhaustive identity tables


@dataclass(frozen=True)
class AnticommutatorTables:
    """Operator norms of {a_i, a†_j} - δ_ij I and {a_i, a_j} over all pairs."""

    create_annihilate: np.ndarray
    annihilate_annihilate: np.ndarray

    def max_deviation(self):
        return float(
            max(np.max(self.create_annihilate), np.max(self.annihilate_annihilate))
        )


def anticommutator_table(M: int) -> AnticommutatorTables:
    """Exhaustively verify the fermionic anticommutation relations on 2^M states.

    For every pair (i, j), both operator orderings are applied to all 2^M
    basis masks at once and summed; the tables record the worst resulting
    vector norm (with the δ_ij identity subtracted in the mixed table).  All
    entries are exactly zero for a correct sign convention.
    """
    if M < 1:
        raise ParameterError("M must be >= 1")
    if M > MODE_CAP:
        raise ParameterError(f"M={M} exceeds mode cap {MODE_CAP}")
    basis = np.arange(1 << M, dtype=np.int64)

    def product(first, second):
        masks, inner = ladder_apply(*second, basis)
        masks, outer = ladder_apply(*first, masks)
        return masks, inner * outer

    def worst(x, y, identity):
        # (xy + yx - identity)|b> = a1|m1> + a2|m2> - identity|b> with integer
        # amplitudes, so its squared norm is an exact integer
        (m1, a1), (m2, a2) = product(x, y), product(y, x)
        sq = (a1 * a1 + a2 * a2 + identity + 2 * a1 * a2 * (m1 == m2)
              - 2 * identity * (a1 * (m1 == basis) + a2 * (m2 == basis)))
        return math.sqrt(sq.max())

    mixed = np.zeros((M, M))
    same = np.zeros((M, M))
    for i in range(M):
        for j in range(M):
            mixed[i, j] = worst(("annihilate", i), ("create", j), int(i == j))
            same[i, j] = worst(("annihilate", i), ("annihilate", j), 0)
    return AnticommutatorTables(create_annihilate=mixed, annihilate_annihilate=same)
