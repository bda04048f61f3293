"""Exact enumeration-based fermionic algebra on small Fock spaces.

Everything here is brute force on purpose: tensors are dense rank-n arrays,
basis states are bit masks (slot s is bit s), and identities are checked
by exhausting the full 2^M basis.  A state whose amplitudes all lie in
{-1, 0, +1} is a signed set: a pair of Python ints (plus, minus), in which
bit b is set when basis mask b has amplitude +1 (in `plus`) or -1 (in
`minus`).  Every fermionic sign comes from one rule, `ladder_apply`, which
acts on all 2^M masks of a signed set at once with a few integer
operations.  That makes this module the trusted oracle the rest of the
package is tested against.  NumPy is loaded only by the dense tensor
functions, on first use.

Slots are numbered 0..M-1, and all fermionic signs follow from this
order: a ladder operator on slot s picks up one factor -1 per occupied
slot below s.
"""

import functools
import itertools
import math
from collections import namedtuple

from .errors import ParameterError

RANK_CAP = 8  # antisymmetrize sums over n! permutations
MODE_CAP = 16  # occupation-number spaces: a signed set over 16 modes is two 2^16-bit ints


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


def antisymmetrize(amplitudes):
    """Project a dense rank-n tensor onto its antisymmetric part and normalize.

    Returns (1/n!) Σ_P sign(P)·np.transpose(t, P) over the permutations P
    of the n axes, rescaled to unit norm when the projection is nonzero.  A
    symmetric input (e.g. e1⊗e1) projects to zero and is returned as the
    zero tensor.
    """
    import numpy as np

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


def cycle_sum_residual(t) -> float:
    """Max-norm of the unsigned sum of a tensor over all argument permutations.

    Transposition pairs cancel on antisymmetric input, so this vanishes.
    """
    import numpy as np

    acc = np.zeros_like(t)
    for axes in itertools.permutations(range(t.ndim)):
        acc += np.transpose(t, axes)
    return float(np.max(np.abs(acc)))


# ---------------------------------------------------------------------------
# ladder operators


@functools.cache
def _occupied(slot, modes):
    """Bit b is set when basis mask b fills `slot`: runs of 2^slot zeros, then ones."""
    run = 1 << slot
    return (((1 << run) - 1) << run) * (((1 << (1 << modes)) - 1) // ((1 << 2 * run) - 1))


@functools.cache
def _odd_below(slot, modes):
    """Bit b is set when basis mask b fills an odd number of slots below `slot`.

    That parity is the XOR of those slots' occupancies: the Thue-Morse
    sequence over the low 2^slot masks, repeated.
    """
    return _odd_below(slot - 1, modes) ^ _occupied(slot - 1, modes) if slot else 0


def ladder_apply(kind, slot, state, modes):
    """a†_slot ("create") or a_slot ("annihilate") on a signed set over 2^modes masks.

    `state` and the result are (plus, minus) pairs of ints, bit b standing
    for basis mask b.  Each mask b moves to b ^ 2^slot with its amplitude
    times (-1)^(number of occupied slots below `slot`), or drops out where
    creating on an occupied slot or annihilating an empty one kills the
    term.  This is the only place a fermionic sign is formed.
    """
    if kind not in ("create", "annihilate"):
        raise ParameterError(f"kind must be create/annihilate, got {kind!r}")
    if not 1 <= modes <= MODE_CAP:
        raise ParameterError(f"modes={modes} is outside 1..{MODE_CAP}")
    if not 0 <= slot < modes:
        raise ParameterError(f"slot {slot} is outside 0..{modes - 1}")
    alive = _occupied(slot, modes)
    if kind == "create":
        alive = ~alive
    plus, minus = state[0] & alive, state[1] & alive
    swap = (plus ^ minus) & _odd_below(slot, modes)
    plus, minus = plus ^ swap, minus ^ swap
    if kind == "create":
        return plus << (1 << slot), minus << (1 << slot)
    return plus >> (1 << slot), minus >> (1 << slot)


# ---------------------------------------------------------------------------
# exhaustive identity tables


def _tally(full, sets):
    """Bit-sliced counts: bit b of entry k is set when exactly k of `sets` hold b."""
    counts = [full]
    for s in sets:
        counts = [a & ~s | b & s for a, b in zip(counts + [0], [0] + counts)]
    return counts


class AnticommutatorTables(namedtuple(
    "AnticommutatorTables", "create_annihilate annihilate_annihilate"
)):
    """Operator norms of {a_i, a†_j} - δ_ij I and {a_i, a_j}: row i, column j, as floats."""

    __slots__ = ()

    def max_deviation(self):
        return max(max(row) for row in self.create_annihilate + self.annihilate_annihilate)


def anticommutator_table(M: int) -> AnticommutatorTables:
    """Exhaustively verify the fermionic anticommutation relations on 2^M states.

    For every pair (i, j), both operator orderings are applied to the signed
    set of all 2^M basis masks; the tables record the worst norm of
    (xy + yx - δ_ij I)|b> over the masks b (δ_ij only in the mixed table).
    All entries are exactly zero for a correct sign convention.
    """
    if M < 1:
        raise ParameterError("M must be >= 1")
    if M > MODE_CAP:
        raise ParameterError(f"M={M} exceeds mode cap {MODE_CAP}")
    full = (1 << (1 << M)) - 1

    def product(first, second):
        return ladder_apply(*first, ladder_apply(*second, (full, 0), M), M)

    def worst(x, y, identity):
        # xy, yx and the identity term all take b to the one mask b ^ 2^i ^ 2^j,
        # so (xy + yx - identity)|b> = c|b ^ 2^i ^ 2^j> with the integer
        # c = a1 + a2 - identity, counted bitwise as positive minus negative terms
        (p1, m1), (p2, m2) = product(x, y), product(y, x)
        ups = _tally(full, (p1, p2))
        downs = _tally(full, (m1, m2, full if identity else 0))
        return float(max(abs(u - d) for u, up in enumerate(ups)
                         for d, down in enumerate(downs) if up & down))

    mixed = tuple(
        tuple(worst(("annihilate", i), ("create", j), int(i == j)) for j in range(M))
        for i in range(M)
    )
    same = tuple(
        tuple(worst(("annihilate", i), ("annihilate", j), 0) for j in range(M))
        for i in range(M)
    )
    return AnticommutatorTables(create_annihilate=mixed, annihilate_annihilate=same)
