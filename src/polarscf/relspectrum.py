"""Quasirelativistic level series for a bound vector particle.

The energy of a spin-1 particle of mass m bound in a Coulomb field, with
coupling γ = Zα, expands in even powers of γ around the rest-plus-binding
value.  Each order is kept as a separate term so the composition of the
level — rest energy, Balmer term, fine structure, and the γ⁶ correction —
stays inspectable.

Levels are labeled by the principal number n and an integer k that encodes
the angular momentum coupling; k = 0 never occurs (the formulas divide by
it, and the physical label set for orbital momentum l is {−l, l+1}, whose
l = 0 case sheds the zero entry).
"""

from collections import namedtuple
from numbers import Integral

from .errors import ParameterError

FINE_STRUCTURE_ALPHA = 7.2973525693e-3


class SpectrumParams(namedtuple("SpectrumParams", "m gamma n k")):
    """Inputs of one level: mass scale m, coupling γ, labels (n, k)."""

    __slots__ = ()

    def __new__(cls, m, gamma, n, k):
        if m <= 0:
            raise ParameterError(f"mass scale must be positive, got {m}")
        if gamma < 0:
            raise ParameterError(f"coupling gamma must be non-negative, got {gamma}")
        if not isinstance(n, Integral) or n < 1:
            raise ParameterError(f"principal number must be an integer >= 1, got {n}")
        if not isinstance(k, Integral) or k == 0:
            raise ParameterError(f"angular label k must be a non-zero integer, got {k}")
        return super().__new__(cls, m, gamma, n, k)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through this: keep the checks
        return cls(*iterable)


class SpectrumBreakdown(namedtuple("SpectrumBreakdown", "leading term2 term4 term6 total")):
    """One level split by order in γ; total is the plain sum of the parts."""

    __slots__ = ()


def boson_energy(p: SpectrumParams) -> SpectrumBreakdown:
    """Level energy through order γ⁶ (in units where the rest term is m/2)."""
    m, g, n, k = p.m, p.gamma, p.n, abs(p.k)
    leading = m / 2.0
    try:
        term2 = -m * g**2 / (2.0 * n**2)
        term4 = -m * g**4 / (8.0 * n**3) * (4.0 / k - 3.0 / n)
        term6 = -m * g**6 / (8.0 * n**4) * (3.0 / n**2 - 8.0 / (n * k) + 4.0 / p.k**2)
    except OverflowError:
        raise ParameterError(
            f"coupling gamma {g!r} is too large: its powers overflow a float"
        ) from None
    total = leading + term2 + term4 + term6
    return SpectrumBreakdown(
        leading=leading, term2=term2, term4=term4, term6=term6, total=total
    )


def k_values_for_l(l: int) -> tuple:
    """Allowed angular labels {−l, l+1} for orbital momentum l.

    For l = 0 the −l entry would be the forbidden k = 0, and it is dropped:
    k_values_for_l(0) == (1,).
    """
    if not isinstance(l, Integral) or l < 0:
        raise ParameterError(f"orbital momentum must be an integer >= 0, got {l}")
    return tuple(k for k in (-l, l + 1) if k != 0)
