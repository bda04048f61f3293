"""Vector-boson level series and the hydrogenic comparison."""

from fractions import Fraction

import numpy as np
import pytest

from polarscf.errors import ParameterError
from polarscf.relspectrum import (
    FINE_STRUCTURE_ALPHA,
    SpectrumParams,
    boson_energy,
    k_values_for_l,
)


def oracle_energy(m, gamma, n, k):
    """Independent route: exact rational coefficients, Horner in gamma^2."""
    ak = abs(k)
    c0 = Fraction(1, 2)
    c2 = -Fraction(1, 2 * n**2)
    c4 = -(Fraction(4, ak) - Fraction(3, n)) / (8 * n**3)
    c6 = -(Fraction(3, n**2) - Fraction(8, n * ak) + Fraction(4, k**2)) / (8 * n**4)
    g2 = gamma * gamma
    acc = float(c6)
    for c in (float(c4), float(c2), float(c0)):
        acc = acc * g2 + c
    return m * acc


def test_fine_structure_constant():
    assert FINE_STRUCTURE_ALPHA == 7.2973525693e-3


def test_reference_level_value():
    """m=1, gamma=0.1, ground level: the four parts and their exact sum."""
    b = boson_energy(SpectrumParams(1.0, 0.1, 1, 1))
    assert b.leading == 0.5
    assert b.term2 == pytest.approx(-5.0e-3, rel=1e-15)
    assert b.term4 == pytest.approx(-1.25e-5, rel=1e-15)
    assert b.term6 == pytest.approx(+1.25e-7, rel=1e-15)
    assert abs(b.total - 0.494987625) < 1e-12
    # total is the plain sum of the displayed parts, not a reformulation
    assert b.total == ((b.leading + b.term2) + b.term4) + b.term6


# physical labels only: |k| <= n
PHYSICAL_LABELS = [
    (k, n) for n in (1, 2, 3, 7, 20) for k in (1, -1, 2, -3, 10) if abs(k) <= n
]


@pytest.mark.parametrize("k, n", PHYSICAL_LABELS)
@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.05, 0.2])
def test_against_independent_grouping(k, n, gamma):
    got = boson_energy(SpectrumParams(1.0, gamma, n, k)).total
    want = oracle_energy(1.0, gamma, n, k)
    assert got == pytest.approx(want, rel=1e-15, abs=1e-15)


def test_free_limit_exact():
    b = boson_energy(SpectrumParams(2.5, 0.0, 3, -2))
    assert b.total == 1.25
    assert b.term2 == 0.0 and b.term4 == 0.0 and b.term6 == 0.0


def test_mass_is_a_pure_scale():
    one = boson_energy(SpectrumParams(1.0, 0.07, 2, -1))
    seven = boson_energy(SpectrumParams(7.0, 0.07, 2, -1))
    assert seven.total == pytest.approx(7.0 * one.total, rel=1e-15)
    assert seven.term4 == pytest.approx(7.0 * one.term4, rel=1e-15)


def test_levels_rise_with_n():
    prev = None
    for n in range(1, 51):
        total = boson_energy(SpectrumParams(1.0, 0.1, n, 1)).total
        if prev is not None:
            assert total > prev
        prev = total
    assert prev < 0.5  # binding never overshoots the free value


@pytest.mark.parametrize("gamma", [0.01, 0.05, 0.1])
def test_term_hierarchy(gamma):
    """Each order stays below the last over the physical label range."""
    for n in range(1, 51):
        for k_abs in range(1, min(10, n) + 1):
            for k in (k_abs, -k_abs):
                b = boson_energy(SpectrumParams(1.0, gamma, n, k))
                assert abs(b.term4) < abs(b.term2)
                assert abs(b.term6) < abs(b.term4) or b.term6 == b.term4 == 0.0


def test_hydrogenic_comparison_small_coupling():
    """The excess over the Balmer term, over gamma^4, approaches -m/(8n^3)(4/|k| - 3/n)."""
    b = boson_energy(SpectrumParams(1.0, 1e-4, 1, 1))
    excess = (b.term2 + b.term4 + b.term6) - b.term2
    assert excess / 1e-4**4 == pytest.approx(-0.125, rel=1e-6)
    assert b.term2 == pytest.approx(-0.5 * 1e-8, rel=1e-12)


def test_hydrogenic_comparison_moderate_coupling():
    # at gamma = 0.01 the gamma^6 part is already visible at 1e-4 relative
    g = 0.01
    b = boson_energy(SpectrumParams(1.0, g, 1, 1))
    excess = (b.term2 + b.term4 + b.term6) - b.term2
    assert excess / g**4 == pytest.approx(-0.125 * (1.0 - g**2), rel=1e-9)


@pytest.mark.parametrize(
    "n, k, coeff",
    [
        (1, 1, Fraction(-1, 8)),
        (2, 1, Fraction(-5, 128)),
        (2, 2, Fraction(-1, 128)),
        (3, -3, Fraction(-1, 648)),
    ],
)
def test_leading_coefficient_table(n, k, coeff):
    """The γ⁴ term over γ⁴ is the coefficient −m/(8n³)(4/|k| − 3/n)."""
    gamma = 0.05
    b = boson_energy(SpectrumParams(1.0, gamma, n, k))
    assert b.term4 / gamma**4 == pytest.approx(float(coeff), rel=1e-15)


def test_k_labels():
    # l = 0 drops the forbidden k = 0; every l >= 1 keeps both labels
    assert k_values_for_l(0) == (1,)
    assert k_values_for_l(1) == (-1, 2)
    assert k_values_for_l(3) == (-3, 4)
    with pytest.raises(ParameterError, match="orbital momentum must be an integer >= 0"):
        k_values_for_l(-1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(m=1.0, gamma=0.1, n=1, k=0), "angular label k must be a non-zero integer"),
        (dict(m=1.0, gamma=0.1, n=0, k=1), "principal number must be an integer >= 1"),
        (dict(m=0.0, gamma=0.1, n=1, k=1), "mass scale must be positive"),
        (dict(m=-2.0, gamma=0.1, n=1, k=1), "mass scale must be positive"),
        (dict(m=1.0, gamma=-0.1, n=1, k=1), "coupling gamma must be non-negative"),
        # finite, but Python's float ** overflows on gamma**2
        (dict(m=1.0, gamma=1e200, n=1, k=1), r"gamma 1e\+200 is too large"),
        (dict(m=1.0, gamma=0.1, n=1, k=1.5), "angular label k must be a non-zero integer"),
        (dict(m=1.0, gamma=0.1, n=2.0, k=1), "principal number must be an integer >= 1"),
    ],
    ids=[f"kwargs{i}" for i in range(8)],
)
def test_domain_errors(kwargs, message):
    with pytest.raises(ParameterError, match=message):
        boson_energy(SpectrumParams(**kwargs))
    # `_replace` builds through the constructor, so it cannot skip a check
    with pytest.raises(ParameterError, match=message):
        boson_energy(SpectrumParams(1.0, 0.1, 1, 1)._replace(**kwargs))
