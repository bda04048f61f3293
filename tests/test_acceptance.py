"""End-to-end acceptance gate: one test per advertised guarantee.

Each test prints the numbers it judged, so a `pytest -rA` run shows the
full scorecard next to the pass/fail verdicts.  Tolerances and time
budgets here are contractual; the per-module suites probe tighter.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polarscf.fockspace import (
    anticommutator_table,
    antisymmetrize,
    cycle_sum_residual,
)
from polarscf.hfcore import (
    AtomConfig,
    GridParams,
    build_density,
    exchange_apply,
    hartree_potential,
    scf_solve,
    slater_potential,
)
from polarscf.pseudopot import pk_solve
from polarscf.quasiparticle import (
    dyson_born,
    dyson_solve,
    green0,
    pair_quantities,
    projector,
)
from polarscf.radial import (
    hydrogenic_orbital,
    inner,
    integrate,
    kinetic_apply,
    make_grid,
    u_to_z,
)
from polarscf.relspectrum import SpectrumParams, boson_energy

FIXTURES = Path(__file__).parent / "fixtures"


def test_criterion_01_anticommutators_exact():
    t0 = time.monotonic()
    worst = 0.0
    for modes in range(1, 7):
        worst = max(worst, anticommutator_table(modes).max_deviation())
    elapsed = time.monotonic() - t0
    print(f"criterion 1: worst deviation {worst!r} over M<=6 in {elapsed:.2f}s")
    assert worst == 0.0
    assert elapsed < 5.0


def test_criterion_02_cycle_identity_on_random_tensors():
    rng = np.random.default_rng(1402)
    combos = [(n, d) for n in (2, 3, 4) for d in (4, 5)]
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(100):
        n, dim = combos[trial % len(combos)]
        t = antisymmetrize(rng.standard_normal((dim,) * n))
        worst = max(worst, cycle_sum_residual(t))
    elapsed = time.monotonic() - t0
    print(f"criterion 2: worst residual {worst:.3e} in 100/100 trials, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 10.0


def test_criterion_03_hydrogen_level_and_virial(h_run):
    state, elapsed = h_run
    o = state.orbitals[0]
    T = o.occupation * inner(o.u, kinetic_apply(o, state.grid), state.grid)
    ratio = (state.total_energy - T) / T
    print(
        f"criterion 3: eps_1s={state.eigenvalues[0]:.6f}, V/T={ratio:.6f}, "
        f"{elapsed:.2f}s"
    )
    assert state.converged
    assert abs(state.eigenvalues[0] + 0.5) < 5e-4
    assert abs(ratio + 2.0) < 5e-3
    assert elapsed < 10.0


def test_criterion_04_helium_vs_high_resolution_fixture(he_run):
    state, elapsed = he_run
    ref = json.loads((FIXTURES / "he_reference.json").read_text())
    assert ref["converged"] is True
    assert ref["resolution_factor"] == 4
    delta = abs(state.total_energy - ref["total_energy_hartree"])
    print(f"criterion 4: |E - E_ref| = {delta:.3e} hartree, {elapsed:.2f}s")
    assert delta < 2e-2
    assert elapsed < 60.0


@pytest.mark.parametrize(
    "z,shells",
    [(1.0, ((1, 0, 1),)), (2.0, ((1, 0, 1),)), (1.0, ((2, 1, 1),))],
    ids=["h-1s", "he+-1s", "h-2p"],
)
def test_criterion_05_one_electron_cancellation(z, shells):
    state = scf_solve(AtomConfig(z=z, shells=shells, grid=GridParams(n_points=800)))
    g = state.grid
    o = state.orbitals[0]
    direct = hartree_potential(build_density(state.orbitals, g), g) * o.u
    exch = exchange_apply(state.orbitals, o, g)
    z = u_to_z(direct - exch, g)
    resid = np.sqrt(float(z @ z))
    print(f"criterion 5: Z={z} shells={shells}: ||(Vsc - Sx)psi|| = {resid:.3e}")
    assert resid < 1e-10


@pytest.mark.parametrize("z", [1.0, 2.0])
def test_criterion_06_exchange_integral_five_eighths(z):
    g = make_grid(1e-6, 50.0, 1500)
    o = hydrogenic_orbital(z, 1, 0, g)
    k = integrate(o.u**2 * slater_potential(o.u**2, 0, g), g)
    print(f"criterion 6: Z={z}: K(1s,1s) = {k:.8f}, target {5.0 * z / 8.0:.8f}")
    assert abs(k - 5.0 * z / 8.0) < 1e-3


def test_criterion_07_pseudo_level_invariance(li_run):
    state, elapsed = li_run
    p = pk_solve(state, (2, 0))
    delta = abs(p.eigenvalue - p.eigenvalue_allelectron)
    print(
        f"criterion 7: |eps_pk - eps_2s| = {delta:.3e}, nodes = {p.node_count}, "
        f"{elapsed:.2f}s"
    )
    assert delta < 1e-6
    assert p.node_count == 0
    assert elapsed < 60.0


def test_criterion_08_projector_and_dyson_laws():
    rng = np.random.default_rng(88)
    v = rng.standard_normal(200)
    P = projector(v / np.linalg.norm(v)).matrix
    idem = float(np.max(np.abs(P @ P - P)))
    herm = float(np.max(np.abs(P - P.T.conj())))

    h = rng.standard_normal((50, 50))
    h = (h + h.T) / 2.0
    g0 = green0(h, 0.3, eta=0.08)
    s = rng.standard_normal((50, 50))
    s = (s + s.T) / 2.0
    s *= 0.45 / float(np.max(np.abs(np.linalg.eigvals(g0.matrix @ s))))
    dev = float(
        np.max(np.abs(dyson_solve(g0, s).matrix - dyson_born(g0, s, terms=30).matrix))
    )
    print(
        f"criterion 8: idempotency {idem:.3e}, hermiticity {herm:.3e}, "
        f"dyson closed-vs-born {dev:.3e}"
    )
    assert idem < 1e-12
    assert herm < 1e-12
    assert dev < 1e-8


def test_criterion_09_pair_gap_identity_and_regimes():
    rng = np.random.default_rng(9090)
    worst = 0.0
    for _ in range(1000):
        dm0 = rng.uniform(-1.0, 1.0)
        pq = pair_quantities(
            dm0,
            rng.uniform(-1.0, 1.0),
            int(rng.integers(1, 4)),
            rng.uniform(-0.5, 0.5),
        )
        worst = max(worst, abs(pq.gap + dm0 / 2.0))
    print(f"criterion 9: worst |gap + dM0/2| = {worst:.3e} over 1000 draws")
    assert worst <= 1e-15
    assert pair_quantities(1e-5, 0.3, 1, 0.0).regime == "light"
    assert pair_quantities(1.5, 0.3, 1, 0.0).regime == "heavy"
    assert pair_quantities(1.0, 0.0, 1, 0.0).regime == "heavy"
    assert pair_quantities(0.25, 0.0, 1, 0.0).regime == "indeterminate"


def _oracle_total(m, gamma, n, k):
    """Exact-rational term-by-term evaluation of the level series."""
    mf, gf, nf, kf = Fraction(m), Fraction(gamma), Fraction(n), Fraction(abs(k))
    c2 = -Fraction(1, 2) / nf**2
    c4 = -(4 / kf - 3 / nf) / (8 * nf**3)
    c6 = -(3 / nf**2 - 8 / (nf * kf) + 4 / kf**2) / (8 * nf**4)
    return float(mf * (Fraction(1, 2) + c2 * gf**2 + c4 * gf**4 + c6 * gf**6))


def test_criterion_10_boson_series_reference_and_dominance():
    for m in (1.0, 1.3, 2.5):
        assert boson_energy(SpectrumParams(m, 0.0, 3, 2)).total == m / 2.0

    b = boson_energy(SpectrumParams(1.0, 0.1, 1, 1))
    delta_dec = abs(b.total - 0.494987625)
    delta_orc = abs(b.total - _oracle_total(1.0, 0.1, 1, 1))

    violations = 0
    points = 0
    for gamma in (0.01, 0.05, 0.1):
        for n in range(1, 51):
            kmax = min(10, n)
            for k in range(-kmax, kmax + 1):
                if k == 0:
                    continue
                t = boson_energy(SpectrumParams(1.0, gamma, n, k))
                points += 1
                if not (abs(t.term2) > abs(t.term4) > abs(t.term6)):
                    violations += 1
    print(
        f"criterion 10: |total - 0.494987625| = {delta_dec:.3e}, "
        f"|total - oracle| = {delta_orc:.3e}, "
        f"dominance violations {violations}/{points}"
    )
    assert delta_dec < 1e-12
    assert delta_orc < 1e-12
    assert violations == 0


def test_criterion_11_byte_identical_artifacts(tmp_path):
    payloads = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        r = subprocess.run(
            [
                sys.executable,
                "-m",
                "polarscf.shell",
                "scf",
                "z=1.0",
                "shells=1s:1",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0, r.stderr
        payloads.append(out.read_bytes())
    same = payloads[0] == payloads[1]
    print(f"criterion 11: byte-identical across fresh processes: {same}")
    assert same
    assert json.loads(payloads[0])["result"]["converged"] is True
