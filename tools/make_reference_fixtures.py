#!/usr/bin/env python3
"""Regenerate the committed high-resolution reference fixtures.

The helium ground-state fixture pins the mean-field total energy at four
times the default radial resolution.  The test suite compares ordinary
default-resolution runs against this file, so it only needs regenerating
when the discretization or the mean-field physics intentionally changes.

Run from the repository root:

    python3 tools/make_reference_fixtures.py

At N=8000 the timed solve takes 0.2 s, about 0.13 s of it SciPy's import
on the first factorization, and the whole run peaks at 67 MB RSS
(6 iterations, on a 2-core x86-64 machine with one OpenBLAS thread): the
Fock operator is applied and factored in O(N) memory.  The timing line
reports iterations, factorizations, shift-invert solves, elapsed time and
peak RSS; a second line gives the energy change against the fixture being
replaced.
"""

import json
import pathlib
import resource
import time

from polarscf.hfcore import AtomConfig, GridParams, scf_solve

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"

RESOLUTION_FACTOR = 4
BASE_POINTS = 2000


def helium_reference() -> dict:
    n_points = RESOLUTION_FACTOR * BASE_POINTS
    cfg = AtomConfig(
        z=2.0,
        shells=((1, 0, 2),),
        grid=GridParams(n_points=n_points),
    )
    t0 = time.time()
    state = scf_solve(cfg)
    elapsed = time.time() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    factorizations = sum(row["factorizations"] for row in state.trace)
    solves = sum(row["shift_invert_solves"] for row in state.trace)
    print(
        f"helium: E = {state.total_energy:.12f} Ha, eps_1s = "
        f"{state.eigenvalues[0]:.12f} Ha, {state.iterations} iterations, "
        f"{factorizations} factorizations, {solves} shift-invert solves, "
        f"{elapsed:.2f}s, peak RSS {peak_mb:.0f} MB"
    )
    return {
        "system": "helium 1s^2 restricted mean field",
        "z": 2.0,
        "shells": "1s:2",
        "resolution_factor": RESOLUTION_FACTOR,
        "n_points": n_points,
        "r_min": 1e-6 / 2.0,
        "r_max": 50.0,
        "converged": bool(state.converged),
        "iterations": int(state.iterations),
        "eigenvalue_1s_hartree": float(state.eigenvalues[0]),
        "total_energy_hartree": float(state.total_energy),
    }


def main():
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    path = FIXTURE_DIR / "he_reference.json"
    data = helium_reference()
    if path.exists():
        old = json.loads(path.read_text(encoding="utf-8"))["total_energy_hartree"]
        print(f"helium: dE = {data['total_energy_hartree'] - old:.3e} Ha against {path.name}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
