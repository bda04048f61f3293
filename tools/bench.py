#!/usr/bin/env python3
"""Measure the end-to-end cases and solver phases of ROADMAP aim 1, write one JSON file.

Run from the repository root, naming the file after the change it measures
(the ROADMAP keeps one `BENCH_<N>.json` per change):

    python3 tools/bench.py BENCH_<N>.json

Every case runs RUNS times in this process (the fresh-process `cli_` cases
CLI_RUNS times) and is reported as the median of each field; nothing is
gated.  Cases:

* `scf` for He and Li at the default N=2000 (`end_to_end`), and for Ne, Na,
  Ar, K and Ca (`ungated`; with He and Li their channels hold one to four
  wanted levels) and C, O, F, Ti and Fe (`ungated`; an open 2p or 3d shell
  with a partly filled spin subshell, at the energy of its Hund term), each
  with its energy, iterations, factorizations and shift-invert
  solves from `state.trace` (in total, and in the first and the last
  iteration) and the trace's per-phase wall times summed over iterations
  (field, operator build, eigensolve, energy);
* `scf` for Ar, K and Ca at N=2000 with tol_orbital=1e-10 (`ungated`, the
  `_tight` cases): the tight run that published numbers are judged against;
* `pseudo` for Li 2s: the solve plus `pk_solve`, as `polar-scf pseudo` runs it;
* the N=8000 He solve behind `tests/fixtures/he_reference.json`, with its
  energy change against that fixture (the fixture is not written);
* the wall time of the Tier-1 suite, in a child process;
* `anticommutator_table` at M=8 (as `verify fock --modes 8` runs it) and
  at M=16 (the mode cap) as the layer outside the mean-field solve;
* the layers of the read side of a converged state, on the Li state of
  perfbench's `analysis` workload (N=500): `slater_potential` of the
  density, `FockOperator.apply` and `shifted_solver` (one build below the
  1s level plus one solve) of the s channel, `_total_energy`, and the four
  `analysis` requests (`pk_solve` of 2s, `trace_energy`, a `fock_apply`
  sweep over 1s, 2s and a hydrogenic 2p, `exchange_apply` on 2s), and the
  per-channel QR (`_orthonormal_columns`) of Li's s-channel panel, its 1s
  and 2s in z, at the default N=2000; each run times LAYER_CALLS calls after
  one untimed call and reports seconds per call;
* the `cli` workload's `verify`, `qp` and `spectrum` commands, an `scf` He
  solve at the default mesh, a bare `import polarscf.shell` and `python -c
  pass` (`cli_bare`, the interpreter floor the other cases are read
  against), each in CLI_RUNS fresh processes (`ungated`, the `cli_` cases):
  the median and quartiles of the child's CPU and wall seconds, and which
  of `numpy`, `scipy`, `dataclasses`, `inspect`, `json`, `argparse` and the
  `polarscf` modules it loaded.

A layer figure of one `BENCH_<N>.json` file set beside another's says
nothing about the code: the host's load moves it too.  Only alternating
processes order two files' layer figures.

The metadata gives `nproc`, the BLAS builds of NumPy and SciPy, the BLAS
thread setting (one thread unless the environment sets another), whether
`PYTHONDONTWRITEBYTECODE` is set (then every fresh process compiles the
modules it imports, which the `cli_` cases pay), the git SHA with a flag
for uncommitted changes, and the line count of `src/polarscf`, in total and
per module (largest first).  SciPy is imported before the first timed
solve, so every in-process run is warm.
"""

import argparse
import functools
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy
import scipy.linalg  # the solves load these lazily; import them untimed
import scipy.sparse.linalg

from polarscf.fockspace import anticommutator_table
from polarscf.hfcore import (
    DEFAULT_TOL_ORBITAL,
    SHIFT_MARGIN,
    AtomConfig,
    GridParams,
    SCFParams,
    _orthonormal_columns,
    _total_energy,
    build_density,
    exchange_apply,
    fock_apply,
    scf_solve,
    slater_potential,
    trace_energy,
)
from polarscf.pseudopot import pk_solve
from polarscf.radial import hydrogenic_orbital, u_to_z

RUNS = 3
# Fresh processes per `cli_` case: cases a few ms apart need more than RUNS.
CLI_RUNS = 11
# Calls per timed run of a read-side layer case, each well under a millisecond.
LAYER_CALLS = 200
ANALYSIS_POINTS = 500  # perfbench's `analysis` mesh
LAYER_CASES = (
    "slater_potential",
    "fock_operator_apply",
    "shifted_solver",
    "total_energy",
    "analysis_pk_solve",
    "analysis_trace_energy",
    "analysis_fock_apply",
    "analysis_exchange_apply",
)
TIGHT_TOL_ORBITAL = 1e-10
PHASES = ("field_s", "operator_s", "eigensolve_s", "energy_s")
ATOMS = {
    "he": (2.0, ((1, 0, 2),)),
    "li": (3.0, ((1, 0, 2), (2, 0, 1))),
    "c": (6.0, ((1, 0, 2), (2, 0, 2), (2, 1, 2))),
    "o": (8.0, ((1, 0, 2), (2, 0, 2), (2, 1, 4))),
    "f": (9.0, ((1, 0, 2), (2, 0, 2), (2, 1, 5))),
    "ne": (10.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6))),
    "na": (11.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 1))),
    "ar": (18.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 2), (3, 1, 6))),
    "k": (19.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 2), (3, 1, 6), (4, 0, 1))),
    "ca": (20.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 2), (3, 1, 6), (4, 0, 2))),
    "ti": (22.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 2), (3, 1, 6), (3, 2, 2), (4, 0, 2))),
    "fe": (26.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 2), (3, 1, 6), (3, 2, 6), (4, 0, 2))),
}
# Fresh-process commands: the bare interpreter (None), perfbench's `cli`
# workload (its random qp levels fixed), a bare import, and an `scf` He
# solve, whose start-up (NumPy and SciPy imports) outweighs the solve.
CLI_COMMANDS = {
    "bare": None,
    "import": [],
    "verify": ["verify", "fock", "--modes", "8"],
    "qp": ["qp", "qp_levels=-0.5,0.25,0.75", "sigma_kind=constant_shift", "sigma_shift=-0.25"],
    "spectrum": ["spectrum", "n_max=50", "l_max=3", "gamma=0.1"],
    "scf_he": ["scf", "z=2", "shells=1s:2"],
}
CLI_PROBE = """
import sys
from polarscf.shell import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
roots = ("numpy", "scipy", "dataclasses", "inspect", "json", "argparse")
loaded = (m for m in sys.modules if m in roots or m.startswith("polarscf."))
print(code, *sorted(loaded))
"""


def _timed(fn):
    wall, cpu = time.perf_counter(), time.process_time()
    out = fn()
    return out, time.perf_counter() - wall, time.process_time() - cpu


def _median(records):
    return {key: statistics.median(r[key] for r in records) for key in records[0]}


def _config(atom, n_points, tol_orbital=DEFAULT_TOL_ORBITAL):
    z, shells = ATOMS[atom]
    grid, scf = GridParams(n_points=n_points), SCFParams(tol_orbital=tol_orbital)
    return AtomConfig(z=z, shells=shells, grid=grid, scf=scf)


def _scf_record(state, wall, cpu):
    rec = {"wall_s": wall, "cpu_s": cpu, "iterations": state.iterations}
    for key in ("factorizations", "shift_invert_solves", *PHASES):
        rec[key] = sum(row[key] for row in state.trace)
    rec["first_iteration_solves"] = state.trace[0]["shift_invert_solves"]
    rec["last_iteration_solves"] = state.trace[-1]["shift_invert_solves"]
    return rec


def scf_case(atom, n_points=2000, tol_orbital=DEFAULT_TOL_ORBITAL):
    cfg = _config(atom, n_points, tol_orbital)
    records = []
    for _ in range(RUNS):
        state, wall, cpu = _timed(lambda: scf_solve(cfg))
        records.append(_scf_record(state, wall, cpu))
    return {
        "n_points": n_points,
        "tol_orbital": tol_orbital,
        **_median(records),
        "total_energy_hartree": state.total_energy,
        "eigenvalues_hartree": list(state.eigenvalues),
    }


def pseudo_case():
    cfg = _config("li", 2000)
    records = []
    for _ in range(RUNS):
        state, wall, cpu = _timed(lambda: scf_solve(cfg))
        pseudo, pk_wall, pk_cpu = _timed(lambda: pk_solve(state, (2, 0)))
        records.append({"wall_s": wall + pk_wall, "cpu_s": cpu + pk_cpu, "pk_solve_s": pk_wall})
    return {
        "valence": "2s",
        **_median(records),
        "eigenvalue_pk": pseudo.eigenvalue,
        "eigenvalue_allelectron": pseudo.eigenvalue_allelectron,
        "core_coefficients": list(pseudo.core_coefficients),
    }


def fixture_case():
    fixture = json.loads((ROOT / "tests" / "fixtures" / "he_reference.json").read_text())
    rec = scf_case("he", fixture["n_points"])
    rec["fixture_delta_hartree"] = rec["total_energy_hartree"] - fixture["total_energy_hartree"]
    return rec


def tier1_case():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    records = []
    for _ in range(RUNS):
        done, wall, _ = _timed(
            lambda: subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        )
        tail = done.stdout.strip().splitlines()[-1]
        counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|errors?)", tail)}
        passed = counts.pop("passed", 0)
        records.append({"wall_s": wall, "passed": passed, "failed": sum(counts.values())})
    return _median(records)


def anticommutator_case(modes):
    records = [{"wall_s": _timed(lambda: anticommutator_table(modes))[1]} for _ in range(RUNS)]
    return {"modes": modes, **_median(records)}


@functools.cache
def _analysis_state():
    """perfbench's `analysis` state: Li solved at N=500, with its hydrogenic 2p target."""
    state = scf_solve(_config("li", ANALYSIS_POINTS))
    return state, list(state.orbitals) + [hydrogenic_orbital(3.0, 2, 1, state.grid)]


def _layer_calls(state, targets):
    """Each of LAYER_CASES as a call on the converged Li state."""
    g, (_, valence) = state.grid, state.orbitals
    op, z = state.channel_operator(0), u_to_z(valence.u, g)
    rho = build_density(state.orbitals, g)
    sigma = state.eigenvalues[0] - SHIFT_MARGIN
    return {
        "slater_potential": lambda: slater_potential(rho, 0, g),
        "fock_operator_apply": lambda: op.apply(z),
        "shifted_solver": lambda: op.shifted_solver(sigma)(z),
        "total_energy": lambda: _total_energy(state.config.z, state.orbitals, g),
        "analysis_pk_solve": lambda: pk_solve(state, (2, 0)),
        "analysis_trace_energy": lambda: trace_energy(state),
        "analysis_fock_apply": lambda: [fock_apply(state, t) for t in targets],
        "analysis_exchange_apply": lambda: exchange_apply(state.orbitals, valence, g),
    }


def _per_call(call):
    """Median seconds per call over RUNS runs of LAYER_CALLS calls."""
    call()  # builds what later calls reuse: the channel operators, the mesh arrays

    def loop():
        for _ in range(LAYER_CALLS):
            call()

    records = []
    for _ in range(RUNS):
        _, wall, cpu = _timed(loop)
        records.append({"wall_s": wall / LAYER_CALLS, "cpu_s": cpu / LAYER_CALLS})
    return {"calls_per_run": LAYER_CALLS, **_median(records)}


def layer_case(name):
    return {"n_points": ANALYSIS_POINTS, **_per_call(_layer_calls(*_analysis_state())[name])}


def qr_case():
    """`_orthonormal_columns` of Li's s-channel panel (1s, 2s in z) at the default N=2000."""
    state = scf_solve(_config("li", 2000))
    panel = np.column_stack([u_to_z(o.u, state.grid) for o in state.orbitals])
    return {"n_points": state.grid.N, **_per_call(lambda: _orthonormal_columns(panel))}


def _children_cpu():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def cli_case(kind):
    argv = CLI_COMMANDS[kind]
    if argv is None:
        script = ["pass"]
    else:
        script = [CLI_PROBE, *argv, "--out", os.devnull] if argv else [CLI_PROBE]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    records = []
    for _ in range(CLI_RUNS):
        cpu = _children_cpu()
        done, wall, _ = _timed(lambda: subprocess.run(
            [sys.executable, "-c", *script], env=env, capture_output=True,
            text=True, check=True,
        ))
        records.append({"wall_s": wall, "cpu_s": _children_cpu() - cpu})
    quartiles = {
        f"{key}_quartiles": statistics.quantiles([r[key] for r in records], n=4)[::2]
        for key in records[0]
    }
    code, *modules = done.stdout.split() or ["0"]  # `pass` prints nothing, exits 0
    return {"argv": argv, "exit_code": int(code), **_median(records), **quartiles,
            "modules": modules}


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def _blas(module):
    info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {k: info.get(k) for k in ("name", "version", "openblas configuration")}


def metadata():
    sources = sorted((ROOT / "src" / "polarscf").glob("*.py"))
    lines = {p.stem: len(p.read_text(encoding="utf-8").splitlines()) for p in sources}
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "src_lines": sum(lines.values()),
        "src_lines_by_module": dict(sorted(lines.items(), key=lambda kv: (-kv[1], kv[0]))),
        "runs_per_case": RUNS,
        "runs_per_cli_case": CLI_RUNS,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write, e.g. BENCH_<N>.json")
    out = Path(parser.parse_args().out)
    doc = {"meta": metadata(), "end_to_end": {}, "ungated": {}, "layers": {}}
    cases = [
        ("end_to_end", "scf_he", lambda: scf_case("he")),
        ("end_to_end", "scf_li", lambda: scf_case("li")),
        ("end_to_end", "pseudo_li_2s", pseudo_case),
        ("end_to_end", "he_fixture_n8000", fixture_case),
        ("end_to_end", "tier1", tier1_case),
        ("ungated", "scf_ne", lambda: scf_case("ne")),
        ("ungated", "scf_na", lambda: scf_case("na")),
        ("ungated", "scf_ar", lambda: scf_case("ar")),
        ("ungated", "scf_k", lambda: scf_case("k")),
        ("ungated", "scf_ca", lambda: scf_case("ca")),
        *(("ungated", f"scf_{atom}", functools.partial(scf_case, atom))
          for atom in ("c", "o", "f", "ti", "fe")),
        ("ungated", "scf_ar_tight", lambda: scf_case("ar", tol_orbital=TIGHT_TOL_ORBITAL)),
        ("ungated", "scf_k_tight", lambda: scf_case("k", tol_orbital=TIGHT_TOL_ORBITAL)),
        ("ungated", "scf_ca_tight", lambda: scf_case("ca", tol_orbital=TIGHT_TOL_ORBITAL)),
        ("layers", "anticommutator_table", lambda: anticommutator_case(8)),
        ("layers", "anticommutator_table_m16", lambda: anticommutator_case(16)),
        *(("layers", name, functools.partial(layer_case, name)) for name in LAYER_CASES),
        ("layers", "orthonormal_columns", qr_case),
        *(("ungated", f"cli_{kind}", functools.partial(cli_case, kind)) for kind in CLI_COMMANDS),
    ]
    for group, name, case in cases:
        rec = doc[group][name] = case()
        shown = {k: rec[k] for k in ("wall_s", "cpu_s", "iterations", "shift_invert_solves")
                 if k in rec}
        print(f"{name}: {shown}", flush=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
