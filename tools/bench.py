#!/usr/bin/env python3
"""Measure the end-to-end cases and solver phases of ROADMAP aim 1, write one JSON file.

Run from the repository root, naming the file after the change it measures
(the ROADMAP keeps one `BENCH_<N>.json` per change):

    python3 tools/bench.py BENCH_<N>.json

Every case runs RUNS times in this process and is reported as the median of
each field; nothing is gated.  Cases:

* `scf` for He and Li at the default N=2000 (`end_to_end`), and for Ne, Na,
  Ar, K and Ca (`ungated`; with He and Li their channels hold one to four
  wanted levels), each with iterations, factorizations and shift-invert
  solves from `state.trace` and the trace's per-phase wall times summed over
  iterations (field, operator build, eigensolve, energy);
* `scf` for Ar, K and Ca at N=2000 with tol_orbital=1e-10 (`ungated`, the
  `_tight` cases): the tight run that published numbers are judged against;
* `pseudo` for Li 2s: the solve plus `pk_solve`, as `polar-scf pseudo` runs it;
* the N=8000 He solve behind `tests/fixtures/he_reference.json`, with its
  energy change against that fixture (the fixture is not written);
* the wall time of the Tier-1 suite, in a child process;
* `anticommutator_table(8)` as the layer outside the mean-field solve;
* the `cli` workload's `verify`, `qp` and `spectrum` commands and a bare
  `import polarscf.shell`, each in a fresh process (`ungated`, the `cli_`
  cases): the CPU seconds of the child and the `numpy`, `scipy` and
  `polarscf` modules it loaded.

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
from polarscf.hfcore import DEFAULT_TOL_ORBITAL, AtomConfig, GridParams, SCFParams, scf_solve
from polarscf.pseudopot import pk_solve

RUNS = 3
TIGHT_TOL_ORBITAL = 1e-10
PHASES = ("field_s", "operator_s", "eigensolve_s", "energy_s")
ATOMS = {
    "he": (2.0, ((1, 0, 2),)),
    "li": (3.0, ((1, 0, 2), (2, 0, 1))),
    "ne": (10.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6))),
    "na": (11.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 1))),
    "ar": (18.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 2), (3, 1, 6))),
    "k": (19.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 2), (3, 1, 6), (4, 0, 1))),
    "ca": (20.0, ((1, 0, 2), (2, 0, 2), (2, 1, 6), (3, 0, 2), (3, 1, 6), (4, 0, 2))),
}
# The commands of perfbench's `cli` workload, with its random qp levels fixed.
CLI_COMMANDS = {
    "import": [],
    "verify": ["verify", "fock", "--modes", "8"],
    "qp": ["qp", "qp_levels=-0.5,0.25,0.75", "sigma_kind=constant_shift", "sigma_shift=-0.25"],
    "spectrum": ["spectrum", "n_max=50", "l_max=3", "gamma=0.1"],
}
CLI_PROBE = """
import sys
from polarscf.shell import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
loaded = (m for m in sys.modules if m in ("numpy", "scipy") or m.startswith("polarscf."))
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


def anticommutator_case(modes=8):
    records = [{"wall_s": _timed(lambda: anticommutator_table(modes))[1]} for _ in range(RUNS)]
    return {"modes": modes, **_median(records)}


def _children_cpu():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def cli_case(kind):
    argv = [*CLI_COMMANDS[kind], "--out", os.devnull] if CLI_COMMANDS[kind] else []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    records = []
    for _ in range(RUNS):
        cpu = _children_cpu()
        done, wall, _ = _timed(lambda: subprocess.run(
            [sys.executable, "-c", CLI_PROBE, *argv], env=env, capture_output=True,
            text=True, check=True,
        ))
        records.append({"wall_s": wall, "cpu_s": _children_cpu() - cpu})
    code, *modules = done.stdout.split()
    return {"argv": CLI_COMMANDS[kind], "exit_code": int(code), **_median(records),
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
        ("ungated", "scf_ar_tight", lambda: scf_case("ar", tol_orbital=TIGHT_TOL_ORBITAL)),
        ("ungated", "scf_k_tight", lambda: scf_case("k", tol_orbital=TIGHT_TOL_ORBITAL)),
        ("ungated", "scf_ca_tight", lambda: scf_case("ca", tol_orbital=TIGHT_TOL_ORBITAL)),
        ("layers", "anticommutator_table", anticommutator_case),
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
