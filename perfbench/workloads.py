"""The three benchmark workloads and the correctness oracle of each request.

Each workload is a closed loop driven by one client: a *pass* is a list of
requests, and each request is sent only after the previous one has returned
and been checked.  The seed chooses only things that leave the amount of
work unchanged (request order, and the three ``qp`` levels of ``cli``).

Why each workload exists:

* ``atoms`` -- the headline He and Li solves, where the shift-invert
  eigensolver and the dense exchange assembly of ``hfcore`` spend the time.
* ``analysis`` -- the read side of a converged Li state (pseudo-orbital,
  trace, Fock and exchange actions), which applies the Fock operator
  instead of solving it, at a second problem size.
* ``cli`` -- fresh ``polar-scf`` processes for ``verify``, ``qp`` and
  ``spectrum``, which run no ``hfcore`` code, so a solver change must
  leave them unchanged.
"""

from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """A request returned, but its result is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]


# Hartree-Fock limits: Froese Fischer, The Hartree-Fock Method for Atoms
# (1977); Bunge et al., At. Data Nucl. Data Tables 53, 113 (1993).
HF_LIMIT = {"he": -2.8616799956, "li": -7.4327269}
ENERGY_TOL = 1e-4
TRACE_TOL = 1e-9
PSEUDO_TOL = 1e-6
RESIDUAL_TOL = 1e-6
EXCHANGE_REL_TOL = 1e-10

# Mesh sizes.  N=1000 is the smallest round mesh on which both headline
# solves land within ENERGY_TOL of the HF limit (He 1.3e-5, Li 6.5e-5), and
# one He+Li pass fits a run; the default N=2000 pass takes ~160 s.
ATOMS_POINTS = 1000
ANALYSIS_POINTS = 500

# A child that runs longer is killed and its request counted as failed.
CHILD_TIMEOUT_S = 60


def point(owner, attr: str, name: str, **options):
    """A name the program calls, to be routed through Tracer.install."""
    return owner, attr, name, options


def _eigsh_pairs(args, kwargs) -> int:
    return kwargs.get("k", args[1] if len(args) > 1 else 6)


class Atoms:
    name = "atoms"
    # (label, in_process, traced); traced passes are compared with overhead_base
    trace_schedule = (("plain", False, False), ("traced", False, True))
    overhead_base = "plain"
    serves_by_process = False
    # what a fresh process of this workload imports before its first request
    import_probe = "import polarscf.hfcore"

    def __init__(self, rng, env=None, workdir=None):
        from polarscf import hfcore

        self.hf = hfcore
        self.configs = {}
        self.observed: dict[str, float] = {}

    def setup(self) -> None:
        hf = self.hf
        grid = hf.GridParams(n_points=ATOMS_POINTS)
        self.configs = {
            "he": hf.AtomConfig(z=2.0, shells=((1, 0, 2),), grid=grid),
            "li": hf.AtomConfig(z=3.0, shells=((1, 0, 2), (2, 0, 1)), grid=grid),
        }

    def requests(self, rng, in_process: bool = False) -> list[Request]:
        atoms = ["he", "li"]
        rng.shuffle(atoms)
        return [self._solve(atom) for atom in atoms]

    def _solve(self, atom: str) -> Request:
        cfg = self.configs[atom]

        def check(state):
            require(state.converged, f"{atom} did not converge")
            err = abs(state.total_energy - HF_LIMIT[atom])
            require(err <= ENERGY_TOL, f"{atom}: |E - HF limit| = {err:.3e} > {ENERGY_TOL}")
            self.observed[f"iterations_{atom}"] = state.iterations
            self.observed[f"energy_err_{atom}"] = err
            # eigenpairs a solve needs: one per occupied shell per iteration
            self.observed[f"useful_pairs_{atom}"] = state.iterations * len(cfg.shells)

        return Request(f"scf_{atom}", lambda: self.hf.scf_solve(cfg), check)

    def trace_points(self):
        import scipy.sparse.linalg as spla

        from polarscf import radial

        arpack = sys.modules["scipy.sparse.linalg._eigen.arpack.arpack"]
        hf = self.hf
        return [
            point(hf, "scf_solve", "hfcore.scf_solve"),
            point(hf, "slater_potential", "hfcore.slater_potential"),
            point(hf, "integrate", "radial.integrate"),
            point(radial, "integrate", "radial.integrate"),
            point(hf, "kinetic_tridiagonal", "radial.kinetic_tridiagonal"),
            point(hf, "hydrogenic_orbital", "radial.hydrogenic_orbital"),
            point(spla, "eigsh", "scipy.eigsh", tally=_eigsh_pairs),
            # the factor and solve calls ARPACK shift-invert makes
            point(arpack, "lu_factor", "scipy.factorize"),
            point(arpack, "splu", "scipy.factorize"),
            point(arpack.LuInv, "_matvec", "scipy.shift_invert_solve"),
            point(arpack.SpLuInv, "_matvec", "scipy.shift_invert_solve"),
        ]


class Analysis:
    name = "analysis"
    trace_schedule = (("plain", False, False), ("traced", False, True))
    overhead_base = "plain"
    serves_by_process = False
    import_probe = "import polarscf.hfcore, polarscf.pseudopot"

    def __init__(self, rng, env=None, workdir=None):
        from polarscf import hfcore, pseudopot, radial

        self.hf, self.pp, self.radial = hfcore, pseudopot, radial
        # bound before any tracing patch, so oracle work is never traced
        self._integrate = radial.integrate
        self._slater = hfcore.slater_potential
        self.state = None
        self.observed: dict[str, float] = {}

    def setup(self) -> None:
        hf = self.hf
        cfg = hf.AtomConfig(
            z=3.0,
            shells=((1, 0, 2), (2, 0, 1)),
            grid=hf.GridParams(n_points=ANALYSIS_POINTS),
        )
        state = hf.scf_solve(cfg)
        g = state.grid
        self.state = state
        self.observed["iterations_li"] = state.iterations
        self.targets = list(state.orbitals) + [self.radial.hydrogenic_orbital(3.0, 2, 1, g)]
        self.reference_2p = hf.fock_apply(state, self.targets[2]).tobytes()
        u1, u2 = state.orbitals[0].u, state.orbitals[1].u
        # <2s|K|2s> = F0(2s,2s) [odd-shell pin] + G0(1s,2s) [closed 1s, q/2 = 1]
        self.exchange_expect = self._coulomb(u2 * u2) + self._coulomb(u1 * u2)

    def _coulomb(self, f) -> float:
        return self._integrate(f * self._slater(f, 0, self.state.grid), self.state.grid)

    def requests(self, rng, in_process: bool = False) -> list[Request]:
        reqs = [self._pk(), self._trace(), self._fock(), self._exchange()]
        rng.shuffle(reqs)
        return reqs

    def _pk(self) -> Request:
        def check(p):
            delta = abs(p.eigenvalue - p.eigenvalue_allelectron)
            require(delta <= PSEUDO_TOL, f"pk_solve: |eps_pk - eps_2s| = {delta:.3e}")
            require(p.node_count == 0, f"pk_solve: {p.node_count} nodes")

        return Request("pk_solve", lambda: self.pp.pk_solve(self.state, (2, 0)), check)

    def _trace(self) -> Request:
        def check(pair):
            gap = abs(pair[0] - pair[1])
            require(gap <= TRACE_TOL, f"trace_energy: incoherent by {gap:.3e}")

        return Request("trace_energy", lambda: self.hf.trace_energy(self.state), check)

    def _fock(self) -> Request:
        state, g = self.state, self.state.grid

        def sweep():
            return [self.hf.fock_apply(state, t) for t in self.targets]

        def check(outs):
            for o, eps, out in zip(state.orbitals, state.eigenvalues, outs):
                r = out - eps * o.u
                resid = math.sqrt(float(np.sum(g.weights * r * r)))
                require(resid <= RESIDUAL_TOL, f"fock_apply {o.n}s: residual {resid:.3e}")
            require(outs[2].tobytes() == self.reference_2p, "fock_apply 2p: result changed")

        return Request("fock_apply", sweep, check)

    def _exchange(self) -> Request:
        state, g = self.state, self.state.grid
        target = state.orbitals[1]

        def check(k_u):
            got = self._integrate(target.u * k_u, g)
            err = abs(got - self.exchange_expect)
            require(
                err <= EXCHANGE_REL_TOL * abs(self.exchange_expect),
                f"exchange_apply: <2s|K|2s> off by {err:.3e}",
            )

        return Request(
            "exchange_apply", lambda: self.hf.exchange_apply(state.orbitals, target, g), check
        )

    def trace_points(self):
        hf, pp = self.hf, self.pp
        return [
            point(pp, "pk_solve", "pseudopot.pk_solve"),
            point(hf, "trace_energy", "hfcore.trace_energy"),
            point(hf, "fock_apply", "hfcore.fock_apply"),
            point(hf, "exchange_apply", "hfcore.exchange_apply"),
            point(hf.SCFState, "channel_matrix", "hfcore.channel_matrix"),
            point(hf, "slater_potential", "hfcore.slater_potential"),
            point(hf, "integrate", "radial.integrate"),
            point(self.radial, "integrate", "radial.integrate"),
            point(hf, "kinetic_tridiagonal", "radial.kinetic_tridiagonal"),
            point(pp, "kinetic_tridiagonal", "radial.kinetic_tridiagonal"),
        ]


def spectrum_rows(n_max: int, l_max: int) -> int:
    """(n, k) labels of the level series: k in {-l, l+1}, with k=0 dropped."""
    return sum(1 + 2 * min(l_max, n - 1) for n in range(1, n_max + 1))


class Cli:
    name = "cli"
    # Traced passes call shell.main in process, so their overhead is taken
    # against in-process passes; "plain" passes still give process latency.
    trace_schedule = (
        ("plain", False, False),
        ("inproc", True, False),
        ("traced", True, True),
    )
    overhead_base = "inproc"
    serves_by_process = True
    import_probe = "import polarscf.shell"

    VERIFY = ("verify", "fock", "--modes", "8")
    SPECTRUM = ("spectrum", "n_max=50", "l_max=3", "gamma=0.1")
    QP_FIXED = ("sigma_kind=constant_shift", "sigma_shift=-0.25")
    QP_POINTS = 201

    def __init__(self, rng, env=None, workdir=None):
        levels = ",".join(format(rng.uniform(-1.0, 1.0), ".6f") for _ in range(3))
        self.commands = {
            "verify": self.VERIFY,
            "qp": ("qp", f"qp_levels={levels}") + self.QP_FIXED,
            "spectrum": self.SPECTRUM,
        }
        self.env = env
        self.workdir = Path(workdir) if workdir is not None else Path.cwd()
        self.reference: dict[str, bytes] = {}
        self.observed: dict[str, float] = {}
        self.shell = None

    def setup(self) -> None:
        pass

    def requests(self, rng, in_process: bool = False) -> list[Request]:
        kinds = list(self.commands)
        rng.shuffle(kinds)
        return [self._command(kind, in_process) for kind in kinds]

    def _command(self, kind: str, in_process: bool) -> Request:
        out = self.workdir / f"{kind}.out"
        argv = list(self.commands[kind]) + ["--out", str(out)]

        def call():
            out.unlink(missing_ok=True)
            if in_process:
                code, err = self.shell.main(argv), ""
            else:
                proc = subprocess.run(
                    [sys.executable, "-c", "import sys; from polarscf.shell import main; "
                     "sys.exit(main())", *argv],
                    env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    text=True, timeout=CHILD_TIMEOUT_S,
                )
                code, err = proc.returncode, proc.stderr
            return code, out.read_bytes() if out.exists() else b"", err

        def check(result):
            code, artifact, err = result
            require(code == 0, f"{kind}: exit code {code}: {err.strip()[-500:]}")
            ref = self.reference.get(kind)
            if ref is not None:
                require(artifact == ref, f"{kind}: artifact differs from the first invocation")
                return
            self._check_first(kind, artifact)
            self.reference[kind] = artifact
            self.observed[f"artifact_bytes_{kind}"] = len(artifact)

        return Request(kind, call, check)

    def _check_first(self, kind: str, artifact: bytes) -> None:
        text = artifact.decode("utf-8")
        if kind == "verify":
            require(text == "all anticommutators exact (modes=8)\n", f"verify said {text!r}")
            return
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        header, body = rows[0], rows[1:]
        if kind == "qp":
            require(header == "E,trace_imag_G,pole_estimates", f"qp header {header!r}")
            require(len(body) == self.QP_POINTS, f"qp: {len(body)} rows")
            values = [float(v) for row in body for v in row.split(",")[:2]]
        else:
            require(header == "n,k,gamma,term2,term4,term6,total", f"spectrum header {header!r}")
            require(len(body) == spectrum_rows(50, 3), f"spectrum: {len(body)} rows")
            values = [float(v) for row in body for v in row.split(",")]
        require(all(math.isfinite(v) for v in values), f"{kind}: non-finite value")

    def trace_points(self):
        from polarscf import fockspace, quasiparticle, shell

        self.shell = shell  # in-process passes call shell.main
        return [
            point(shell, "run_command", "shell.run_command"),
            point(shell, "anticommutator_table", "fockspace.anticommutator_table"),
            point(fockspace, "ladder_apply", "fockspace.ladder_apply", count_only=True),
            point(shell, "resolvent_sweep", "quasiparticle.resolvent_sweep"),
            point(quasiparticle, "green0", "quasiparticle.green0"),
            point(shell, "boson_energy", "relspectrum.boson_energy"),
        ]


WORKLOADS = {w.name: w for w in (Atoms, Analysis, Cli)}
