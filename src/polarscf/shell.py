"""Command-line front end: config files, canonical output, dispatch.

Configs are flat key=value files (blank lines and # comments allowed).
Every key has a default, so a config only states what it changes; the CLI
can override single keys with trailing key=value arguments, and the
subcommand itself comes either from a `command=` line or the positional
argument.  Rendering a config and parsing it back is an exact round trip,
which is what makes the "resolved config" block embedded in every output
trustworthy: it reruns to the same result.

Outputs are deterministic down to the byte: fixed field order, floats
printed with 17 significant digits (never inf or nan: a result that is not
finite is bad input), no timestamps or environment echoes.
JSON for the solver commands, CSV (with the resolved config in # comments)
for the sweep commands.

`scf` and `pseudo` take `--trace FILE`, a side channel that writes the
solve's per-iteration trace (one JSON object per line, wall times
included) next to the artifact, which stays byte-identical; a solve that
does not converge still writes the trace it carries.

Exit codes: 0 success, 2 non-convergence, 3 bad input (usage, config, domain).

Each command imports only the modules it runs, because a fresh process
pays for every import (most of a `verify`, `qp` or `spectrum` run): the
module itself loads only `errors` and the pure-Python `relspectrum`, so
`spectrum` starts without NumPy, `qp` adds only `quasiparticle` (its sweep
is pure Python), and `verify` adds only `fockspace` (its ladder operators
act on Python ints), so both also start without NumPy.  The three also
start without `dataclasses` and `json`: their records are named tuples
(`._replace` changes a field and keeps the checks), and only the JSON
writers import `json`.  The rest is the interpreter, argparse and compiling
this module (with PYTHONDONTWRITEBYTECODE set, every import compiles).
"""

import argparse
import importlib
import math
import numbers
import re
import sys
from collections import namedtuple

from . import DEFAULT_MAX_ITER, DEFAULT_N_POINTS, DEFAULT_R_MAX, DEFAULT_TOL_ORBITAL
from .errors import ConvergenceError, ParameterError, PolarSCFError
from .relspectrum import (
    FINE_STRUCTURE_ALPHA,
    SpectrumParams,
    boson_energy,
    k_values_for_l,
)

COMMANDS = ("scf", "pseudo", "qp", "spectrum", "verify")

# The most rows a CSV sweep (`qp`, `spectrum`) may write; checked before
# any row is computed.
MAX_CSV_ROWS = 10**6

# Names bound here on first access (PEP 562), each from its module.  The
# commands call them as attributes of this module, so a wrapper set on it
# (a tracer's, a test's spy) is the one that runs.
_DEFERRED = {
    "anticommutator_table": ".fockspace",
    "resolvent_sweep": ".quasiparticle",
}
_shell = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(_DEFERRED[name], __package__)
    globals()[name] = getattr(module, name)
    return globals()[name]


# Every config key in output order, with its default.  Each key's type is
# the type of its default; a None default is a float that may also be "auto".
_DEFAULTS = {
    "command": "",
    # atom and mean field
    "z": 1.0,
    "shells": "1s:1",
    "r_min": None,
    "r_max": DEFAULT_R_MAX,
    "n_points": DEFAULT_N_POINTS,
    "max_iter": DEFAULT_MAX_ITER,
    "tol_orbital": DEFAULT_TOL_ORBITAL,
    # frozen-core pseudo-orbital
    "valence": "",
    # quasiparticle sweep
    "qp_levels": "-1.0,-0.5,0.5",
    "qp_eta": 0.01,
    "qp_e_min": -2.0,
    "qp_e_max": 2.0,
    "qp_e_points": 201,
    "sigma_kind": "zero",
    "sigma_shift": 0.0,
    "sigma_coefficients": "",
    "n_quanta": 1,
    "pair_epsilon0": 0.0,
    "pair_constant": 0.0,
    # boson level series
    "mass": 1.0,
    "gamma": FINE_STRUCTURE_ALPHA,
    "n_max": 5,
    "l_max": 1,
    # algebra check
    "modes": 4,
}


class RunConfig(namedtuple("RunConfig", _DEFAULTS, defaults=_DEFAULTS.values())):
    """One run's settings, a field per config key; `_replace` changes some."""

    __slots__ = ()


def _coerce(key: str, raw: str, where: str):
    default = _DEFAULTS[key]
    if isinstance(default, str):
        return raw
    if default is None and raw == "auto":
        return None
    return _number(key, raw, where, int if isinstance(default, int) else float)


def _number(key: str, raw: str, where: str, kind=float):
    try:
        value = kind(raw)
    except ValueError:
        raise ParameterError(f"{where}: cannot parse {key}={raw!r}") from None
    if not math.isfinite(value):
        raise ParameterError(f"{where}: {key}={raw!r} is not a finite number")
    return value


def _numbers(cfg: RunConfig, key: str) -> list:
    """The comma-separated entries of a list-valued key, each checked like a float key."""
    items = [t for t in getattr(cfg, key).split(",") if t.strip() != ""]
    return [_number(key, t, f"{key} entry {i}") for i, t in enumerate(items)]


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text: str, command: str | None = None, overrides=()) -> RunConfig:
    """Build a RunConfig from file text, positional command, and overrides.

    The positional command wins over a `command=` line; overrides win over
    the file.  Unknown keys and malformed lines are rejected with their
    location, and a run without a command from either source cannot
    proceed.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParameterError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key, raw = key.strip(), raw.strip()
        if key not in _DEFAULTS:
            raise ParameterError(f"line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw, f"line {lineno}")
    for i, item in enumerate(overrides, start=1):
        if "=" not in item:
            raise ParameterError(f"override {i}: expected key=value, got {item!r}")
        key, raw = item.split("=", 1)
        if key not in _DEFAULTS:
            raise ParameterError(f"override {i}: unknown key {key!r}")
        values[key] = _coerce(key, raw, f"override {i}")
    if command:
        values["command"] = command
    if not values.get("command"):
        raise ParameterError("missing command: give one on the CLI or a command= line")
    cfg = RunConfig(**values)
    if cfg.command not in COMMANDS:
        raise ParameterError(f"unknown command {cfg.command!r}; expected one of {COMMANDS}")
    return cfg


def render_config(cfg: RunConfig) -> str:
    """Canonical key=value text; parse_config(render_config(cfg)) == cfg."""
    return "".join(f"{key}={_format_value(value)}\n" for key, value in zip(cfg._fields, cfg))


def parse_shells(spec: str):
    """Occupied-shell notation '1s:2,2s:1' -> ((n, l, occupation), ...)."""
    from .hfcore import L_LETTERS

    out = []
    for token in spec.split(","):
        token = token.strip()
        m = re.fullmatch(r"(\d+)([a-z]):(\d+)", token)
        if not m or m.group(2) not in L_LETTERS:
            raise ParameterError(f"bad shell token {token!r}; expected like '2p:3'")
        out.append((int(m.group(1)), L_LETTERS.index(m.group(2)), int(m.group(3))))
    return tuple(out)


def _parse_level(label: str):
    from .hfcore import L_LETTERS

    m = re.fullmatch(r"(\d+)([a-z])", label.strip())
    if not m or m.group(2) not in L_LETTERS:
        raise ParameterError(f"bad level label {label!r}; expected like '2s'")
    return int(m.group(1)), L_LETTERS.index(m.group(2))


# ---------------------------------------------------------------------------
# canonical serialization


def _fmt(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ParameterError("result is not finite; an input is out of range")
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: insertion order, 17-significant-digit floats."""
    import json

    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {canonical_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, numbers.Integral):  # NumPy registers its scalar types
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _fmt(obj)
    return json.dumps(obj)


def config_block(cfg: RunConfig) -> dict:
    """Resolved config as plain data, in declaration order."""
    return {key: _format_value(value) if value is None else value
            for key, value in zip(cfg._fields, cfg)}


def _config_comments(cfg: RunConfig) -> str:
    return "".join(f"# {line}\n" for line in render_config(cfg).splitlines())


# ---------------------------------------------------------------------------
# commands


def _solve(cfg: RunConfig, trace):
    from .hfcore import AtomConfig, GridParams, SCFParams, scf_solve

    state = scf_solve(AtomConfig(
        z=cfg.z,
        shells=parse_shells(cfg.shells),
        grid=GridParams(r_min=cfg.r_min, r_max=cfg.r_max, n_points=cfg.n_points),
        scf=SCFParams(max_iter=cfg.max_iter, tol_orbital=cfg.tol_orbital),
    ))
    if trace is not None:
        trace.extend(state.trace)
    return state


def _run_scf(cfg: RunConfig, trace) -> str:
    from .hfcore import state_summary

    state = _solve(cfg, trace)
    doc = {"config": config_block(cfg), "result": state_summary(state)}
    return canonical_json(doc) + "\n"


def _run_pseudo(cfg: RunConfig, trace) -> str:
    from .pseudopot import pk_solve, pseudo_summary

    if not cfg.valence:
        raise ParameterError("pseudo needs a valence level, e.g. valence=2s")
    state = _solve(cfg, trace)
    pseudo = pk_solve(state, _parse_level(cfg.valence))
    doc = {"config": config_block(cfg), "result": pseudo_summary(pseudo)}
    return canonical_json(doc) + "\n"


def _linspace(start: float, stop: float, num: int) -> list:
    """`np.linspace(start, stop, num)` to the bit: i·step + start, stop last."""
    div, delta = num - 1, stop - start
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0.0:  # delta/div underflowed: NumPy scales i/div by delta instead
        points = [float(i) / div * delta + start for i in range(num)]
    else:
        points = [float(i) * step + start for i in range(num)]
    points[-1] = stop
    return points


def _run_qp(cfg: RunConfig) -> str:
    from .quasiparticle import SelfEnergyModel, pair_quantities

    levels = _numbers(cfg, "qp_levels")
    if not levels:
        raise ParameterError("qp_levels is empty")
    if not 1 <= cfg.qp_e_points <= MAX_CSV_ROWS:
        raise ParameterError(
            f"qp_e_points must lie in 1..{MAX_CSV_ROWS}, got {cfg.qp_e_points}"
        )
    if not math.isfinite(cfg.qp_e_max - cfg.qp_e_min):
        raise ParameterError(
            f"qp_e_max - qp_e_min overflows for ({cfg.qp_e_min!r}, {cfg.qp_e_max!r})"
        )
    model = SelfEnergyModel(
        kind=cfg.sigma_kind,
        shift=cfg.sigma_shift,
        coefficients=tuple(_numbers(cfg, "sigma_coefficients")),
    )
    f0 = model.eigenvalue_at(0.0)
    energies = _linspace(cfg.qp_e_min, cfg.qp_e_max, cfg.qp_e_points)
    trace_imag, poles = _shell.resolvent_sweep(levels, energies, eta=cfg.qp_eta, shift=f0)
    # the self-energy branch is f(k) = −(ΔM(0) + ΔM(k)), so ΔM(0) = −f(0)
    pq = pair_quantities(-f0, cfg.pair_epsilon0, cfg.n_quanta, cfg.pair_constant)

    lines = [_config_comments(cfg)]
    lines.append(f"# delta_m0={_fmt(pq.delta_m0)}\n")
    lines.append(f"# eps_plus={_fmt(pq.eps_plus)}\n")
    lines.append(f"# eps_minus={_fmt(pq.eps_minus)}\n")
    lines.append(f"# gap={_fmt(pq.gap)}\n")
    lines.append(f"# regime={pq.regime}\n")
    lines.append(f"# schrodinger_limit={str(pq.schrodinger_limit).lower()}\n")
    lines.append("E,trace_imag_G,pole_estimates\n")
    pole_set = set(poles)
    for E, t in zip(energies, trace_imag):
        pole_field = _fmt(E) if E in pole_set else ""
        lines.append(f"{_fmt(E)},{_fmt(t)},{pole_field}\n")
    return "".join(lines)


def _run_spectrum(cfg: RunConfig) -> str:
    if cfg.n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {cfg.n_max}")
    if cfg.l_max < 0:
        raise ParameterError(f"l_max must be >= 0, got {cfg.l_max}")
    # n <= m gives 2n − 1 labels, each further n gives 2·l_max + 1
    m = min(cfg.n_max, cfg.l_max + 1)
    n_rows = m * m + (cfg.n_max - m) * (2 * cfg.l_max + 1)
    if n_rows > MAX_CSV_ROWS:
        raise ParameterError(
            f"n_max={cfg.n_max}, l_max={cfg.l_max} give {n_rows} rows; "
            f"a sweep writes at most {MAX_CSV_ROWS}"
        )
    # n = 1 always gives the row l = 0, whose k = 0 label is dropped
    note = "# note: k=0 label filtered for l=0 (non-physical)\n"
    lines = [_config_comments(cfg), note, "n,k,gamma,term2,term4,term6,total\n"]
    for n in range(1, cfg.n_max + 1):
        for l in range(0, min(cfg.l_max, n - 1) + 1):
            for k in k_values_for_l(l):
                b = boson_energy(SpectrumParams(cfg.mass, cfg.gamma, n, k))
                lines.append(
                    f"{n},{k},{_fmt(cfg.gamma)},{_fmt(b.term2)},"
                    f"{_fmt(b.term4)},{_fmt(b.term6)},{_fmt(b.total)}\n"
                )
    return "".join(lines)


def _run_verify(cfg: RunConfig, target: str) -> str:
    if target != "fock":
        raise ParameterError(f"unknown verify target {target!r}; only 'fock' exists")
    tables = _shell.anticommutator_table(cfg.modes)
    dev = tables.max_deviation()
    if dev != 0.0:
        raise PolarSCFError(f"anticommutator deviation {dev!r} on {cfg.modes} modes")
    return f"all anticommutators exact (modes={cfg.modes})\n"


def run_command(cfg: RunConfig, target: str = "fock", trace=None) -> str:
    """The command's output text; `trace`, a list, receives an SCF's trace rows."""
    if cfg.command == "scf":
        return _run_scf(cfg, trace)
    if cfg.command == "pseudo":
        return _run_pseudo(cfg, trace)
    if cfg.command == "qp":
        return _run_qp(cfg)
    if cfg.command == "spectrum":
        return _run_spectrum(cfg)
    return _run_verify(cfg, target)


# ---------------------------------------------------------------------------
# entry point


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are bad input (exit 3), not exit 2
        raise ParameterError(f"{message}\n{self.format_usage().rstrip()}")


def _write(path: str, text: str) -> bool:
    """Write text to path; on failure say why on stderr and return False."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"polar-scf: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def _json_lines(rows) -> str:
    import json

    return "".join(json.dumps(row) + "\n" for row in rows)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="polar-scf",
        description="Atomic mean-field solver with frozen-core, quasiparticle "
        "and boson-level tools.",
    )
    parser.add_argument("command", help=f"one of {', '.join(COMMANDS)}")
    parser.add_argument(
        "args", nargs="*",
        help="key=value overrides; for verify, the target name (fock)",
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", help="write output here instead of stdout")
    parser.add_argument(
        "--trace", help="scf, pseudo: write the SCF iteration trace here as JSON lines"
    )
    parser.add_argument("--modes", type=int, help="verify: number of fermion modes")
    try:
        # intermixed: key=value overrides may come before or after --config/--out
        ns = parser.parse_intermixed_args(argv)
        target = "fock"
        overrides = []
        for token in ns.args:
            if "=" in token:
                overrides.append(token)
            elif ns.command == "verify":
                target = token
            else:
                raise ParameterError(f"unexpected argument {token!r}")
        text = ""
        if ns.config:
            try:
                with open(ns.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ParameterError(f"cannot read config file: {exc}") from None
        cfg = parse_config(text, command=ns.command, overrides=overrides)
        if ns.modes is not None:
            if cfg.command != "verify":
                raise ParameterError(f"--modes applies to verify, not {cfg.command}")
            cfg = cfg._replace(modes=ns.modes)
        if ns.trace is not None and cfg.command not in ("scf", "pseudo"):
            raise ParameterError(f"--trace applies to scf and pseudo, not {cfg.command}")
        trace = []
        payload = run_command(cfg, target, trace)
    except ConvergenceError as exc:
        print(f"polar-scf: not converged: {exc}", file=sys.stderr)
        if ns.trace is not None and not _write(ns.trace, _json_lines(exc.trace)):
            return 3
        return 2
    except PolarSCFError as exc:
        print(f"polar-scf: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"polar-scf: out of memory: {exc}", file=sys.stderr)
        return 3

    if ns.trace is not None and not _write(ns.trace, _json_lines(trace)):
        return 3
    if ns.out:
        if not _write(ns.out, payload):
            return 3
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
