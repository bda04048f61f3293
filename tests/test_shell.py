"""Config round trips, canonical output, dispatch and exit codes."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polarscf
from polarscf import hfcore, shell
from polarscf.errors import ConvergenceError, ParameterError
from polarscf.hfcore import FINAL_TOL_FACTOR
from polarscf.shell import (
    RunConfig,
    canonical_json,
    main,
    parse_config,
    parse_shells,
    _linspace,
    render_config,
    run_command,
)

FAST_SCF = ["z=1.0", "shells=1s:1", "n_points=500", "r_max=40.0"]
NO_SUCH_DIR = Path(__file__).parent / "no-such-dir"
# ARPACK's tolerance in the last iteration of a solve at the default tol_orbital
FINAL_TOL = FINAL_TOL_FACTOR * polarscf.DEFAULT_TOL_ORBITAL


def test_parse_shells_notation():
    assert parse_shells("1s:2,2s:1") == ((1, 0, 2), (2, 0, 1))
    assert parse_shells("2p:6") == ((2, 1, 6),)
    assert parse_shells(" 1s:2 , 2p:3 ") == ((1, 0, 2), (2, 1, 3))


@pytest.mark.parametrize("bad", ["1s", "s:2", "1x:2", "1s:2;2s:1", ""])
def test_parse_shells_rejects(bad):
    with pytest.raises(ParameterError, match="bad shell token"):
        parse_shells(bad)


def test_config_round_trip_defaults():
    cfg = RunConfig(command="scf")
    assert parse_config(render_config(cfg)) == cfg


def test_config_round_trip_loaded():
    cfg = RunConfig(
        command="qp",
        z=2.0,
        r_min=1e-7,
        sigma_kind="diagonal_polynomial",
        sigma_coefficients="-0.3,0,-0.01",
        qp_eta=0.05,
        n_quanta=3,
        gamma=0.05,
        modes=6,
    )
    assert parse_config(render_config(cfg)) == cfg


def test_config_key_order():
    """`render_config` and the `config_block` of every scf/pseudo artifact list the keys so."""
    keys = [
        "command", "z", "shells", "r_min", "r_max", "n_points", "max_iter", "tol_orbital",
        "valence", "qp_levels", "qp_eta", "qp_e_min", "qp_e_max", "qp_e_points",
        "sigma_kind", "sigma_shift", "sigma_coefficients", "n_quanta", "pair_epsilon0",
        "pair_constant", "mass", "gamma", "n_max", "l_max", "modes",
    ]
    rendered = render_config(RunConfig()).splitlines()
    assert [line.split("=", 1)[0] for line in rendered] == keys
    assert list(shell.config_block(RunConfig())) == keys


def test_parse_config_locates_errors():
    with pytest.raises(ParameterError, match="line 2: unknown key 'zz'"):
        parse_config("z=1.0\nzz=2\n", command="scf")
    with pytest.raises(ParameterError, match="line 1: expected key=value, got 'just words'"):
        parse_config("just words\n", command="scf")
    with pytest.raises(ParameterError, match="line 1: cannot parse z='abc'"):
        parse_config("z=abc\n", command="scf")
    # tol_energy is not a key: the SCF stops on its residual alone
    with pytest.raises(ParameterError, match="line 1: unknown key 'tol_energy'"):
        parse_config("tol_energy=1e-8\n", command="scf")
    with pytest.raises(ParameterError, match="override 1: unknown key 'tol_energy'"):
        parse_config("", command="scf", overrides=["tol_energy=1e-8"])


def test_parse_config_command_sources():
    cfg = parse_config("command=spectrum\nn_max=2\n")
    assert cfg.command == "spectrum"
    # the positional command wins over the file
    cfg = parse_config("command=spectrum\n", command="verify")
    assert cfg.command == "verify"
    with pytest.raises(ParameterError, match="missing command"):
        parse_config("z=1.0\n")
    with pytest.raises(ParameterError, match="unknown command 'fly'"):
        parse_config("", command="fly")


def test_overrides_win_over_file():
    cfg = parse_config("z=2.0\nn_max=3\n", command="scf", overrides=["z=3.0"])
    assert cfg.z == 3.0
    assert cfg.n_max == 3
    with pytest.raises(ParameterError, match="override 1: unknown key 'nope'"):
        parse_config("", command="scf", overrides=["nope=1"])


def test_keys_take_the_type_of_their_default():
    cfg = parse_config("n_points=600\nz=3\nr_min=auto\nshells=1s:2\n", command="scf")
    assert type(cfg.n_points) is int and type(cfg.z) is float
    assert cfg.r_min is None and cfg.shells == "1s:2"
    with pytest.raises(ParameterError, match="cannot parse n_points"):
        parse_config("n_points=600.5\n", command="scf")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# a comment\n\nz=4.0\n", command="scf")
    assert cfg.z == 4.0


def test_canonical_json_formatting():
    doc = {"a": 0.3, "b": [1, True, None], "c": "x"}
    out = canonical_json(doc)
    assert out == '{"a": 0.29999999999999999, "b": [1, true, null], "c": "x"}'
    numpy_doc = {"i": np.int64(3), "f": np.float64(0.3), "g": np.float32(0.5)}
    assert canonical_json(numpy_doc) == '{"i": 3, "f": 0.29999999999999999, "g": 0.5}'


def test_scf_payload_structure():
    cfg = parse_config("", command="scf", overrides=FAST_SCF)
    payload = run_command(cfg)
    doc = json.loads(payload)
    assert list(doc.keys()) == ["config", "result"]
    assert doc["config"]["command"] == "scf"
    assert doc["config"]["n_points"] == 500
    assert doc["result"]["converged"] is True
    assert abs(doc["result"]["eigenvalues_hartree"][0] + 0.5) < 1e-3
    # rendering is deterministic within a process as well
    assert run_command(cfg) == payload


def test_pseudo_payload():
    cfg = parse_config("", command="pseudo", overrides=FAST_SCF + ["valence=1s"])
    doc = json.loads(run_command(cfg))
    assert doc["result"]["valence"] == "1s"
    assert doc["result"]["node_count"] == 0
    assert doc["result"]["core_coefficients"] == []
    assert doc["result"]["eigenvalue_pk"] == doc["result"]["eigenvalue_allelectron"]
    with pytest.raises(ParameterError, match="pseudo needs a valence level"):
        run_command(parse_config("", command="pseudo", overrides=FAST_SCF))


def test_qp_csv_shape():
    cfg = parse_config(
        "",
        command="qp",
        overrides=[
            "qp_levels=-0.75,0.75",
            "qp_e_min=-2.0",
            "qp_e_max=2.0",
            "qp_e_points=201",
            "sigma_kind=constant_shift",
            "sigma_shift=-0.25",
        ],
    )
    payload = run_command(cfg)
    lines = payload.splitlines()
    header_idx = lines.index("E,trace_imag_G,pole_estimates")
    assert lines[0].startswith("# command=qp")
    assert len(lines) == header_idx + 1 + 201
    # constant shift -0.25 means delta_m0 = +0.25
    assert "# delta_m0=0.25" in lines
    assert "# regime=indeterminate" in lines
    body = lines[header_idx + 1 :]
    poles = [row.split(",")[2] for row in body if row.split(",")[2]]
    # both shifted levels sit on the sampled grid
    assert np.allclose([float(p) for p in poles], [-1.0, 0.5], atol=1e-9)
    # a polynomial branch f(k) = c0 + c2 k^2 + c4 k^4 gives delta_m0 = -f(0) = -c0,
    # here 0.3 printed to 17 significant digits
    poly = cfg._replace(
        sigma_kind="diagonal_polynomial", sigma_coefficients="-0.3,0,-0.01,0,0.002"
    )
    assert "# delta_m0=0.29999999999999999" in run_command(poly).splitlines()


def test_spectrum_csv_rows():
    cfg = parse_config("", command="spectrum", overrides=["n_max=2", "gamma=0.1"])
    lines = run_command(cfg).splitlines()
    assert "# note: k=0 label filtered for l=0 (non-physical)" in lines
    header_idx = lines.index("n,k,gamma,term2,term4,term6,total")
    rows = lines[header_idx + 1 :]
    # n=1 gives one label, n=2 gives 1 (l=0) + 2 (l=1)
    assert len(rows) == 4
    first = rows[0].split(",")
    assert first[0] == "1" and first[1] == "1"
    assert abs(float(first[6]) - 0.494987625) < 1e-12


def test_verify_exit_and_message(capsys):
    code = main(["verify", "fock", "--modes", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all anticommutators exact" in out
    assert main(["verify", "nonsense"]) == 3


def test_overrides_after_config_flag(tmp_path):
    """key=value tokens are accepted on either side of --config/--out."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("z=1.0\nshells=1s:1\nr_max=40.0\n")
    out = tmp_path / "run.json"
    code = main(["scf", "--config", str(cfg), "n_points=500", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["n_points"] == 500
    assert doc["config"]["r_max"] == 40.0


def test_exit_code_nonconvergence():
    code = main(
        ["scf", "z=2.0", "shells=1s:2", "n_points=500", "r_max=40.0", "max_iter=2"]
    )
    assert code == 2


def test_exit_code_domain_error():
    assert main(["spectrum", "gamma=-0.5"]) == 3
    assert main(["scf", "shells=weird"]) == 3
    assert main(["bogus"]) == 3


def test_memory_error_exits_3(monkeypatch, capsys):
    """An allocation NumPy refuses is bad input: exit 3 with one `polar-scf:` line."""

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(shell, "_run_scf", refuse)
    assert main(["scf", "z=2", "shells=1s:2", "n_points=1000000000000"]) == 3
    err = capsys.readouterr().err
    assert err == "polar-scf: out of memory: Unable to allocate 7.28 TiB for an array\n"


def test_spectrum_row_count_matches_the_sweep():
    """The closed-form row count the size check uses equals the rows written."""
    for n_max, l_max in ((1, 0), (2, 5), (5, 1), (50, 3), (7, 7)):
        cfg = parse_config("", command="spectrum", overrides=[f"n_max={n_max}", f"l_max={l_max}"])
        lines = run_command(cfg).splitlines()
        rows = len(lines) - lines.index("n,k,gamma,term2,term4,term6,total") - 1
        m = min(n_max, l_max + 1)
        assert rows == m * m + (n_max - m) * (2 * l_max + 1)


@pytest.mark.parametrize(
    "start, stop, num",
    [
        (-2.0, 2.0, 201), (2.0, -3.0, 333), (-0.7, 0.3, 2), (-0.0, 3.0, 1),
        (0.5, 0.5, 1), (-0.0, 0.0, 7), (1e-310, 2e-310, 5), (0.0, 5e-324, 4),
        (-5e307, 8e307, 1000), (0.1, 0.3, 999_999),
    ],
)
def test_energy_grid_is_numpy_linspace_to_the_bit(start, stop, num):
    """The qp E column keeps the bytes NumPy's grid gave it."""
    ours = _linspace(start, stop, num)
    ref = np.linspace(start, stop, num)
    assert np.array_equal(np.array(ours).view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize(
    "argv",
    [
        ["scf", *FAST_SCF],
        ["qp", "qp_levels=-0.75,0.75", "sigma_kind=constant_shift", "sigma_shift=-0.25"],
        ["spectrum", "n_max=50", "l_max=3", "gamma=0.1"],
        ["verify", "fock", "--modes", "8"],
    ],
    ids=["scf", "qp", "spectrum", "verify"],
)
def test_out_file_and_fresh_process_determinism(tmp_path, argv):
    """Two separate interpreter runs must agree byte for byte."""
    paths = [tmp_path / "a.out", tmp_path / "b.out"]
    for p in paths:
        r = subprocess.run(
            [sys.executable, "-m", "polarscf.shell", *argv, "--out", str(p)],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0, r.stderr
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_side_channel(tmp_path):
    """--trace writes the SCF trace as JSON lines; the --out artifact is unchanged."""
    plain, traced, trace = tmp_path / "plain.json", tmp_path / "traced.json", tmp_path / "t.jsonl"
    assert main(["scf", *FAST_SCF, "--out", str(plain)]) == 0
    assert main(["scf", *FAST_SCF, "--out", str(traced), "--trace", str(trace)]) == 0
    assert plain.read_bytes() == traced.read_bytes()
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [row["iteration"] for row in rows] == list(range(1, len(rows) + 1))
    assert len(rows) == json.loads(plain.read_text())["result"]["iterations"]
    assert rows[-1]["eigensolve_tol"] == FINAL_TOL
    assert list(rows[0]["shift"]) == ["0"]


def test_trace_side_channel_pseudo_and_nonconvergence(tmp_path, capsys, monkeypatch):
    trace = tmp_path / "t.jsonl"
    assert main(["pseudo", *FAST_SCF, "valence=1s", "--trace", str(trace), "--out",
                 str(tmp_path / "p.json")]) == 0
    assert json.loads(trace.read_text().splitlines()[-1])["eigensolve_tol"] == FINAL_TOL
    argv = ["scf", "z=2.0", "shells=1s:2", "n_points=500", "r_max=40.0", "max_iter=2"]
    assert main([*argv, "--trace", str(trace)]) == 2
    assert len(trace.read_text().splitlines()) == 2
    # no shift certified in iteration 1: exit 2 with an (empty) trace
    def uncertified(*args, **kwargs):
        raise ConvergenceError("no certified shift")

    monkeypatch.setattr(hfcore, "_solve_channel", uncertified)
    capsys.readouterr()
    ne = tmp_path / "ne.jsonl"
    argv = ["scf", "z=10", "shells=1s:2,2s:2,2p:6", "n_points=400"]
    assert main([*argv, "--trace", str(ne)]) == 2
    assert capsys.readouterr().err.startswith("polar-scf: not converged")
    assert ne.read_text() == ""


# The snapshot of sys.modules is taken before the probe imports json itself.
MODULE_PROBE = """
import contextlib, io, sys
from polarscf.shell import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {runs!r}]
roots = ("numpy", "scipy", "scipy.linalg", "dataclasses", "inspect", "json")
loaded = [m for m in sys.modules if m in roots or m.startswith("polarscf.")]
import json
print(json.dumps([codes, sorted(loaded)]))
"""


def _modules_after(*runs):
    """Exit codes of `runs` in one fresh process, and the modules it then holds."""
    r = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE.format(runs=list(runs))],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    codes, loaded = json.loads(r.stdout)
    return codes, set(loaded)


def test_each_command_loads_only_its_modules():
    """spectrum, qp and verify load no NumPy, dataclasses or json; SciPy only with a solve."""
    base = {"polarscf.errors", "polarscf.relspectrum", "polarscf.shell"}
    assert _modules_after() == ([], base)
    assert _modules_after(["spectrum", "n_max=4", "gamma=0.1"]) == ([0], base)
    verify = {"polarscf.fockspace"}
    assert _modules_after(["verify", "fock", "--modes", "8"]) == ([0], base | verify)
    qp = {"polarscf.quasiparticle"}
    assert _modules_after(["qp", "qp_levels=-0.75,0.75", "qp_e_points=101"]) == ([0], base | qp)
    codes, loaded = _modules_after(["scf", "z=1.0", "shells=1s:1", "n_points=300"])
    assert codes == [0] and {"scipy.linalg", "polarscf.hfcore", "dataclasses", "json"} <= loaded


@pytest.mark.parametrize(
    "name, argv",
    [
        ("anticommutator_table", ["verify", "fock", "--modes", "2"]),
        ("resolvent_sweep", ["qp", "qp_e_points=11"]),
        ("boson_energy", ["spectrum", "n_max=2"]),
    ],
)
def test_commands_call_the_names_bound_on_shell(monkeypatch, tmp_path, name, argv):
    """A tracer wraps these names with setattr on `shell`; the commands run the wrapper."""
    if name in shell._DEFERRED:  # as in a fresh process: not yet imported
        monkeypatch.delitem(vars(shell), name, raising=False)
    real, calls = getattr(shell, name), []

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(shell, name, spy)
    assert main([*argv, "--out", str(tmp_path / "out.txt")]) == 0
    assert calls


def test_only_hfcore_imports_scipy():
    """Every SciPy import in the package sits inside a function of hfcore."""
    importers = set()
    for path in Path(polarscf.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_function = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for stmt in node.body
            for inner in ast.walk(stmt)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                importers.add(path.stem)
                assert id(node) in in_function, f"{path.name} imports SciPy outside a function"
    assert importers == {"hfcore"}


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["scf", "--config", str(NO_SUCH_DIR / "run.cfg")],
        ["scf", "r_max=inf"],
        ["spectrum", "mass=nan"],
        ["qp", "qp_e_points=-1"],
        ["spectrum", "n_max=0"],
        ["spectrum", "l_max=-1"],
        ["verify", "fock", "--modes", "17"],
        ["verify", "fock", "--modes", "2", "--out", str(NO_SUCH_DIR / "x.txt")],
        ["scf", *FAST_SCF, "--trace", str(NO_SUCH_DIR / "t.jsonl")],
        ["spectrum", "--trace", "t.jsonl"],
        ["scf", "tol_energy=1e-8"],
        ["scf", "r_min=1e-160"],
        ["qp", "sigma_coefficients=abc"],
        ["qp", "qp_levels=nan"],
        ["qp", "qp_levels=inf,0.5"],
        ["scf", "r_min=1e-300", "r_max=1e300", "n_points=2"],
        ["qp", "sigma_kind=user_matrix"],
        ["scf", "z=2", "shells=1s:2", "r_max=1e300", "n_points=400"],
        ["scf", *FAST_SCF, "--modes", "3"],
        # passes the grid's r_max² check, but the s–p exchange kernel's r³ overflows
        ["scf", "z=7", "shells=1s:2,2s:2,2p:3", "r_max=1e150", "n_points=400"],
        # h·r_min > 1: the r_min check must not overflow on a mesh that starts far out
        ["scf", "z=2", "shells=1s:2", "r_min=1000", "r_max=2000", "n_points=100"],
        # gamma**2 overflows Python's float power
        ["spectrum", "gamma=1e200"],
        # finite inputs whose level terms are inf: no artifact holds a non-finite number
        ["spectrum", "mass=1e300", "gamma=1e3", "n_max=1", "l_max=0"],
        ["qp", "pair_epsilon0=1e308", "pair_constant=-1e308"],
        # the window's width overflows before linspace runs
        ["qp", "qp_e_min=-1e308", "qp_e_max=1e308"],
        ["qp", "qp_eta=0", "qp_levels=0.5", "qp_e_min=0.5", "qp_e_max=0.5", "qp_e_points=1"],
        ["scf", "z=2", "shells=1s:2", "n_points=10"],
        ["pseudo", "z=3", "shells=1s:2,2s:1", "valence=3d"],
        # sizes checked before any row is computed or allocated
        ["spectrum", "n_max=100000000000000000000", "l_max=0", "gamma=0"],
        ["qp", "qp_e_points=100000000000"],
        # meshes NumPy cannot describe, rejected before np.arange: 2**61, 2**63,
        # 10**30 and intp.max // 8, which NumPy refuses within 64 bytes of its limit
        ["scf", "z=2", "shells=1s:2", "n_points=2305843009213693952"],
        ["scf", "z=2", "shells=1s:2", "n_points=9223372036854775808"],
        ["scf", "z=2", "shells=1s:2", "n_points=1000000000000000000000000000000"],
        ["scf", "z=2", "shells=1s:2", "n_points=1152921504606846975"],
        # finite inputs whose dressed level ε + f(0) overflows
        ["qp", "qp_levels=1e308", "sigma_kind=constant_shift", "sigma_shift=1e308"],
        ["qp", "qp_levels=-1e308", "sigma_kind=constant_shift", "sigma_shift=-1e308"],
        # two shells with a partly filled spin subshell: no single Hund term
        ["scf", "z=14", "shells=1s:2,2s:2,2p:2,3p:2"],
        # r^(2L+1) is subnormal at r_min: r^5 (L = 2, p–p) at 1e-70 and 1e-80, and
        # at 1e-50 every power from r^7 (L = 3) up, which an f shell's blocks need
        ["scf", "z=10", "shells=1s:2,2s:2,2p:6", "r_min=1e-70", "n_points=400"],
        ["scf", "z=10", "shells=1s:2,2s:2,2p:6", "r_min=1e-80", "n_points=400"],
        ["scf", "z=60", "shells=1s:2,2s:2,2p:6,3s:2,3p:6,3d:10,4s:2,4p:6,4d:10,4f:2,"
         "5s:2,5p:6,6s:2", "r_min=1e-50", "n_points=600"],
    ],
    ids=[
        "no-args", "missing-config", "inf", "nan", "qp-points", "n-max", "l-max",
        "modes-17", "unwritable-out", "unwritable-trace", "trace-without-scf",
        "tol-energy", "r-min-overflow", "sigma-coefficients", "qp-levels-nan",
        "qp-levels-inf", "mesh-ratio-overflow", "sigma-user-matrix", "r-max-overflow",
        "modes-without-verify", "exchange-kernel-overflow", "far-r-min",
        "gamma-power-overflow", "spectrum-not-finite", "qp-pair-not-finite",
        "qp-window-overflow", "qp-resolvent-pole", "solver-grid-too-small",
        "pseudo-valence-not-occupied", "spectrum-too-many-rows", "qp-too-many-rows",
        "n-points-2pow61", "n-points-2pow63", "n-points-10pow30", "n-points-intp-max-8",
        "qp-dressed-level-overflow", "qp-dressed-level-overflow-negative",
        "two-partly-filled-spin-subshells", "kernel-underflow-ne-1e-70",
        "kernel-underflow-ne-1e-80", "kernel-underflow-f-shell-1e-50",
    ],
)
def test_bad_input_exits_3_without_traceback(argv):
    """Exit 3 with a `polar-scf:` message, under warnings as errors: no warning either."""
    r = subprocess.run(
        [sys.executable, "-W", "error", "-m", "polarscf.shell", *argv],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 3, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("polar-scf: ")
    assert r.stderr.count("polar-scf:") == 1
