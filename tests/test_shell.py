"""Config round trips, canonical output, dispatch and exit codes."""

import ast
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import polarscf
from polarscf import shell
from polarscf.errors import ConfigError
from polarscf.shell import (
    RunConfig,
    canonical_json,
    main,
    parse_config,
    parse_shells,
    render_config,
    run_command,
)

FAST_SCF = ["z=1.0", "shells=1s:1", "n_points=500", "r_max=40.0"]
NO_SUCH_DIR = Path(__file__).parent / "no-such-dir"


def test_parse_shells_notation():
    assert parse_shells("1s:2,2s:1") == ((1, 0, 2), (2, 0, 1))
    assert parse_shells("2p:6") == ((2, 1, 6),)
    assert parse_shells(" 1s:2 , 2p:3 ") == ((1, 0, 2), (2, 1, 3))


@pytest.mark.parametrize("bad", ["1s", "s:2", "1x:2", "1s:2;2s:1", ""])
def test_parse_shells_rejects(bad):
    with pytest.raises(ConfigError):
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


def test_parse_config_locates_errors():
    with pytest.raises(ConfigError) as err:
        parse_config("z=1.0\nzz=2\n", command="scf")
    assert err.value.line == 2
    assert err.value.key == "zz"
    with pytest.raises(ConfigError) as err:
        parse_config("just words\n", command="scf")
    assert err.value.line == 1
    with pytest.raises(ConfigError):
        parse_config("z=abc\n", command="scf")
    # tol_energy is not a key: the SCF stops on its residual alone
    with pytest.raises(ConfigError, match="line 1: unknown key 'tol_energy'"):
        parse_config("tol_energy=1e-8\n", command="scf")
    with pytest.raises(ConfigError, match="override 1: unknown key 'tol_energy'"):
        parse_config("", command="scf", overrides=["tol_energy=1e-8"])


def test_parse_config_command_sources():
    cfg = parse_config("command=spectrum\nn_max=2\n")
    assert cfg.command == "spectrum"
    # the positional command wins over the file
    cfg = parse_config("command=spectrum\n", command="verify")
    assert cfg.command == "verify"
    with pytest.raises(ConfigError, match="missing command"):
        parse_config("z=1.0\n")
    with pytest.raises(ConfigError):
        parse_config("", command="fly")


def test_overrides_win_over_file():
    cfg = parse_config("z=2.0\nn_max=3\n", command="scf", overrides=["z=3.0"])
    assert cfg.z == 3.0
    assert cfg.n_max == 3
    with pytest.raises(ConfigError):
        parse_config("", command="scf", overrides=["nope=1"])


def test_keys_take_the_type_of_their_default():
    cfg = parse_config("n_points=600\nz=3\nr_min=auto\nshells=1s:2\n", command="scf")
    assert type(cfg.n_points) is int and type(cfg.z) is float
    assert cfg.r_min is None and cfg.shells == "1s:2"
    with pytest.raises(ConfigError, match="cannot parse n_points"):
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
    with pytest.raises(ConfigError):
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
    poly = replace(
        cfg, sigma_kind="diagonal_polynomial", sigma_coefficients="-0.3,0,-0.01,0,0.002"
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


def test_out_file_and_fresh_process_determinism(tmp_path):
    """Two separate interpreter runs must agree byte for byte."""
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        r = subprocess.run(
            [sys.executable, "-m", "polarscf.shell", "scf"]
            + FAST_SCF
            + ["--out", str(p)],
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
    assert rows[-1]["eigensolve_tol"] == 0.0
    assert list(rows[0]["shift"]) == ["0"]


def test_trace_side_channel_pseudo_and_nonconvergence(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["pseudo", *FAST_SCF, "valence=1s", "--trace", str(trace), "--out",
                 str(tmp_path / "p.json")]) == 0
    assert json.loads(trace.read_text().splitlines()[-1])["eigensolve_tol"] == 0.0
    argv = ["scf", "z=2.0", "shells=1s:2", "n_points=500", "r_max=40.0", "max_iter=2"]
    assert main([*argv, "--trace", str(trace)]) == 2
    assert len(trace.read_text().splitlines()) == 2
    # at r_min=1e-80, r^5 underflows to 0 in the p channel's L=2 exchange block,
    # so no shift is certified in iteration 1: exit 2 with an (empty) trace
    capsys.readouterr()
    ne = tmp_path / "ne.jsonl"
    argv = ["scf", "z=10", "shells=1s:2,2s:2,2p:6", "r_min=1e-80", "n_points=400"]
    assert main([*argv, "--trace", str(ne)]) == 2
    assert capsys.readouterr().err.startswith("polar-scf: not converged")
    assert ne.read_text() == ""


MODULE_PROBE = """
import contextlib, io, json, sys
from polarscf.shell import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {runs!r}]
roots = ("numpy", "scipy", "scipy.linalg")
loaded = [m for m in sys.modules if m in roots or m.startswith("polarscf.")]
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
    """spectrum runs without NumPy, verify and qp without the SCF stack, and
    SciPy loads only with a solve."""
    base = {"polarscf.errors", "polarscf.relspectrum", "polarscf.shell"}
    assert _modules_after() == ([], base)
    assert _modules_after(["spectrum", "n_max=4", "gamma=0.1"]) == ([0], base)
    verify = {"numpy", "polarscf.fockspace"}
    assert _modules_after(["verify", "fock", "--modes", "8"]) == ([0], base | verify)
    qp = {"numpy", "polarscf.quasiparticle"}
    assert _modules_after(["qp", "qp_levels=-0.75,0.75", "qp_e_points=101"]) == ([0], base | qp)
    codes, loaded = _modules_after(["scf", "z=1.0", "shells=1s:1", "n_points=300"])
    assert codes == [0] and {"scipy.linalg", "polarscf.hfcore"} <= loaded


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
    ],
    ids=[
        "no-args", "missing-config", "inf", "nan", "qp-points", "n-max", "l-max",
        "modes-17", "unwritable-out", "unwritable-trace", "trace-without-scf",
        "tol-energy", "r-min-overflow", "sigma-coefficients", "qp-levels-nan",
        "qp-levels-inf", "mesh-ratio-overflow", "sigma-user-matrix", "r-max-overflow",
        "modes-without-verify", "exchange-kernel-overflow",
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
