import json
import random
import types
from pathlib import Path

import pytest

import run
from spans import Tracer
from workloads import Atoms, CheckFailed, Cli, Request, require

BENCH = Path(__file__).resolve().parent.parent


def test_wrong_result_is_counted_and_the_run_goes_on():
    rec = run.Recorder()

    def check(x):
        require(x == 1, f"expected 1, got {x}")

    def boom():
        raise RuntimeError("solver blew up")

    rec.run(Request("k", lambda: 1, check))
    rec.run(Request("k", lambda: 2, check))   # wrong result
    rec.run(Request("k", boom, check))        # exception
    rec.run(Request("k", lambda: 1, check))
    assert (rec.attempted, rec.failed) == (4, 2)
    assert len(rec.latency["plain"]["k"]) == 2
    assert "expected 1, got 2" in rec.failures[0]
    assert "solver blew up" in rec.failures[1]


def test_energy_oracle_rejects_a_state_off_the_hf_limit():
    atoms = Atoms(random.Random(0))
    atoms.setup()
    req = atoms._solve("he")
    good = types.SimpleNamespace(converged=True, total_energy=-2.86169, iterations=32)
    req.check(good)
    for bad in (
        types.SimpleNamespace(converged=True, total_energy=-2.8614, iterations=32),
        types.SimpleNamespace(converged=False, total_energy=-2.86169, iterations=32),
    ):
        with pytest.raises(CheckFailed):
            req.check(bad)


def test_cli_artifact_must_repeat_byte_for_byte(tmp_path):
    cli = Cli(random.Random(0), workdir=tmp_path)
    req = cli._command("verify", in_process=False)
    req.check((0, b"all anticommutators exact (modes=8)\n", ""))
    with pytest.raises(CheckFailed):
        req.check((0, b"all anticommutators exact (modes=8) \n", ""))
    with pytest.raises(CheckFailed, match="bad config"):
        req.check((3, b"", "polar-scf: bad config\n"))


def test_seed_changes_order_and_levels_but_not_work():
    a, b = Cli(random.Random(1)), Cli(random.Random(2))
    assert a.commands["qp"] != b.commands["qp"]
    assert a.commands["verify"] == b.commands["verify"]
    levels = a.commands["qp"][1].split("=")[1].split(",")
    assert len(levels) == 3 and all(-1.0 <= float(x) <= 1.0 for x in levels)


def test_per_layer_output_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workload = types.SimpleNamespace(observed={}, overhead_base="plain")
    passes = {"plain": [1.0], "traced": [1.1]}
    metrics = run.per_layer(workload, Tracer(), passes, run.Recorder(), 0.5, 0.7)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in metrics.items())


def test_end_to_end_output_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    rec = run.Recorder()
    rec.run(Request("k", lambda: 1, lambda x: None))
    workload = types.SimpleNamespace(serves_by_process=False)
    metrics = run.end_to_end(workload, 1.0, {"plain": [2.0]}, rec)
    assert [(k, u) for k, (_, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]
    ]
    assert all(v > 0 for v, _ in metrics.values())
