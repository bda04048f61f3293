"""The recorded baseline against the ROADMAP figures and the benchmark bounds."""

import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
BASELINE = json.loads((BENCH / "baseline.json").read_text())
WORKLOADS = BASELINE["workloads"]


def test_iteration_counts_match_roadmap():
    assert WORKLOADS["atoms"]["per_layer"]["hfcore.iterations_he"] == 32
    assert WORKLOADS["atoms"]["per_layer"]["hfcore.iterations_li"] == 63
    assert WORKLOADS["analysis"]["per_layer"]["hfcore.iterations_li"] == 63


def test_eigsh_share_matches_roadmap():
    assert 0.79 <= WORKLOADS["atoms"]["per_layer"]["hfcore.eigsh_share"] <= 0.87


def test_eigsh_dominates_atoms_and_is_absent_elsewhere():
    assert WORKLOADS["atoms"]["per_layer"]["hfcore.eigsh_share"] > 0.5
    for name in ("analysis", "cli"):
        assert WORKLOADS[name]["per_layer"]["hfcore.eigsh_calls"] == 0


def test_no_request_failed():
    for name, w in WORKLOADS.items():
        assert w["failed"] == 0, name
        for s in w["sets"]:
            assert s["success_rate"]["median"] == 1.0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_spreads_within_bounds(workload):
    for s in WORKLOADS[workload]["sets"]:
        for name, m in s.items():
            assert m["spread"] <= m["bound"], name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_sets_agree_within_bounds(workload):
    w = WORKLOADS[workload]
    for name, worse in w["median_worsening"].items():
        assert worse <= w["sets"][0][name]["bound"], name
