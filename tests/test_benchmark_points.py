"""The names the benchmark's tracer patches must exist in the program.

`perfbench/run.py --trace 1` routes each workload's `trace_points()` through
`Tracer.install`, which reads a class attribute from the class `__dict__`
and a module attribute with getattr.  Checking the same lookups here makes
a rename or deletion in `polarscf` fail this suite rather than the traced
benchmark run.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up by name
        spec.loader.exec_module(module)
    return sys.modules[name].WORKLOADS


@pytest.mark.parametrize("name", ["atoms", "analysis", "cli"])
def test_trace_points_exist(name, tmp_path):
    workload = _workloads()[name](random.Random(0), workdir=tmp_path)
    points = workload.trace_points()
    assert points
    missing = [
        label
        for owner, attr, label, _ in points
        if not (attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr))
    ]
    assert missing == []
