"""Record a baseline: two sets of untraced runs plus one traced run per workload.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Runs ``perfbench/run.py`` one process at a time from the checkout root, for
every workload in BENCHMARK.json, with ``run_seconds`` from that file.  Each
set runs every workload with seeds 1-10; the traced run uses seed 11.  For
each end-to-end metric and set it stores the values, their median, and
their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  It also
stores how much worse the second set's median is than the first's, as a
share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETS = 2
SEEDS = range(1, 11)
TRACED_SEED = 11


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(values, bound) -> dict:
    return {"median": statistics.median(values), "spread": spread(values), "bound": bound,
            "values": values}


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    values = {w: [{} for _ in range(SETS)] for w in workloads}
    failed = {w: 0 for w in workloads}
    for i in range(SETS):
        for workload in workloads:
            for seed in SEEDS:
                result = run_once(workload, seed, seconds, 0)
                failed[workload] += result["failed"]
                for name, m in result["metrics"].items():
                    values[workload][i].setdefault(name, []).append(m["value"])
                print(f"set {i + 1}", workload, seed,
                      {k: round(m["value"], 6) for k, m in result["metrics"].items()}, flush=True)

    out = {"run_seconds": seconds, "workloads": {}}
    for workload in workloads:
        sets = [{name: summary(xs, metrics[name]["bound"]) for name, xs in v.items()}
                for v in values[workload]]
        drift = {name: worsening(sets[0][name]["median"], sets[-1][name]["median"],
                                 metrics[name]["better"])
                 for name in sets[0]}
        traced = run_once(workload, TRACED_SEED, seconds, 1)
        out["workloads"][workload] = {
            "failed": failed[workload],
            "sets": sets,
            "median_worsening": drift,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for i, s in enumerate(sets):
            for name, m in s.items():
                print(f"set {i + 1} {workload} {name}: median {m['median']:.6g}, "
                      f"spread {m['spread']:.4f} (bound {m['bound']})", flush=True)
        for name, d in drift.items():
            print(f"{workload} {name}: second median worse by {d:.4f}", flush=True)
    first = HERE / "out" / f"result-{workloads[0]}-seed{SEEDS[0]}-trace0.json"
    out["environment"] = json.loads(first.read_text(encoding="utf-8"))["environment"]
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
