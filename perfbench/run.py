"""polarscf benchmark: one run of one workload.

    python3 perfbench/run.py --workload {atoms,analysis,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  One client process generates the load: it runs
the workload's set-up, then whole passes of requests for about
``--seconds``, checking every result.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  The gated timings are CPU seconds of the
benchmark process and its children, which leave out the time a shared host
takes the core away (steal); wall times are printed beside them and are
per-layer metrics of the traced run.  A fuller record (environment, every
request kind's latency summary, failures) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from spans import END, START, Tracer, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3
# BLAS threads of this process and of its children.  With two threads on a
# two-core host, load on the other core stalls every parallel BLAS call: an
# atoms pass took 43 s instead of 29 s next to one busy process, while with
# one thread it took 26 s either way.
BLAS_THREADS = 1
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_now() -> float:
    """CPU seconds used so far by this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    return env


# ---------------------------------------------------------------------------
# statistics


def tail(samples):
    """Highest of PERCENTILES with at least ten samples beyond it (nearest rank)."""
    xs = sorted(samples)
    best = None
    for p in PERCENTILES:
        rank = max(1, math.ceil(len(xs) * p / 100))
        if len(xs) - rank >= 10:
            best = (p, xs[rank - 1])
    return best


def summarize(samples) -> dict:
    t = tail(samples)
    return {
        "n": len(samples),
        "median_s": statistics.median(samples),
        "tail_percentile": t[0] if t else None,
        "tail_s": t[1] if t else None,
    }


# ---------------------------------------------------------------------------
# request loop


class Recorder:
    """Counts attempts and failures; keeps the latency of good requests.

    A failure is an exception from the call or a failed check.  It is
    counted, reported on stderr, and the run goes on with the next request:
    nothing is retried or skipped.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        # pass label -> request kind -> seconds
        self.latency: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.failures: list[str] = []

    def run(self, req, label="plain", tracer=None) -> None:
        request_id = self.attempted
        self.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = req.call()
                elapsed = time.perf_counter() - t0
            else:
                tracer.request = request_id
                sid = tracer.begin(f"request.{req.kind}")
                try:
                    result = req.call()
                finally:
                    tracer.end(sid)
                    tracer.request = None
                elapsed = tracer.spans[sid][END] - tracer.spans[sid][START]
            req.check(result)
        except Exception as exc:  # boundary: count the failure, keep serving
            self.failed += 1
            msg = f"{req.kind}: {type(exc).__name__}: {exc}"
            self.failures.append(msg)
            print(f"request failed: {msg}", file=sys.stderr)
            return
        self.latency[label][req.kind].append(elapsed)


def run_passes(workload, rng, seconds, recorder, schedule, tracer=None, points=()):
    """Whole passes, cycling through ``schedule``, for about ``seconds``.

    Each schedule entry (label, in_process, traced) runs at least once.
    After that, no pass starts that would end past ``seconds``, judging by
    the last pass; so a run of one long pass is never doubled by a second.
    Wrappers are installed only for traced passes, so every recorded span
    belongs to one.  Returns {label: [pass wall seconds]} and
    {label: [pass CPU seconds]}.
    """
    passes = defaultdict(list)
    cpu = defaultdict(list)
    start = time.perf_counter()
    i = 0
    while True:
        label, in_process, traced = schedule[i % len(schedule)]
        reqs = workload.requests(rng, in_process)
        if traced:
            for owner, attr, name, options in points:
                tracer.install(owner, attr, name, **options)
        t0, c0 = time.perf_counter(), cpu_now()
        try:
            for req in reqs:
                recorder.run(req, label, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        last = time.perf_counter() - t0
        passes[label].append(last)
        cpu[label].append(cpu_now() - c0)
        i += 1
        if time.perf_counter() - start + last > seconds and i >= len(schedule):
            return passes, cpu


# ---------------------------------------------------------------------------
# metrics


def peak_rss_mb(workload) -> float:
    """Peak RSS of this process, or of its largest child for process workloads."""
    who = resource.RUSAGE_CHILDREN if workload.serves_by_process else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, setup_cpu_s, cpu_passes, recorder) -> dict:
    return {
        "setup_s": (setup_cpu_s, "s"),
        "pass_cpu_s": (statistics.median(cpu_passes["plain"]), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        "success_rate": ((recorder.attempted - recorder.failed) / recorder.attempted, "ratio"),
    }


REQUEST_KINDS = (
    "scf_he", "scf_li", "pk_solve", "trace_energy", "fock_apply",
    "exchange_apply", "verify", "qp", "spectrum",
)

# per-layer metric -> (span name, field); values are per traced pass
LAYER_FIELDS = {
    "hfcore.eigsh_calls": ("scipy.eigsh", "calls"),
    "hfcore.eigsh_s": ("scipy.eigsh", "total_s"),
    "hfcore.factorizations": ("scipy.factorize", "calls"),
    "hfcore.shift_invert_solves": ("scipy.shift_invert_solve", "calls"),
    "hfcore.scf_self_s": ("hfcore.scf_solve", "self_s"),
    "hfcore.slater_potential_calls": ("hfcore.slater_potential", "calls"),
    "hfcore.slater_potential_s": ("hfcore.slater_potential", "total_s"),
    "hfcore.channel_matrix_calls": ("hfcore.channel_matrix", "calls"),
    "hfcore.channel_matrix_s": ("hfcore.channel_matrix", "total_s"),
    "hfcore.exchange_apply_self_s": ("hfcore.exchange_apply", "self_s"),
    "pseudopot.pk_solve_self_s": ("pseudopot.pk_solve", "self_s"),
    "radial.integrate_calls": ("radial.integrate", "calls"),
    "radial.kinetic_tridiagonal_calls": ("radial.kinetic_tridiagonal", "calls"),
    "radial.hydrogenic_orbital_s": ("radial.hydrogenic_orbital", "total_s"),
    "fockspace.anticommutator_table_s": ("fockspace.anticommutator_table", "total_s"),
    "quasiparticle.green0_calls": ("quasiparticle.green0", "calls"),
    "quasiparticle.resolvent_sweep_s": ("quasiparticle.resolvent_sweep", "total_s"),
    "relspectrum.boson_energy_calls": ("relspectrum.boson_energy", "calls"),
    "relspectrum.boson_energy_s": ("relspectrum.boson_energy", "total_s"),
    "shell.run_command_s": ("shell.run_command", "total_s"),
}


def per_layer(workload, tracer, passes, recorder, import_s, setup_wall_s) -> dict:
    n = len(passes["traced"])
    obs = workload.observed
    totals = layer_totals(tracer.spans)

    def per_pass(name, field):
        return totals.get(name, {}).get(field, 0) / n

    def observed_sum(prefix):
        return sum(v for k, v in obs.items() if k.startswith(prefix))

    m = {key: (per_pass(*src), "s" if src[1] != "calls" else "count")
         for key, src in LAYER_FIELDS.items()}
    m["hfcore.iterations_he"] = (obs.get("iterations_he", 0), "count")
    m["hfcore.iterations_li"] = (obs.get("iterations_li", 0), "count")
    solve_s = per_pass("hfcore.scf_solve", "total_s")
    m["hfcore.eigsh_share"] = (per_pass("scipy.eigsh", "total_s") / solve_s if solve_s else 0.0,
                               "ratio")
    requested = tracer.counts["scipy.eigsh:tally"] / n
    useful = observed_sum("useful_pairs_")
    m["hfcore.eigpairs_useful_ratio"] = (useful / requested if requested else 0.0, "ratio")
    m["fockspace.ladder_apply_calls"] = (tracer.counts["fockspace.ladder_apply"] / n, "count")
    m["shell.import_s"] = (import_s, "s")
    m["setup_wall_s"] = (setup_wall_s, "s")
    m["pass_wall_s"] = (statistics.median(passes["plain"]), "s")
    m["shell.artifact_bytes"] = (observed_sum("artifact_bytes_"), "bytes")
    m["trace.overhead_frac"] = (statistics.median(passes["traced"])
                                / statistics.median(passes[workload.overhead_base]) - 1.0,
                                "ratio")
    # request latency as the end-to-end runs see it: untraced, process-level
    plain = recorder.latency.get("plain", {})
    for kind in REQUEST_KINDS:
        xs = plain.get(kind)
        m[f"{kind}_s"] = (statistics.median(xs) if xs else 0.0, "s")
    m["energy_err_ha"] = (max(obs.get("energy_err_he", 0.0), obs.get("energy_err_li", 0.0)),
                          "Ha")
    return m


# ---------------------------------------------------------------------------
# environment record


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "polarscf").rglob("*.py")))
    return {
        "nproc": nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("atoms", "analysis", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def timed(fn, repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Wall and CPU seconds of ``repeats`` calls of ``fn``, one at a time."""
    wall, cpu = [], []
    for _ in range(repeats):
        t0, c0 = time.perf_counter(), cpu_now()
        fn()
        wall.append(time.perf_counter() - t0)
        cpu.append(cpu_now() - c0)
    return wall, cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polarscf" / "__init__.py").is_file():
        print(f"perfbench: no polarscf package under {SRC}", file=sys.stderr)
        return 2
    threads = BLAS_THREADS
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(threads)
    sys.path.insert(0, str(SRC))
    env = child_env(threads)

    from workloads import CHILD_TIMEOUT_S, WORKLOADS  # imports NumPy: after the BLAS thread setting

    rng = random.Random(args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](rng, env=env, workdir=workdir)
        import_samples, import_cpu = timed(lambda: subprocess.run(
            [sys.executable, "-c", workload.import_probe], env=env, check=True,
            stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S))
        work_samples, work_cpu = timed(workload.setup)
        setup_wall_s = statistics.median(import_samples) + statistics.median(work_samples)
        setup_cpu_s = statistics.median(import_cpu) + statistics.median(work_cpu)

        recorder = Recorder()
        tracer = points = None
        if args.trace:
            tracer = Tracer()
            points = workload.trace_points()
            schedule = workload.trace_schedule
        else:
            schedule = (("plain", False, False),)
        passes, cpu_passes = run_passes(workload, rng, args.seconds, recorder, schedule,
                                        tracer, points)
        if args.trace:
            metrics = per_layer(workload, tracer, passes, recorder,
                                statistics.median(import_samples), setup_wall_s)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = end_to_end(workload, setup_cpu_s, cpu_passes, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(threads),
        "setup": {"import_s": import_samples, "work_s": work_samples,
                  "import_cpu_s": import_cpu, "work_cpu_s": work_cpu},
        "passes": {k: summarize(v) for k, v in passes.items()},
        "pass_cpu": {k: summarize(v) for k, v in cpu_passes.items()},
        "requests": {label: {k: summarize(v) for k, v in sorted(kinds.items())}
                     for label, kinds in recorder.latency.items()},
        "failures": recorder.failures,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for label, kinds in record["requests"].items():
        for kind, s in kinds.items():
            tail_txt = (f", p{s['tail_percentile']:g} {s['tail_s']:.6g} s"
                        if s["tail_percentile"] is not None else "")
            print(f"{label} {kind}_s: median {s['median_s']:.6g} s{tail_txt}, n={s['n']}")
    print(f"setup: wall {setup_wall_s:.6g} s, CPU {setup_cpu_s:.6g} s; pass: wall "
          f"{statistics.median(passes['plain']):.6g} s, CPU "
          f"{statistics.median(cpu_passes['plain']):.6g} s")
    print("environment: " + json.dumps(record["environment"]))
    print(json.dumps({
        "correct": recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
