#!/usr/bin/env python3
"""End-to-end benchmark of gf2matroid, with a traced run for per-layer numbers.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 20 --trace 0

One client runs the workload's jobs back to back (a closed loop) through
the public API, as batches in seeded order, until the next batch would end
past --seconds; at least one batch runs.  Every answer is checked after the
timed batches.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 one untraced and one traced batch
run, and the metrics are the per-layer ones (see README.md).

The benchmark measures the live kernel backend (gf2matroid.backend_name())
of the sources under src/; it builds and forces nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Tuple

import workloads
from tracing import Tracer, job_attempts, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 11  # fresh CLI processes per run; setup_s is their median
IMPORT_RUNS = 5  # -X importtime processes per traced run
JOB_BUDGET_S = 60.0  # per job; a search gets it as its budget
RUN_CAP_S = 150.0  # no job starts later than this into the run


def load_program():
    """Import gf2matroid from this checkout's src/, or exit with code 2."""
    if not (SRC / "gf2matroid" / "__init__.py").is_file():
        _fail(f"no gf2matroid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gf2matroid
    import gf2matroid.cli  # noqa: F401  (not imported by the package itself)

    if Path(gf2matroid.__file__).resolve().parent != SRC / "gf2matroid":
        _fail(f"imported gf2matroid from {gf2matroid.__file__}, not from {SRC}")
    return gf2matroid


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _cli(*flags: str) -> subprocess.CompletedProcess:
    """A fresh `python -m gf2matroid --version` on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "gf2matroid", "--version"],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )


def measure_setup() -> float:
    """Median wall time of a fresh `python -m gf2matroid --version`."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        _cli()
        times.append(perf_counter() - t0)
    return statistics.median(times)


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")


def import_times(stderr: str) -> Tuple[float, float]:
    """(gf2matroid top-level imports, concurrent.futures.process) in seconds."""
    own = pool = 0
    for m in _IMPORT_LINE.finditer(stderr):
        cumulative, depth, name = int(m.group(1)), len(m.group(2)), m.group(3)
        if depth == 1 and name.split(".")[0] == "gf2matroid":
            own += cumulative
        if name == "concurrent.futures.process":
            pool = cumulative
    return own / 1e6, pool / 1e6


def measure_imports() -> Tuple[float, float]:
    samples = [
        import_times(_cli("-X", "importtime").stderr) for _ in range(IMPORT_RUNS)
    ]
    return (
        statistics.median(s[0] for s in samples),
        statistics.median(s[1] for s in samples),
    )


@dataclass
class Outcome:
    """One execution of one job."""

    job: workloads.Job
    out: object
    seconds: float
    error: Optional[str]


def _last_line(tb: str) -> str:
    return tb.strip().splitlines()[-1]


def run_batch(jobs, deadline: float, tracer=None) -> List[Outcome]:
    results = []
    for job in jobs:
        budget = min(JOB_BUDGET_S, deadline - perf_counter())
        if budget <= 0:
            results.append(Outcome(job, None, 0.0, "not started: run time cap reached"))
            continue
        if tracer is not None:
            tracer.job = job.name
        error, out = None, None
        t0 = perf_counter()
        try:
            out = job.run(budget)
        except Exception:  # a job that throws is a failed job; the batch goes on
            error = "raised " + _last_line(traceback.format_exc(limit=3))
        dt = perf_counter() - t0
        if error is None and dt > budget:
            error = f"took {dt:.1f} s, over its {budget:.1f} s budget"
        results.append(Outcome(job, out, dt, error))
    if tracer is not None:
        tracer.job = None
    return results


def check(results: List[Outcome]) -> None:
    """Fill in the error of every outcome whose answer is wrong."""
    for r in results:
        if r.error is None:
            try:
                r.error = r.job.check(r.out)
            except Exception:
                r.error = "check raised " + _last_line(traceback.format_exc(limit=3))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024


def shuffled(rng: random.Random, jobs: list) -> list:
    order = list(jobs)
    rng.shuffle(order)
    return order


def end_to_end(jobs, rng, seconds: float, t_start: float, setup_s: float):
    deadline = t_start + RUN_CAP_S
    results: List[Outcome] = []
    walls: List[float] = []
    t_loop = perf_counter()
    while True:
        t0 = perf_counter()
        results += run_batch(shuffled(rng, jobs), deadline)
        walls.append(perf_counter() - t0)
        if perf_counter() - t_loop + walls[-1] > seconds:
            break
    rss = peak_rss_mb()
    check(results)
    print(
        f"# {len(walls)} batch(es) of {len(jobs)} jobs; batch time "
        f"min {min(walls):.4f} s, median {statistics.median(walls):.4f} s, "
        f"max {max(walls):.4f} s"
    )
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return results, metrics


def traced(g, jobs, rng, t_start: float):
    deadline = t_start + RUN_CAP_S
    order = shuffled(rng, jobs)
    t0 = perf_counter()
    plain = run_batch(order, deadline)
    plain_wall = perf_counter() - t0
    tracer = Tracer()
    with tracer.installed(g):
        t0 = perf_counter()
        spans_run = run_batch(order, deadline, tracer)
        traced_wall = perf_counter() - t0
    serial = run_batch([j.serial for j in jobs if j.serial is not None], deadline)
    results = plain + spans_run + serial
    check(results)
    for a, b in zip(plain, spans_run):
        if a.error is None and b.error is None:
            if workloads.answer(a.out) != workloads.answer(b.out):
                b.error = "traced run gave another answer or node count than untraced"

    metrics = layer_metrics(tracer.spans)
    t1_nodes = sum(workloads.nodes(r.out) for r in serial)
    t2_nodes = sum(workloads.nodes(r.out) for r in plain if r.job.serial is not None)
    inflation = t2_nodes / t1_nodes if t1_nodes else 0.0
    metrics["search.pool.node_inflation"] = (inflation, "ratio")
    own, pool = measure_imports()
    metrics["cli.import_s"] = (own, "s")
    metrics["cli.import.process_pool_s"] = (pool, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")

    retries = job_attempts(tracer.spans)
    for r in spans_run:
        detail = {
            "job": r.job.name,
            "nodes": workloads.nodes(r.out),
            "wall_s": r.seconds,
            "retries": retries.get(r.job.name, 0),
        }
        print("# job " + json.dumps(detail))
    return results, metrics


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    t_start = perf_counter()
    g = load_program()
    print(
        f"# workload {args.workload}, seed {args.seed}, trace {args.trace}; "
        f"backend {g.backend_name()}, python {platform.python_version()}, "
        f"nproc {os.cpu_count()}"
    )
    rng = random.Random(args.seed)
    jobs = workloads.build(g, args.workload, rng)
    if args.trace:
        results, metrics = traced(g, jobs, rng, t_start)
    else:
        setup_s = measure_setup()
        results, metrics = end_to_end(jobs, rng, args.seconds, t_start, setup_s)

    attempted, failed = len(results), sum(r.error is not None for r in results)
    pairs = workloads.lockstep(g)
    if pairs is None:
        print("# lockstep check skipped: the compiled backend does not import")
    else:
        attempted += len(pairs)
        failed += sum(not same for _, same in pairs)
        for name, same in pairs:
            print(f"# lockstep {name}: {'equal' if same else 'DIFFERENT'}")
    for r in results:
        if r.error is not None:
            print(f"# FAILED {r.job.name}: {r.error}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
