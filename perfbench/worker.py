"""Benchmark worker: runs one workload in this process and prints its result.

Started by ``run.py``.  It imports lindrec from this checkout's ``src``, draws
the workload's inputs from the seed and prints ``ready``; with ``--probe`` it
stops there.  Otherwise it runs passes over the job list, one job in flight,
while the next pass still fits in the time budget, then checks every report
and prints one JSON line with the timings, counts and failures.

With ``--trace 1`` the first half of the budget runs untraced and the second
half traced, so the difference of the two median pass times is the tracing
overhead; the spans are written to ``out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, None if not found."""
    for lib_path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in BLAS_THREAD_SYMBOLS:
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def environment() -> dict:
    import numpy

    from lindrec import verification

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads, source = blas_threads(numpy), "openblas"
    if threads is None:
        threads, source = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc)), "environment"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_source": source,
        "nproc": nproc,
        "max_superop_dim": verification.MAX_SUPEROP_DIM,
    }


def run_pass(cli, jobs, tracer=None) -> tuple[float, list]:
    """One pass over the job list; a job that raises is kept as its exception."""
    outcomes = []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        try:
            outcomes.append(cli.run_experiment(job.config))
        except Exception as exc:  # counted as a failed job, the run goes on
            outcomes.append(exc)
    return time.perf_counter() - start, outcomes


def run_for(cli, jobs, budget: float, tracer=None) -> tuple[list, list, list]:
    """Passes while the next one, at the median pass time, ends within ``budget``."""
    walls, passes, traces = [], [], []
    start = time.perf_counter()
    while True:
        wall, outcomes = run_pass(cli, jobs, tracer)
        walls.append(wall)
        passes.append(outcomes)
        if tracer is not None:
            traces.append(tracer.take())
        if time.perf_counter() - start + statistics.median(walls) > budget:
            return walls, passes, traces


def check(jobs, passes) -> list[dict]:
    failures = []
    for index, outcomes in enumerate(passes):
        for job, outcome in zip(jobs, outcomes):
            if isinstance(outcome, Exception):
                reasons = [f"raised {type(outcome).__name__}: {outcome}"]
            else:
                try:
                    reasons = job.check(outcome)
                except Exception as exc:  # a report the check cannot read is wrong
                    reasons = [f"check raised {type(exc).__name__}: {exc}"]
            if reasons:
                failures.append({"pass": index, "job": job.name, "reasons": reasons})
    return failures


def per_layer_metrics(jobs, walls, passes, traces) -> dict:
    """Per-layer metrics of each traced pass, as the median over the passes."""
    import tracing
    import workloads

    per_pass = []
    for wall, outcomes, (spans, counts) in zip(walls, passes, traces):
        metrics = tracing.layer_metrics(spans, counts, wall)
        metrics["numerics.kernel_dim_excess"] = sum(
            workloads.kernel_dim_excess(job, outcome)
            for job, outcome in zip(jobs, outcomes)
            if not isinstance(outcome, Exception)
        )
        per_pass.append(metrics)
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def write_spans(path: Path, traces) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump({
            "fields": ["pass", "id", "parent", "job", "name", "start", "end"],
            "spans": [[index, *span] for index, (spans, _) in enumerate(traces)
                      for span in spans],
        }, fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    import lindrec
    from lindrec import cli

    if SRC not in Path(lindrec.__file__).resolve().parents:
        print(f"lindrec imported from {lindrec.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    jobs, drawn = workloads.make_jobs(args.workload, args.seed, OUT)
    print("ready", flush=True)
    if args.probe:
        return 0

    env = environment()
    if env["blas_threads"] > env["nproc"]:
        print(f"refused: {env['blas_threads']} BLAS threads on {env['nproc']} CPUs",
              file=sys.stderr)
        return 3

    result = {"inputs": drawn, "environment": env, "jobs": [job.name for job in jobs]}
    if not args.trace:
        walls, passes, _ = run_for(cli, jobs, args.seconds)
        result["walls"] = walls
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        import tracing

        walls, passes, _ = run_for(cli, jobs, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_walls, traced_passes, traces = run_for(cli, jobs, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        per_layer = per_layer_metrics(jobs, traced_walls, traced_passes, traces)
        per_layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result.update(
            walls=walls,
            traced_walls=traced_walls,
            per_layer=per_layer,
            top_self_s=[tracing.top_self_times(spans) for spans, _ in traces],
        )
        write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.json", traces)
        passes = passes + traced_passes
    result["failures"] = check(jobs, passes)
    result["attempted"] = len(jobs) * len(passes)
    result["failed"] = len(result["failures"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
